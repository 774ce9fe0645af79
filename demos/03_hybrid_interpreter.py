#!/usr/bin/env python3
"""Recursive hybrid automata: exact timed steps, pass-by-value calls,
and the clock/stopwatch classifiers.

Everything is an exact rational; delays are chosen as Fractions and the
interpreter never rounds.
"""

from fractions import Fraction

from rhagames.arith import make_valuation
from rhagames.rha import (
    CALL_ACTION,
    RET_ACTION,
    RhaComponent,
    RhaConfiguration,
    RhaModel,
    TimedAction,
    classify,
    conj,
    enabled_delays,
    is_glitch_free,
    is_hierarchical,
    timed_step,
    validate_rha,
)
from rhagames.rsm import call, node, ret

# A caller passes clock x by value into a worker; y is by reference.
worker = RhaComponent(
    name="Worker", nodes=("we", "wx"), entries=("we",), exits=("wx",), boxes={}
)
worker.transitions = {(node("we"), "tick"): node("wx")}
worker.guards = {(node("we"), "tick"): conj(("y", "=", 2))}

caller = RhaComponent(
    name="Caller", nodes=("ce", "cr"), entries=("ce",), exits=(), boxes={"w": "Worker"},
    pass_by_value={"w": frozenset({"x"})},
)
caller.transitions = {
    (node("ce"), "go"): call("w", "we"),
    (ret("w", "wx"), "home"): node("cr"),
}
model = RhaModel(("x", "y"), [caller, worker])
assert validate_rha(model) == []

print("glitch-free:", is_glitch_free(model), " (x is passed by value but y is not)")
print("hierarchical:", is_hierarchical(model))
print("classification:", classify(model))

v0 = make_valuation(("x", "y"), {"x": "1/3", "y": "1/2"})
config = RhaConfiguration((), node("ce"), v0)
config = timed_step(model, config, TimedAction(Fraction(0), "go"))
config = timed_step(model, config, TimedAction(Fraction(0), CALL_ACTION))
print("\npushed frame stores the call-time valuation:",
      [(box, [str(v) for v in vals]) for box, vals in config.context])
print("inside worker:", {k: str(val) for k, val in config.valuation.items()})

# The guard y = 2 pins the delay exactly: 2 - 1/2 = 3/2.
window = enabled_delays(model, config, "tick")
print("enabled delay for 'tick': exactly", window.lo, "(a single rational point)")

config = timed_step(model, config, TimedAction(Fraction(3, 2), "tick"))
print("after the delay:", {k: str(val) for k, val in config.valuation.items()})

config = timed_step(model, config, TimedAction(Fraction(0), RET_ACTION))
print("after returning:", {k: str(val) for k, val in config.valuation.items()},
      " (x restored to 1/3, y keeps the worker's value)")
