"""Recursive hybrid automata: rectangular constraints, flows, guards,
invariants, pass-by-value call semantics, and the exact timed interpreter.

The interpreter works over exact rationals only.  Flows are constant per
location, so over a delay every variable moves linearly; a rectangular
(hence convex) invariant therefore holds along ``[0, t]`` iff it holds
at both endpoints, and the set of delays enabling a guard is a single
rational interval.

A timed move is the RSM step of ``rhagames.rsm`` (``move_target``
decides where an action leads and whether it pushes or pops) plus time.
Call ports and exit nodes take their push/pop move with delay 0, under
the distinguished pseudo actions ``CALL_ACTION`` / ``RET_ACTION``.  On
pop, variables passed by value at the box are restored from the stack
frame; all others keep the callee's final value (pass-by-reference).

Every move must leave the target location's invariant satisfied: after
the reset on a local transition, at the callee entry on a push and at
the return port on a pop.  ``enabled_delays`` and ``available_moves``
offer exactly the delays ``timed_step`` accepts, so a push or pop whose
target invariant fails is not offered at all.
"""

import operator
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from .arith import Rational, Valuation, advance, fmt, rat, reset, restore
from .errors import ModelError, MoveError, ParseError
from .games import Player
from .rsm import (
    CALL_ACTION,
    LOCAL,
    PUSH,
    RET_ACTION,
    Location,
    RsmComponent,
    RsmModel,
    available_actions,
    callee_first_order,
    component_from_json,
    component_to_json,
    game_from_json,
    game_to_json,
    move_target,
    node,
    parse_location,
    validate,
)

# The comparison each relation of an atom stands for.
_COMPARE = {"<": operator.lt, "<=": operator.le, "=": operator.eq, ">=": operator.ge, ">": operator.gt}
RELATIONS = tuple(_COMPARE)


@dataclass(frozen=True)
class Atom:
    """A single comparison ``variable <rel> bound`` with an integer bound."""

    var: str
    rel: str
    bound: int

    def holds(self, value: Rational) -> bool:
        compare = _COMPARE.get(self.rel)
        if compare is None:
            raise ModelError(f"unknown relation {self.rel!r}")
        return compare(value, self.bound)


@dataclass(frozen=True)
class RectConstraint:
    """A conjunction of atoms; ``TRUE`` is the empty conjunction and
    ``FALSE`` the distinguished unsatisfiable constraint."""

    atoms: Tuple[Atom, ...] = ()
    unsat: bool = False

    def holds(self, valuation: Valuation) -> bool:
        if self.unsat:
            return False
        return all(atom.holds(valuation[atom.var]) for atom in self.atoms)


TRUE = RectConstraint()
FALSE = RectConstraint(unsat=True)


def conj(*atoms: Tuple[str, str, int]) -> RectConstraint:
    """Build a constraint from (var, rel, bound) triples."""
    return RectConstraint(tuple(Atom(v, r, int(b)) for v, r, b in atoms))


@dataclass(frozen=True)
class Interval:
    """A rational interval of delays; ``hi`` of None means unbounded."""

    lo: Rational
    hi: Optional[Rational]
    lo_closed: bool = True
    hi_closed: bool = True

    def is_empty(self) -> bool:
        if self.hi is None:
            return False
        if self.lo < self.hi:
            return False
        return not (self.lo == self.hi and self.lo_closed and self.hi_closed)

    def contains(self, t: Rational) -> bool:
        if t < self.lo or (t == self.lo and not self.lo_closed):
            return False
        if self.hi is not None and (t > self.hi or (t == self.hi and not self.hi_closed)):
            return False
        return True


def _intersect(a: Interval, b: Interval) -> Interval:
    if a.lo > b.lo or (a.lo == b.lo and not a.lo_closed):
        lo, lo_closed = a.lo, a.lo_closed
    else:
        lo, lo_closed = b.lo, b.lo_closed
    if a.hi is None:
        hi, hi_closed = b.hi, b.hi_closed
    elif b.hi is None:
        hi, hi_closed = a.hi, a.hi_closed
    elif a.hi < b.hi or (a.hi == b.hi and not a.hi_closed):
        hi, hi_closed = a.hi, a.hi_closed
    else:
        hi, hi_closed = b.hi, b.hi_closed
    return Interval(lo, hi, lo_closed, hi_closed)


ZERO = Rational(0)
NONNEGATIVE = Interval(ZERO, None)
ZERO_DELAY = Interval(ZERO, ZERO)


def _narrow(current: Interval, constraint: RectConstraint, valuation: Valuation, flow: Mapping[str, Rational],
            cleared: FrozenSet[str] = frozenset()) -> Optional[Interval]:
    """The delays t in ``current`` (nonnegative) after which the
    constraint holds, the ``cleared`` variables being reset to 0 at t;
    None when empty.  A variable moves as ``value + rate*t``."""
    if constraint.unsat:
        return None
    for atom in constraint.atoms:
        value, rate = valuation[atom.var], flow[atom.var]
        if atom.var in cleared or rate == 0:  # constant over the delay
            if atom.holds(ZERO if atom.var in cleared else value):
                continue
            return None
        crossing = (Rational(atom.bound) - value) / rate
        # rate > 0: the variable grows through the bound (all gadget flows are >= 0)
        if atom.rel in ("<", "<="):
            piece = Interval(ZERO, crossing, True, atom.rel == "<=")
        elif atom.rel == "=":
            piece = Interval(crossing, crossing)
        else:
            piece = Interval(crossing, None, atom.rel == ">=", True)
        current = _intersect(current, piece)
        if current.is_empty():
            return None
    return current


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


@dataclass
class RhaComponent(RsmComponent):
    """An RSM component whose boxes pass variable sets by value and whose
    transitions and locations carry guards, resets, invariants and flows."""

    pass_by_value: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    guards: Dict[Tuple[Location, str], RectConstraint] = field(default_factory=dict)
    invariants: Dict[Location, RectConstraint] = field(default_factory=dict)
    resets: Dict[Tuple[Location, str], FrozenSet[str]] = field(default_factory=dict)
    flows: Dict[Location, Dict[str, Rational]] = field(default_factory=dict)

    def guard(self, loc: Location, action: str) -> RectConstraint:
        return self.guards.get((loc, action), TRUE)

    def invariant(self, loc: Location) -> RectConstraint:
        return self.invariants.get(loc, TRUE)

    def reset_set(self, loc: Location, action: str) -> FrozenSet[str]:
        return self.resets.get((loc, action), frozenset())


class RhaModel(RsmModel):
    """A variable set plus components; structurally an RSM whose
    locations carry invariants, flows, guards, and resets."""

    def __init__(self, variables: Iterable[str], components: Iterable[RhaComponent]):
        super().__init__(components)
        self.variables: Tuple[str, ...] = tuple(variables)
        # Shared by every location without a declared flow; callers only read it.
        self._unit_flow: Dict[str, Rational] = {x: Rational(1) for x in self.variables}

    def flow_at(self, loc: Location) -> Dict[str, Rational]:
        return self.component_of_location(loc).flows.get(loc, self._unit_flow)

    def pass_set(self, box: str) -> FrozenSet[str]:
        return self.component_of_box(box).pass_by_value.get(box, frozenset())


def validate_rha(model: RhaModel) -> List[str]:
    """Structural RSM checks plus hybrid-specific ones (pass sets,
    flow totality and nonnegativity, guard/invariant variables and
    relations)."""
    errors = validate(model)
    varset = set(model.variables)
    for comp in model.components:
        for b, passed in comp.pass_by_value.items():
            if b not in comp.boxes:
                errors.append(f"{comp.name}: pass-by-value for unknown box {b}")
            if not set(passed) <= varset:
                errors.append(f"{comp.name}: box {b} passes unknown variables {sorted(set(passed) - varset)}")
        for loc, flow in comp.flows.items():
            if set(flow) != varset:
                errors.append(f"{comp.name}: flow at {loc} is not total on the variable set")
            for x, r in flow.items():
                if r < 0:
                    errors.append(f"{comp.name}: negative flow {x}={r} at {loc}")
        for constraint in list(comp.invariants.values()) + list(comp.guards.values()):
            for atom in constraint.atoms:
                if atom.var not in varset:
                    errors.append(f"{comp.name}: constraint on unknown variable {atom.var}")
                if atom.rel not in RELATIONS:
                    errors.append(f"{comp.name}: unknown relation {atom.rel!r} in a constraint on {atom.var}")
        for (src, action), cleared in comp.resets.items():
            if not set(cleared) <= varset:
                errors.append(f"{comp.name}: reset of unknown variables {sorted(set(cleared) - varset)} on {action} at {src}")
    return errors


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def is_glitch_free(model: RhaModel) -> bool:
    """True iff every box passes either all variables by value or none."""
    varset = frozenset(model.variables)
    for comp in model.components:
        for b in comp.boxes:
            passed = comp.pass_by_value.get(b, frozenset())
            if passed and frozenset(passed) != varset:
                return False
    return True


def is_hierarchical(model: RhaModel) -> bool:
    """True iff the component call graph admits a strict topological order."""
    return callee_first_order(model) is not None


def classify(model: RhaModel) -> Tuple[str, Dict[str, str]]:
    """Classify the automaton as timed / stopwatch / general, along with
    a per-variable tag: a clock has rate 1 everywhere, a stopwatch rate
    0 or 1 everywhere."""
    flows = [model.flow_at(loc) for loc in model.all_locations()]
    tags: Dict[str, str] = {}
    for x in model.variables:
        rates = {flow[x] for flow in flows}
        if rates <= {Rational(1)}:
            tags[x] = "clock"
        elif rates <= {Rational(0), Rational(1)}:
            tags[x] = "stopwatch"
        else:
            tags[x] = "general"
    if all(tag == "clock" for tag in tags.values()):
        kind = "timed"
    elif all(tag in ("clock", "stopwatch") for tag in tags.values()):
        kind = "stopwatch"
    else:
        kind = "general"
    return kind, tags


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimedAction:
    delay: Rational
    action: str


@dataclass(frozen=True)
class RhaConfiguration:
    """Stack of (box, valuation-at-call) frames, current location, valuation."""

    context: Tuple[Tuple[str, Tuple[Rational, ...]], ...]
    location: Location
    valuation: Valuation

    def depth(self) -> int:
        return len(self.context)


def config_key(config: RhaConfiguration):
    """A hashable key for visited-set bookkeeping in searches."""
    return (config.context, config.location, tuple(sorted(config.valuation.items())))


def initial_rha_config(model: RhaModel, start_node: str, valuation: Valuation) -> RhaConfiguration:
    loc = node(start_node)
    comp = model.component_of_location(loc)
    if not comp.invariant(loc).holds(valuation):
        raise ModelError(f"initial valuation violates the invariant at {loc}")
    return RhaConfiguration((), loc, dict(valuation))


def _frame_move(model: RhaModel, config: RhaConfiguration, effect: int):
    """The context and valuation after a push (``effect`` PUSH) or pop
    (POP) at ``config``: a push saves the valuation in a new frame, a pop
    restores the box's by-value variables from the innermost frame."""
    if effect == PUSH:
        frame = (config.location.box, tuple(config.valuation[x] for x in model.variables))
        return config.context + (frame,), dict(config.valuation)
    box, saved = config.context[-1]
    return config.context[:-1], restore(config.valuation, model.pass_set(box), dict(zip(model.variables, saved)))


def _move_target(model: RhaModel, config: RhaConfiguration, action: str, error: type = ModelError):
    """The RSM step of ``action`` at ``config``: (target, stack effect)."""
    return move_target(model, config.location, action, config.context[-1][0] if config.context else None, error)


def enabled_delays(model: RhaModel, config: RhaConfiguration, action: str) -> Optional[Interval]:
    """The interval of delays t after which ``action`` can fire, or None
    when there is none: the invariant must hold along [0, t] (endpoints
    suffice: constant flows, convex invariant), the guard at t, and the
    target's invariant after the move.  On a local move reset variables
    are 0 and the others have moved at the source flow, so the set stays
    one interval.  Push/pop moves admit exactly delay 0, and only when
    the target invariant holds for the pushed or restored valuation."""
    try:
        target, effect = _move_target(model, config, action)
    except ModelError:
        return None
    target_inv = model.component_of_location(target).invariant(target)
    if effect != LOCAL:
        return ZERO_DELAY if target_inv.holds(_frame_move(model, config, effect)[1]) else None
    loc, valuation = config.location, config.valuation
    comp = model.component_of_location(loc)
    flow = model.flow_at(loc)
    inv = _narrow(NONNEGATIVE, comp.invariant(loc), valuation, flow)
    # By convexity the invariant holds along [0, t] iff t is in its
    # interval and that interval starts at 0.
    if inv is None or not inv.contains(ZERO):
        return None
    joint = _narrow(inv, comp.guard(loc, action), valuation, flow)
    return None if joint is None else _narrow(joint, target_inv, valuation, flow, comp.reset_set(loc, action))


def available_moves(model: RhaModel, config: RhaConfiguration) -> List[Tuple[str, Interval]]:
    """The RSM's available actions with nonempty delay intervals at a
    configuration, in definition order."""
    out = []
    for action in available_actions(model, config):
        delays = enabled_delays(model, config, action)
        if delays is not None:
            out.append((action, delays))
    return out


def timed_step(model: RhaModel, config: RhaConfiguration, move: TimedAction) -> RhaConfiguration:
    """Apply one timed move: the RSM step of its action plus its delay.
    Raises ``MoveError`` when the move is not legal: action not available
    (pop at empty context included), nonzero delay on push/pop, invariant
    violated along the delay, guard unsatisfied at the chosen delay, or
    the target's invariant rejecting the valuation after the move."""
    loc = config.location
    valuation = config.valuation
    if move.delay < 0:
        raise MoveError(f"negative delay {move.delay} at {loc}")
    target, effect = _move_target(model, config, move.action, MoveError)
    if effect != LOCAL:
        if move.delay != 0:
            raise MoveError(f"{'call' if effect == PUSH else 'return'} at {loc} must take zero time")
        context, resulting = _frame_move(model, config, effect)
    else:
        comp = model.component_of_location(loc)
        after = advance(valuation, model.flow_at(loc), move.delay)
        inv = comp.invariant(loc)
        if not (inv.holds(valuation) and inv.holds(after)):
            culprit = next(
                (a for a in inv.atoms if not (a.holds(valuation[a.var]) and a.holds(after[a.var]))),
                None,
            )
            bound = f" (first violated bound: {culprit.var} {culprit.rel} {culprit.bound})" if culprit else ""
            raise MoveError(f"delay {move.delay} violates the invariant at {loc}{bound}")
        if not comp.guard(loc, move.action).holds(after):
            raise MoveError(f"guard of {move.action!r} unsatisfied after delay {move.delay} at {loc}")
        context, resulting = config.context, reset(after, comp.reset_set(loc, move.action))
    if not model.component_of_location(target).invariant(target).holds(resulting):
        raise MoveError(f"invariant at {target} rejects the post-move valuation")
    return RhaConfiguration(context, target, resulting)


@dataclass(frozen=True)
class TimedRun:
    """Alternating configurations and timed moves; duration is the delay sum."""

    configs: Tuple[RhaConfiguration, ...]
    moves: Tuple[TimedAction, ...] = ()

    def __post_init__(self):
        if len(self.configs) != len(self.moves) + 1:
            raise ModelError("timed run must have one more configuration than moves")

    def last(self) -> RhaConfiguration:
        return self.configs[-1]

    def __len__(self) -> int:
        return len(self.moves)


def run_duration(run: TimedRun) -> Rational:
    """Total time elapsed along the run."""
    return sum((m.delay for m in run.moves), Rational(0))


# ---------------------------------------------------------------------------
# JSON model format (extends the RSM schema)
# ---------------------------------------------------------------------------


def constraint_to_json(constraint: RectConstraint):
    if constraint.unsat:
        return "false"
    return [{"var": a.var, "rel": a.rel, "bound": a.bound} for a in constraint.atoms]


def constraint_from_json(data) -> RectConstraint:
    if data == "false":
        return FALSE
    atoms = tuple(Atom(a["var"], a["rel"], int(a["bound"])) for a in data)
    for atom in atoms:
        if atom.rel not in RELATIONS:
            raise ParseError(f"unknown relation {atom.rel!r}; expected one of {RELATIONS}")
    return RectConstraint(atoms)


def rha_component_to_json(comp: RhaComponent) -> dict:
    data = component_to_json(comp)
    for box in data["boxes"]:
        box["passByValue"] = sorted(comp.pass_by_value.get(box["name"], frozenset()))
    for record, (src, action) in zip(data["transitions"], comp.transitions):
        record["guard"] = constraint_to_json(comp.guard(src, action))
        record["resets"] = sorted(comp.reset_set(src, action))
    data["invariants"] = {str(loc): constraint_to_json(c) for loc, c in comp.invariants.items()}
    data["flows"] = {
        str(loc): {x: fmt(r) for x, r in flow.items()} for loc, flow in comp.flows.items()
    }
    return data


def rha_component_from_json(data: dict) -> RhaComponent:
    # Parse the RSM fields once, then add the hybrid annotations to them.
    comp = RhaComponent(**vars(component_from_json(data)))
    try:
        for b in data.get("boxes", []):
            comp.pass_by_value[b["name"]] = frozenset(b.get("passByValue", []))
        for t in data.get("transitions", []):
            key = (parse_location(t["from"]), t["action"])
            guard = constraint_from_json(t.get("guard", []))
            if guard != TRUE:
                comp.guards[key] = guard
            resets = frozenset(t.get("resets", []))
            if resets:
                comp.resets[key] = resets
        for loc_text, c in data.get("invariants", {}).items():
            comp.invariants[parse_location(loc_text)] = constraint_from_json(c)
        for loc_text, flow in data.get("flows", {}).items():
            comp.flows[parse_location(loc_text)] = {x: rat(r) for x, r in flow.items()}
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad component record: {exc}") from exc
    return comp


def rha_model_to_json(
    model: RhaModel,
    start: str = None,
    partition: Dict[Location, Player] = None,
    finals: Iterable[Location] = None,
) -> dict:
    data = {
        "variables": list(model.variables),
        "components": [rha_component_to_json(c) for c in model.components],
    }
    return game_to_json(data, start, partition, finals)


def rha_model_from_json(data: dict):
    """Parse the extended schema; returns (model, start, partition, finals)."""
    try:
        model = RhaModel(
            tuple(data["variables"]),
            [rha_component_from_json(c) for c in data["components"]],
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad model record: {exc}") from exc
    start, partition, finals = game_from_json(data)
    return model, start, partition, finals
