"""Hybrid automata: classification, timed steps, delays, durations."""

import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fixtures import one_clock_rta
from generators import rha_documents
from rhagames.arith import make_valuation
from rhagames.errors import MoveError, ParseError
from rhagames.games import Player
from rhagames.rha import (
    CALL_ACTION,
    RET_ACTION,
    Interval,
    RhaComponent,
    RhaConfiguration,
    RhaModel,
    TimedAction,
    TimedRun,
    available_moves,
    classify,
    config_key,
    conj,
    enabled_delays,
    initial_rha_config,
    is_glitch_free,
    is_hierarchical,
    rha_model_from_json,
    rha_model_to_json,
    run_duration,
    timed_step,
    validate_rha,
)
from rhagames.rsm import available_actions, call, node, ret


def two_var_model(flows=None, pass_sets=None, invariants=None, guards=None, resets=None):
    """A small host/worker pair over variables (x, y) for direct stepping."""
    worker = RhaComponent(
        name="W",
        nodes=("we", "wm", "wx"),
        entries=("we",),
        exits=("wx",),
        boxes={},
    )
    worker.transitions = {
        (node("we"), "w_go"): node("wm"),
        (node("wm"), "w_out"): node("wx"),
    }
    host = RhaComponent(
        name="H",
        nodes=("he", "hx"),
        entries=("he",),
        exits=("hx",),
        boxes={"wb": "W"},
        pass_by_value={"wb": frozenset((pass_sets or ()))},
    )
    host.transitions = {
        (node("he"), "h_call"): call("wb", "we"),
        (ret("wb", "wx"), "h_done"): node("hx"),
    }
    model = RhaModel(("x", "y"), [host, worker])
    for comp, table in (("W", flows or {}),):
        for loc_name, flow in table.items():
            model.by_name[comp].flows[node(loc_name)] = {
                k: Fraction(v) for k, v in flow.items()
            }
    for (comp, loc_name), inv in (invariants or {}).items():
        model.by_name[comp].invariants[node(loc_name)] = inv
    for (comp, loc_name, action), g in (guards or {}).items():
        model.by_name[comp].guards[(node(loc_name), action)] = g
    for (comp, loc_name, action), rs in (resets or {}).items():
        model.by_name[comp].resets[(node(loc_name), action)] = frozenset(rs)
    assert validate_rha(model) == []
    return model


# -- classification ------------------------------------------------------------


def test_glitch_free_cases():
    model = two_var_model(pass_sets=())
    assert is_glitch_free(model) is True  # nothing passed by value
    model_all = two_var_model(pass_sets=("x", "y"))
    assert is_glitch_free(model_all) is True
    model_half = two_var_model(pass_sets=("x",))
    assert is_glitch_free(model_half) is False


def test_one_clock_model_is_glitch_free_only_without_second_variable():
    assert is_glitch_free(one_clock_rta()) is True  # P(a1) = {x} = whole set
    assert is_glitch_free(one_clock_rta(extra_variable=True)) is False


def test_box_free_model_is_vacuously_glitch_free():
    lone = RhaComponent("L", ("n",), ("n",), (), {})
    assert is_glitch_free(RhaModel(("x",), [lone])) is True


def test_hierarchy_detection():
    assert is_hierarchical(one_clock_rta()) is False  # T2 calls itself
    assert is_hierarchical(two_var_model()) is True  # acyclic chain
    lone = RhaComponent("L", ("n",), ("n",), (), {})
    assert is_hierarchical(RhaModel(("x",), [lone])) is True


def test_classification_tags():
    timed = two_var_model()
    assert classify(timed) == ("timed", {"x": "clock", "y": "clock"})
    stopw = two_var_model(flows={"wm": {"x": 0, "y": 1}})
    kind, tags = classify(stopw)
    assert kind == "stopwatch" and tags == {"x": "stopwatch", "y": "clock"}
    fast = two_var_model(flows={"wm": {"x": 2, "y": 1}})
    kind, tags = classify(fast)
    assert kind == "general" and tags["x"] == "general"


# -- timed steps -----------------------------------------------------------------


def test_call_pushes_frame_and_keeps_valuation():
    model = two_var_model(pass_sets=("x",))
    v = make_valuation(("x", "y"), {"x": "1/2", "y": "1/3"})
    config = RhaConfiguration((), call("wb", "we"), v)
    nxt = timed_step(model, config, TimedAction(Fraction(0), CALL_ACTION))
    assert nxt.location == node("we")
    assert nxt.valuation == v
    assert nxt.context[0][0] == "wb"


def test_call_with_nonzero_delay_rejected():
    model = two_var_model()
    config = RhaConfiguration((), call("wb", "we"), make_valuation(("x", "y"), {}))
    with pytest.raises(MoveError, match="zero time"):
        timed_step(model, config, TimedAction(Fraction(1), CALL_ACTION))


def test_return_restores_pass_by_value_variables():
    model = two_var_model(pass_sets=("x",))
    saved = (Fraction(1), Fraction(5))  # x=1, y=5 at call time
    config = RhaConfiguration(
        (("wb", saved),), node("wx"), make_valuation(("x", "y"), {"x": 0, "y": 9})
    )
    nxt = timed_step(model, config, TimedAction(Fraction(0), RET_ACTION))
    assert nxt.location == ret("wb", "wx")
    assert nxt.valuation == {"x": Fraction(1), "y": Fraction(9)}  # x restored, y by reference
    assert nxt.context == ()


def test_return_at_empty_context_is_terminal():
    model = two_var_model()
    config = RhaConfiguration((), node("hx"), make_valuation(("x", "y"), {}))
    with pytest.raises(MoveError, match="terminal"):
        timed_step(model, config, TimedAction(Fraction(0), RET_ACTION))
    assert available_moves(model, config) == []


def test_internal_step_reset_dominates_flow():
    model = two_var_model(
        guards={("W", "wm", "w_out"): conj(("x", "<", 1))},
        resets={("W", "wm", "w_out"): ("x",)},
    )
    config = RhaConfiguration((), node("wm"), make_valuation(("x", "y"), {}))
    nxt = timed_step(model, config, TimedAction(Fraction(1, 2), "w_out"))
    assert nxt.valuation == {"x": Fraction(0), "y": Fraction(1, 2)}


def test_invariant_checked_along_delay():
    model = two_var_model(invariants={("W", "wm"): conj(("x", "<=", 1))})
    config = RhaConfiguration((), node("wm"), make_valuation(("x", "y"), {}))
    with pytest.raises(MoveError, match=r"first violated bound: x <= 1"):
        timed_step(model, config, TimedAction(Fraction(2), "w_out"))


def test_guard_checked_at_endpoint():
    model = two_var_model(guards={("W", "wm", "w_out"): conj(("x", "=", 1))})
    config = RhaConfiguration((), node("wm"), make_valuation(("x", "y"), {}))
    with pytest.raises(MoveError, match="guard"):
        timed_step(model, config, TimedAction(Fraction(1, 3), "w_out"))
    ok = timed_step(model, config, TimedAction(Fraction(1), "w_out"))
    assert ok.valuation["x"] == Fraction(1)


def test_unknown_relation_fails_validation():
    # enabled_delays would offer (1, inf) for this guard while timed_step
    # rejects the move, so validation must reject the model first
    model = two_var_model()
    model.by_name["W"].guards[(node("wm"), "w_out")] = conj(("x", "~", 1))
    assert validate_rha(model) == ["W: unknown relation '~' in a constraint on x"]
    model.by_name["W"].guards.clear()
    model.by_name["W"].invariants[node("wm")] = conj(("y", "==", 0))
    assert validate_rha(model) == ["W: unknown relation '==' in a constraint on y"]


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda m: m.by_name["H"].pass_by_value.update(ghost=frozenset()), "H: pass-by-value for unknown box ghost"),
        (lambda m: m.by_name["H"].pass_by_value.update(wb=frozenset({"q"})), "H: box wb passes unknown variables ['q']"),
        (lambda m: m.by_name["W"].flows.update({node("wm"): {"x": Fraction(1)}}),
         "W: flow at node:wm is not total on the variable set"),
        (lambda m: m.by_name["W"].flows.update({node("wm"): {"x": Fraction(-1), "y": Fraction(1)}}),
         "W: negative flow x=-1 at node:wm"),
        (lambda m: m.by_name["W"].guards.update({(node("wm"), "w_out"): conj(("q", "<=", 1))}),
         "W: constraint on unknown variable q"),
        (lambda m: m.by_name["W"].resets.update({(node("we"), "w_go"): frozenset({"q"})}),
         "W: reset of unknown variables ['q'] on w_go at node:we"),
    ],
    ids=["unknown-box", "unknown-passed-variable", "partial-flow", "negative-flow", "unknown-constraint-variable",
         "unknown-reset-variable"],
)
def test_validate_rha_names_the_offending_item(edit, named):
    model = two_var_model()
    edit(model)
    assert validate_rha(model) == [named]


# -- enabled delays ----------------------------------------------------------------


def test_enabled_delays_top_guard_and_invariant():
    model = two_var_model()
    config = RhaConfiguration((), node("wm"), make_valuation(("x", "y"), {}))
    ivl = enabled_delays(model, config, "w_out")
    assert (ivl.lo, ivl.hi) == (Fraction(0), None)


def test_enabled_delays_point_guard():
    model = two_var_model(guards={("W", "wm", "w_out"): conj(("x", "=", 1))})
    config = RhaConfiguration((), node("wm"), make_valuation(("x", "y"), {}))
    ivl = enabled_delays(model, config, "w_out")
    assert (ivl.lo, ivl.hi, ivl.lo_closed, ivl.hi_closed) == (Fraction(1), Fraction(1), True, True)


def test_enabled_delays_stopped_variable_empty():
    model = two_var_model(
        flows={"wm": {"x": 0, "y": 1}},
        guards={("W", "wm", "w_out"): conj(("x", "=", 1))},
    )
    config = RhaConfiguration((), node("wm"), make_valuation(("x", "y"), {}))
    assert enabled_delays(model, config, "w_out") is None


def accepts(model, config, action, delay) -> bool:
    """Does ``timed_step`` take the move?"""
    try:
        timed_step(model, config, TimedAction(delay, action))
    except MoveError:
        return False
    return True


def test_enabled_delays_sampling_agrees_with_direct_evaluation():
    rng = random.Random(7)
    model = two_var_model(
        invariants={("W", "wm"): conj(("y", "<=", 3)), ("W", "wx"): conj(("y", ">=", 2))},
        guards={("W", "wm", "w_out"): conj(("x", ">=", 1), ("x", "<", 2))},
    )
    config = RhaConfiguration(
        (), node("wm"), make_valuation(("x", "y"), {"x": "1/4", "y": "1/2"})
    )
    ivl = enabled_delays(model, config, "w_out")
    assert ivl == Interval(Fraction(3, 2), Fraction(7, 4), True, False)
    for _ in range(100):
        t = Fraction(rng.randint(0, 400), 100)
        assert ivl.contains(t) == accepts(model, config, "w_out", t), t


def test_local_move_offers_only_delays_the_target_invariant_admits():
    # a --go--> b with x <= 1 at b: from x = 0 only delays up to 1 are legal
    comp = RhaComponent("C", ("a", "b"), ("a",), (), {})
    comp.transitions = {(node("a"), "go"): node("b")}
    comp.invariants = {node("b"): conj(("x", "<=", 1))}
    model = RhaModel(("x",), [comp])
    config = initial_rha_config(model, "a", {"x": Fraction(0)})
    assert available_moves(model, config) == [("go", Interval(Fraction(0), Fraction(1)))]
    assert timed_step(model, config, TimedAction(Fraction(1), "go")).valuation == {"x": Fraction(1)}
    with pytest.raises(MoveError, match="invariant at node:b"):
        timed_step(model, config, TimedAction(Fraction(2), "go"))
    # a reset variable is 0 at the target whatever the delay
    comp.resets = {(node("a"), "go"): frozenset({"x"})}
    assert available_moves(model, config) == [("go", Interval(Fraction(0), None))]
    assert accepts(model, config, "go", Fraction(2))


def test_push_and_pop_are_offered_only_when_the_target_invariant_holds():
    model = two_var_model(invariants={("W", "we"): conj(("x", "<=", 1))})
    at_port = RhaConfiguration((), call("wb", "we"), make_valuation(("x", "y"), {"x": 2}))
    assert available_moves(model, at_port) == []
    assert not accepts(model, at_port, CALL_ACTION, Fraction(0))
    at_port = RhaConfiguration((), call("wb", "we"), make_valuation(("x", "y"), {"x": 1}))
    assert available_moves(model, at_port) == [(CALL_ACTION, Interval(Fraction(0), Fraction(0)))]
    model.by_name["H"].invariants[ret("wb", "wx")] = conj(("y", "=", 0))
    at_exit = RhaConfiguration((("wb", (Fraction(0), Fraction(0))),), node("wx"), make_valuation(("x", "y"), {"y": 1}))
    assert available_moves(model, at_exit) == []
    assert not accepts(model, at_exit, RET_ACTION, Fraction(0))
    model.by_name["H"].pass_by_value["wb"] = frozenset({"y"})  # y comes back as 0
    assert available_moves(model, at_exit) == [(RET_ACTION, Interval(Fraction(0), Fraction(0)))]


def test_call_port_must_name_a_callee_entry():
    model = two_var_model()
    config = RhaConfiguration((), call("wb", "wm"), make_valuation(("x", "y"), {}))
    with pytest.raises(MoveError, match="does not name an entry of W"):
        timed_step(model, config, TimedAction(Fraction(0), CALL_ACTION))
    assert available_moves(model, config) == []


def _probes(ivl):
    """Delays to judge an offer by: 0, 1, 5/2 and, when an interval is
    offered, its endpoints, its midpoint and points just outside each end."""
    eps = Fraction(1, 1000)
    out = {Fraction(0), Fraction(1), Fraction(5, 2)}
    if ivl is not None:
        out |= {ivl.lo, ivl.lo - eps}
        if ivl.hi is None:
            out |= {ivl.lo + 1, ivl.lo + 5}
        else:
            out |= {ivl.hi, ivl.hi + eps, (ivl.lo + ivl.hi) / 2}
    return sorted(out)


def check_offers(model, config, seen=None):
    """Every action of the component, plus push and pop, is offered by
    ``available_moves`` at exactly the delays ``timed_step`` accepts.
    ``seen`` counts the judged pairs of a configuration and an action
    the RSM step has there, by kind and by whether it was offered."""
    offered = dict(available_moves(model, config))
    labels = sorted({a for (_src, a) in model.component_of_location(config.location).transitions})
    for action in labels + [CALL_ACTION, RET_ACTION]:
        ivl = offered.get(action)
        for t in _probes(ivl):
            assert (ivl is not None and ivl.contains(t)) == accepts(model, config, action, t), (action, t)
        if seen is not None and action in available_actions(model, config):
            kind = {CALL_ACTION: "push", RET_ACTION: "pop"}.get(action, "local")
            seen[kind, action in offered] = seen.get((kind, action in offered), 0) + 1


def judge_offers_from_start(data, draws, seen=None):
    """Judge the offers at the configurations a random playable model
    reaches within eight moves, breadth first and at most 40 of them,
    each offer taken at its first and last probe inside.  The search
    starts at the start node, or, so that pops are reached often, inside
    a pending call of a random box, at any node of its callee; the start
    valuation satisfies the start location's invariant."""
    model, start, _, _ = rha_model_from_json(data)
    assume(validate_rha(model) == [])
    value = st.fractions(0, 3, max_denominator=4)
    valuation = {x: draws.draw(value) for x in model.variables}
    context, loc = (), node(start)
    if draws.draw(st.booleans()):
        box, callee = draws.draw(st.sampled_from([item for comp in model.components for item in comp.boxes.items()]))
        context = ((box, tuple(draws.draw(value) for _ in model.variables)),)
        loc = node(draws.draw(st.sampled_from(model.by_name[callee].nodes)))
    assume(model.component_of_location(loc).invariant(loc).holds(valuation))
    start_config = RhaConfiguration(context, loc, valuation)
    frontier = deque([(start_config, 0)])
    visited = {config_key(frontier[0][0])}
    for _ in range(40):
        if not frontier:
            break
        config, depth = frontier.popleft()
        check_offers(model, config, seen)
        for action, ivl in available_moves(model, config) if depth < 8 else ():
            inside = [t for t in _probes(ivl) if ivl.contains(t)]
            for t in {inside[0], inside[-1]}:
                nxt = timed_step(model, config, TimedAction(t, action))
                if config_key(nxt) not in visited:
                    visited.add(config_key(nxt))
                    frontier.append((nxt, depth + 1))


@settings(max_examples=150, deadline=None)
@given(rha_documents(playable=True), st.data())
def test_available_moves_offer_exactly_what_timed_step_accepts(data, draws):
    judge_offers_from_start(data, draws)


# -- durations ------------------------------------------------------------------


def _dummy_config(model, loc_name):
    return RhaConfiguration((), node(loc_name), make_valuation(model.variables, {}))


def test_run_duration_cases():
    model = two_var_model()
    c = _dummy_config(model, "we")
    empty = TimedRun((c,))
    assert run_duration(empty) == 0
    run = TimedRun(
        (c, c, c),
        (TimedAction(Fraction(1, 2), "a"), TimedAction(Fraction(1, 3), "b")),
    )
    assert run_duration(run) == Fraction(5, 6)
    run2 = TimedRun((c, c), (TimedAction(Fraction(2, 3), "c"),))
    concat = TimedRun(run.configs + run2.configs[1:], run.moves + run2.moves)
    assert run_duration(concat) == run_duration(run) + run_duration(run2)


# -- pass-by-value round trips -----------------------------------------------------


def test_randomized_matched_call_return_round_trips():
    """Matched push/pop pairs restore by-value variables exactly and
    propagate by-reference variables exactly (seeded, 300 trials; the
    acceptance suite runs 1000)."""
    rng = random.Random(42)
    for trial in range(300):
        passed = tuple(sorted(rng.sample(("x", "y"), k=rng.randint(0, 2))))
        model = two_var_model(pass_sets=passed)
        v0 = {
            "x": Fraction(rng.randint(0, 40), rng.randint(1, 7)),
            "y": Fraction(rng.randint(0, 40), rng.randint(1, 7)),
        }
        config = RhaConfiguration((), call("wb", "we"), dict(v0))
        inside = timed_step(model, config, TimedAction(Fraction(0), CALL_ACTION))
        # wander inside the callee: advance time twice
        t1 = Fraction(rng.randint(0, 10), rng.randint(1, 5))
        t2 = Fraction(rng.randint(0, 10), rng.randint(1, 5))
        inside = timed_step(model, inside, TimedAction(t1, "w_go"))
        inside = timed_step(model, inside, TimedAction(t2, "w_out"))
        back = timed_step(model, inside, TimedAction(Fraction(0), RET_ACTION))
        for var in ("x", "y"):
            if var in passed:
                assert back.valuation[var] == v0[var], (trial, var)
            else:
                assert back.valuation[var] == v0[var] + t1 + t2, (trial, var)


# -- JSON -------------------------------------------------------------------------


def test_rha_json_round_trip():
    model = one_clock_rta()
    data = rha_model_to_json(model, start="p1")
    model2, start, _, _ = rha_model_from_json(data)
    assert start == "p1"
    assert rha_model_to_json(model2, start="p1") == data
    assert validate_rha(model2) == []


def test_rha_json_serializes_constraints_and_rationals():
    model = two_var_model(
        flows={"wm": {"x": 0, "y": 1}},
        guards={("W", "wm", "w_out"): conj(("y", ">=", 2))},
    )
    data = rha_model_to_json(model)
    wm_flows = [c for c in data["components"] if c["name"] == "W"][0]["flows"]["node:wm"]
    assert wm_flows == {"x": "0/1", "y": "1/1"}
    trans = [
        t
        for c in data["components"]
        if c["name"] == "W"
        for t in c["transitions"]
        if t["action"] == "w_out"
    ][0]
    assert trans["guard"] == [{"var": "y", "rel": ">=", "bound": 2}]


def test_resets_belong_to_one_transition_not_to_its_label():
    def transition(src, dst, resets):
        return {"from": src, "action": "go", "to": dst, "guard": [], "resets": resets}

    data = {
        "variables": ["x"],
        "components": [
            {
                "name": "C",
                "nodes": ["a", "b", "c"],
                "entries": ["a"],
                "exits": [],
                "boxes": [],
                "transitions": [
                    transition("node:a", "node:b", ["x"]),
                    transition("node:b", "node:c", []),
                ],
                "invariants": {},
                "flows": {},
            }
        ],
    }
    model, _, _, _ = rha_model_from_json(data)
    assert rha_model_to_json(model) == data
    config = RhaConfiguration((), node("b"), {"x": Fraction(1, 2)})
    after = timed_step(model, config, TimedAction(Fraction(0), "go"))
    assert after.valuation == {"x": Fraction(1, 2)}


def test_rha_reader_rejects_a_location_listed_for_both_players():
    data = rha_model_to_json(one_clock_rta(), start="p1", partition={node("p1"): Player.ACHILLES})
    data["partition"]["tortoise"] = ["node:p1"]
    with pytest.raises(ParseError, match="both achilles and tortoise: node:p1"):
        rha_model_from_json(data)


@given(rha_documents())
def test_rha_json_round_trip_of_random_documents(data):
    model, start, partition, finals = rha_model_from_json(data)
    assert rha_model_to_json(model, start, partition, finals) == data
