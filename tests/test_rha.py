"""Hybrid automata: classification, timed steps, delays, durations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixtures import one_clock_rta
from rhagames.arith import fmt, make_valuation
from rhagames.errors import MoveError
from rhagames.rha import (
    CALL_ACTION,
    RELATIONS,
    RET_ACTION,
    RhaComponent,
    RhaConfiguration,
    RhaModel,
    TimedAction,
    TimedRun,
    available_moves,
    classify,
    conj,
    enabled_delays,
    is_glitch_free,
    is_hierarchical,
    rha_model_from_json,
    rha_model_to_json,
    run_duration,
    timed_step,
    validate_rha,
)
from rhagames.rsm import call, node, ret


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


# -- enabled delays ----------------------------------------------------------------


def test_enabled_delays_top_guard_and_invariant():
    model = two_var_model()
    config = RhaConfiguration((), node("wm"), make_valuation(("x", "y"), {}))
    [ivl] = enabled_delays(model, config, "w_out")
    assert (ivl.lo, ivl.hi) == (Fraction(0), None)


def test_enabled_delays_point_guard():
    model = two_var_model(guards={("W", "wm", "w_out"): conj(("x", "=", 1))})
    config = RhaConfiguration((), node("wm"), make_valuation(("x", "y"), {}))
    [ivl] = enabled_delays(model, config, "w_out")
    assert ivl.is_point() and ivl.lo == Fraction(1)


def test_enabled_delays_stopped_variable_empty():
    model = two_var_model(
        flows={"wm": {"x": 0, "y": 1}},
        guards={("W", "wm", "w_out"): conj(("x", "=", 1))},
    )
    config = RhaConfiguration((), node("wm"), make_valuation(("x", "y"), {}))
    assert enabled_delays(model, config, "w_out") == []


def test_enabled_delays_sampling_agrees_with_direct_evaluation():
    rng = random.Random(7)
    model = two_var_model(
        invariants={("W", "wm"): conj(("y", "<=", 3))},
        guards={("W", "wm", "w_out"): conj(("x", ">=", 1), ("x", "<", 2))},
    )
    config = RhaConfiguration(
        (), node("wm"), make_valuation(("x", "y"), {"x": "1/4", "y": "1/2"})
    )
    intervals = enabled_delays(model, config, "w_out")
    comp = model.by_name["W"]
    flow = model.flow_at(node("wm"))
    for _ in range(100):
        t = Fraction(rng.randint(0, 400), 100)
        inside = any(ivl.contains(t) for ivl in intervals)
        v_t = {k: v + flow[k] * t for k, v in config.valuation.items()}
        direct = (
            comp.invariant(node("wm")).holds(v_t)
            and comp.guard(node("wm"), "w_out").holds(v_t)
        )
        assert inside == direct, t


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


@st.composite
def rha_documents(draw):
    """A canonical RHA model document: rerunning the codec must give it
    back unchanged.  One label sits on two transitions with different
    resets; guards and invariants may be "false"; flows are rational."""
    variables = draw(st.lists(st.sampled_from(("x", "y", "z", "u")), min_size=1, unique=True))
    subsets = st.lists(st.sampled_from(variables), unique=True).map(sorted)
    atom = st.fixed_dictionaries(
        {"var": st.sampled_from(variables), "rel": st.sampled_from(RELATIONS), "bound": st.integers(0, 5)}
    )
    constraint = st.one_of(st.just("false"), st.lists(atom, max_size=2))
    rate = st.fractions(min_value=0, max_value=3, max_denominator=6).map(fmt)
    nodes = [[f"c{i}n{j}" for j in range(draw(st.integers(2, 4)))] for i in range(draw(st.integers(1, 3)))]
    components, locations = [], []
    for i, own in enumerate(nodes):
        boxes = [
            {"name": f"c{i}b{k}", "callee": f"C{callee}", "passByValue": draw(subsets)}
            for k, callee in enumerate(draw(st.lists(st.integers(0, len(nodes) - 1), max_size=2)))
        ]
        locs = [f"node:{n}" for n in own]
        for box in boxes:
            callee_nodes = nodes[int(box["callee"][1:])]
            locs += [f"call:{box['name']}:{callee_nodes[0]}", f"ret:{box['name']}:{callee_nodes[-1]}"]
        first_resets = draw(subsets)
        shared = [(locs[0], first_resets), (locs[1], draw(subsets.filter(lambda r: r != first_resets)))]
        others = [(src, draw(subsets)) for src in draw(st.lists(st.sampled_from(locs), max_size=3))]
        transitions = [
            {"from": src, "action": action, "to": draw(st.sampled_from(locs)),
             "guard": draw(constraint), "resets": resets}
            for action, (src, resets) in [("go", t) for t in shared] + [(f"a{k}", t) for k, t in enumerate(others)]
        ]
        components.append({
            "name": f"C{i}",
            "nodes": own,
            "entries": own[:1],
            "exits": own[-1:],
            "boxes": boxes,
            "transitions": transitions,
            "invariants": {loc: draw(constraint) for loc in draw(st.lists(st.sampled_from(locs), unique=True))},
            "flows": {
                loc: {x: draw(rate) for x in variables}
                for loc in draw(st.lists(st.sampled_from(locs), unique=True))
            },
        })
        locations += locs
    achilles = draw(st.lists(st.sampled_from(locations), unique=True))
    return {
        "variables": variables,
        "components": components,
        "start": nodes[0][0],
        "partition": {
            "achilles": sorted(achilles),
            "tortoise": sorted(loc for loc in locations if loc not in achilles),
        },
        "finals": sorted(draw(st.lists(st.sampled_from(locations), unique=True))),
    }


@given(rha_documents())
def test_rha_json_round_trip_of_random_documents(data):
    model, start, partition, finals = rha_model_from_json(data)
    assert rha_model_to_json(model, start, partition, finals) == data
