"""Recursive state machines: validation, semantics, reachability, games."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixtures import flat_game_arena_model, three_component_rsm
from generators import random_hierarchical_game, random_recursive_game, sized_recursive_game
from oracles import (
    bfs_reachable,
    bfs_terminates,
    oracle_reachability_winner,
    oracle_termination_winner,
    sandwich_reachability,
    sandwich_termination,
)
from rhagames.errors import ModelError
from rhagames.games import FiniteArena, Player, attractor
from rhagames.rsm import (
    CALL_ACTION,
    RET_ACTION,
    RsmComponent,
    RsmConfiguration,
    RsmModel,
    call,
    callee_first_order,
    model_from_json,
    model_to_json,
    node,
    parse_location,
    reachable,
    ret,
    rsm_step,
    solve_reachability_game,
    solve_termination_game,
    terminates,
    validate,
)

ACH, TOR = Player.ACHILLES, Player.TORTOISE


# -- validation --------------------------------------------------------------


def test_fixture_machine_is_well_formed():
    assert validate(three_component_rsm()) == []


def test_transition_out_of_exit_is_reported():
    comp = RsmComponent("C", ("n", "x"), ("n",), ("x",), {})
    comp.transitions[(node("x"), "a")] = node("n")
    errors = validate(RsmModel([comp]))
    assert any("exit node x" in e for e in errors)


def test_overlapping_entries_and_exits_reported():
    comp = RsmComponent("C", ("n",), ("n",), ("n",), {})
    errors = validate(RsmModel([comp]))
    assert any("entries and exits overlap" in e for e in errors)


def test_duplicate_node_names_across_components_reported():
    c1 = RsmComponent("C1", ("n",), ("n",), (), {})
    c2 = RsmComponent("C2", ("n",), ("n",), (), {})
    errors = validate(RsmModel([c1, c2]))
    assert any("reused across components" in e for e in errors)


def test_unknown_locations_reported_after_an_earlier_error():
    a = RsmComponent("A", ("n",), ("n",), ("n",), {})
    b = RsmComponent("B", ("m",), ("m",), (), {})
    b.transitions[(node("m"), "go")] = node("ghost")
    errors = validate(RsmModel([a, b]))
    assert any("A: entries and exits overlap" in e for e in errors)
    assert any("B: transition uses unknown location node:ghost" in e for e in errors)


def test_transition_labelled_with_a_pseudo_action_is_reported():
    comp = RsmComponent("C", ("n", "m"), ("n",), (), {})
    comp.transitions[(node("n"), CALL_ACTION)] = node("m")
    assert validate(RsmModel([comp])) == ["C: transition at node:n is labelled with the pseudo action 'call'"]


def _component(name, nodes, entries=None, boxes=None, transitions=None):
    comp = RsmComponent(name, nodes, entries or nodes[:1], (), boxes or {})
    comp.transitions.update(transitions or {})
    return comp


@pytest.mark.parametrize(
    "components, named",
    [
        ([_component("C", ("n",)), _component("C", ("m",))], "duplicate component names: ['C']"),
        ([_component("C", ("n",), entries=("ghost",))], "C: entry/exit ghost is not a node"),
        ([_component("C", ("n",), boxes={"b": "D"}), _component("D", ("m",), boxes={"b": "C"})],
         "D: box names reused across components: ['b']"),
        ([_component("C", ("n",), boxes={"b": "Nowhere"})], "C: box b calls unknown component Nowhere"),
        ([_component("C", ("n",), boxes={"b": "D"}, transitions={(call("b", "m"), "go"): node("n")}),
          _component("D", ("m",))], "C: call port call:b:m has an outgoing transition"),
    ],
    ids=["duplicate-component", "entry-not-a-node", "box-name-reused", "unknown-callee", "call-port-transition"],
)
def test_validate_names_the_offending_item(components, named):
    assert validate(RsmModel(components)) == [named]


# -- step semantics ----------------------------------------------------------


def test_step_call_port_pushes_box():
    model = three_component_rsm()
    config = RsmConfiguration((), call("b1", "v1"))
    nxt = rsm_step(model, config, CALL_ACTION)
    assert nxt == RsmConfiguration(("b1",), node("v1"))


def test_step_exit_pops_to_return_port():
    model = three_component_rsm()
    config = RsmConfiguration(("b1",), node("v3"))
    nxt = rsm_step(model, config, RET_ACTION)
    assert nxt == RsmConfiguration((), ret("b1", "v3"))


def test_step_internal_edge():
    model = three_component_rsm()
    config = RsmConfiguration((), node("u3"))
    nxt = rsm_step(model, config, "a4")
    assert nxt == RsmConfiguration((), node("u4"))


def test_step_exit_with_empty_context_is_terminal():
    model = three_component_rsm()
    with pytest.raises(ModelError, match="terminal"):
        rsm_step(model, RsmConfiguration((), node("u4")), RET_ACTION)


def test_step_undefined_action_is_no_move():
    model = three_component_rsm()
    with pytest.raises(ModelError, match="no transition"):
        rsm_step(model, RsmConfiguration((), node("u3")), "zzz")


@given(st.integers(0, 10**6))
def test_pop_is_inverse_of_push_on_matched_pairs(seed):
    rng = random.Random(seed)
    model = three_component_rsm()
    # pick any call port, push, walk to the matching exit artificially, pop
    comp = rng.choice(model.components)
    ports = [
        call(b, en)
        for b in comp.boxes
        for en in model.by_name[comp.boxes[b]].entries
    ]
    if not ports:
        return
    port = rng.choice(ports)
    before = RsmConfiguration((), port)
    pushed = rsm_step(model, before, CALL_ACTION)
    assert pushed.context == (port.box,)
    callee = model.callee_of_box(port.box)
    if not callee.exits:
        return
    at_exit = RsmConfiguration(pushed.context, node(rng.choice(callee.exits)))
    popped = rsm_step(model, at_exit, RET_ACTION)
    assert popped.context == before.context
    assert popped.location == ret(port.box, at_exit.location.name)


# -- reachability / termination ----------------------------------------------


def test_reachable_trivial_cases():
    model = three_component_rsm()
    assert reachable(model, "u1", [node("u1")]) is True  # final contains start
    single = RsmModel([RsmComponent("S", ("a", "b"), ("a",), (), {})])
    assert reachable(single, "a", [node("b")]) is False  # no path


def test_reachable_fixture_matches_bounded_bfs_oracle():
    model = three_component_rsm()
    for start in ("u1", "u2", "v1", "v2", "w1"):
        assert reachable(model, start, [node("u4")]) == bfs_reachable(
            model, start, [node("u4")], max_context=8
        )
    # frozen oracle values: the u1 entry recurses forever inside M2
    assert reachable(model, "u1", [node("u4")]) is False
    assert reachable(model, "u2", [node("u4")]) is True


def test_terminates_cases():
    model = three_component_rsm()
    assert terminates(model, "u4") is True  # already at an exit
    looping = RsmComponent("L", ("e", "x"), ("e",), ("x",), {"lb": "L"})
    looping.transitions[(node("e"), "go")] = call("lb", "e")
    assert terminates(RsmModel([looping]), "e") is False
    for start in ("u1", "u2", "v1", "v2", "w1"):
        assert terminates(model, start) == bfs_terminates(model, start, max_context=8)
    assert terminates(model, "u1") is False
    assert terminates(model, "u2") is True


def test_unknown_start_node_raises():
    with pytest.raises(ModelError):
        reachable(three_component_rsm(), "nope", [node("u4")])


# -- games --------------------------------------------------------------------


def test_box_free_game_equals_flat_attractor():
    model, partition = flat_game_arena_model()
    comp = model.components[0]
    finals = [node("goal")]
    winner, _ = solve_reachability_game(model, partition, "s0", finals)

    states = [node(n) for n in comp.nodes]
    transitions = [(src, a, dst) for (src, a), dst in comp.transitions.items()]
    arena = FiniteArena(states, transitions, {s: partition[s] for s in states})
    winning, _ = attractor(arena, [node("goal")])
    flat_winner = ACH if node("s0") in winning else TOR
    assert winner == flat_winner == ACH

    # Tortoise escapes from s1 only if it owns it; flip ownership and recheck
    partition2 = dict(partition)
    partition2[node("s2")] = TOR
    winner2, _ = solve_reachability_game(model, partition2, "s0", finals)
    arena2 = FiniteArena(states, transitions, {s: partition2[s] for s in states})
    winning2, _ = attractor(arena2, [node("goal")])
    assert winner2 == (ACH if node("s0") in winning2 else TOR)


def test_all_tortoise_unreachable_finals_gives_tortoise():
    comp = RsmComponent("C", ("a", "b", "goal"), ("a",), (), {})
    comp.transitions[(node("a"), "x")] = node("b")
    comp.transitions[(node("b"), "x2")] = node("a")
    model = RsmModel([comp])
    partition = {loc: TOR for loc in model.all_locations()}
    winner, _ = solve_reachability_game(model, partition, "a", [node("goal")])
    assert winner is TOR


def test_hierarchical_instance_matches_unfolding_oracle():
    callee = RsmComponent("B", ("e", "x1", "x2"), ("e",), ("x1", "x2"), {})
    callee.transitions[(node("e"), "l")] = node("x1")
    callee.transitions[(node("e"), "r")] = node("x2")
    caller = RsmComponent("A", ("s", "good"), ("s",), (), {"bb": "B"})
    caller.transitions[(node("s"), "go")] = call("bb", "e")
    caller.transitions[(ret("bb", "x1"), "w")] = node("good")
    caller.transitions[(ret("bb", "x2"), "back")] = call("bb", "e")
    model = RsmModel([caller, callee])
    finals = [node("good")]
    for owner_of_e in (ACH, TOR):
        partition = {loc: ACH for loc in model.all_locations()}
        partition[node("e")] = owner_of_e
        winner, _ = solve_reachability_game(model, partition, "s", finals)
        assert winner == oracle_reachability_winner(model, partition, "s", finals)
        # Tortoise steering inside the callee still cannot dodge both exits
        # forever: x2 loops back into the box, x1 wins, but Tortoise picks.
        assert winner == (ACH if owner_of_e is ACH else TOR)


def test_partial_partition_is_model_error():
    model, partition = flat_game_arena_model()
    partial = dict(partition)
    del partial[node("sink")]
    with pytest.raises(ModelError, match="not total"):
        solve_reachability_game(model, partial, "s0", [node("goal")])


def test_solvers_reject_locations_the_model_lacks():
    model, partition = flat_game_arena_model()
    with pytest.raises(ModelError, match=r"finals names locations the model lacks: \['node:gaol'\]"):
        reachable(model, "s0", [node("gaol")])
    with pytest.raises(ModelError, match=r"finals names locations the model lacks: \['node:gaol'\]"):
        solve_reachability_game(model, partition, "s0", [node("gaol")])
    stray = {**partition, node("gaol"): ACH}
    with pytest.raises(ModelError, match=r"partition names locations the model lacks: \['node:gaol'\]"):
        solve_reachability_game(model, stray, "s0", [node("goal")])
    with pytest.raises(ModelError, match=r"partition names locations the model lacks: \['node:gaol'\]"):
        solve_termination_game(model, stray, "s0")


def test_termination_game_shapes():
    model, partition = flat_game_arena_model()
    # no exits at all: Tortoise wins termination trivially
    winner, _ = solve_termination_game(model, partition, "s0")
    assert winner is TOR


def test_solver_agrees_with_oracle_on_seeded_instances():
    for seed in range(60):
        model, partition, start, finals = random_hierarchical_game(seed)
        w_reach, _ = solve_reachability_game(model, partition, start, finals)
        w_term, _ = solve_termination_game(model, partition, start)
        assert w_reach == oracle_reachability_winner(model, partition, start, finals), seed
        assert w_term == oracle_termination_winner(model, partition, start), seed


def test_solvers_lie_between_depth_bounded_unfoldings_of_recursive_games():
    depth, exact, recursive = 4, 0, 0
    for seed in range(200):
        model, partition, start, finals = random_recursive_game(seed)
        recursive += callee_first_order(model) is None
        everyone = {loc: ACH for loc in partition}
        checks = [
            (solve_reachability_game(model, partition, start, finals)[0] is ACH,
             sandwich_reachability(model, partition, start, finals, depth)),
            (solve_termination_game(model, partition, start)[0] is ACH,
             sandwich_termination(model, partition, start, depth)),
            (reachable(model, start, finals), sandwich_reachability(model, everyone, start, finals, depth)),
            (terminates(model, start), sandwich_termination(model, everyone, start, depth)),
        ]
        for query, (solved, (lower, upper)) in enumerate(checks):
            assert lower <= solved <= upper, (seed, query)
            exact += lower == upper
    # the bracket must decide most answers and the machines must recurse
    assert exact >= 600 and recursive >= 100, (exact, recursive)


def test_winning_allowances_are_upward_closed():
    for seed in (3, 11, 19):
        model, partition, start, finals = random_hierarchical_game(seed)
        _, table = solve_reachability_game(model, partition, start, finals)
        by_loc = {}
        for (loc, allowance), won in table.wins.items():
            by_loc.setdefault(loc, []).append((allowance, won))
        for loc, rows in by_loc.items():
            for e1, w1 in rows:
                for e2, w2 in rows:
                    if e1 <= e2 and w1:
                        assert w2, f"{loc}: {e1} wins but superset {e2} does not"


def test_worklist_pops_stay_within_the_predecessor_links():
    """A location's value grows at most once per allowance of its
    component, and only a growth re-queues the locations that read it,
    so pops <= n + the sum, over predecessor links p -> v, of v's
    allowance count.  Sweeping every location until nothing changes
    needs 18 and 7 sweeps of these 1 546 locations, beyond the bound."""
    model, partition, start, finals = sized_recursive_game(random.Random(1), 40, 24, 5)
    n = len(model.all_locations())
    allowances = {loc: 1 << len(comp.exits) for comp in model.components for loc in model.locations(comp)}
    read = [dst for comp in model.components for dst in comp.transitions.values()]
    for comp in model.components:
        for box, callee_name in comp.boxes.items():
            callee = model.by_name[callee_name]
            for en in callee.entries:  # a call port reads its callee entry and return ports
                read += [node(en)] + [ret(box, ex) for ex in callee.exits]
    bound = n + sum(allowances[loc] for loc in read)
    for _winner, table in (solve_reachability_game(model, partition, start, finals),
                           solve_termination_game(model, partition, start)):
        stats = table.stats
        assert stats["locations"] == n == 1546
        assert 0 < stats["pops"] <= bound < 7 * n
        assert stats["pops"] <= stats["evaluations"] <= 4 * stats["pops"]


def test_reachable_equals_all_achilles_game():
    model = three_component_rsm()
    partition = {loc: ACH for loc in model.all_locations()}
    for start in ("u1", "u2", "v2", "w1"):
        winner, _ = solve_reachability_game(model, partition, start, [node("u4")])
        assert (winner is ACH) == reachable(model, start, [node("u4")])


# -- edge cases of the solvers' location index -----------------------------------


def _agrees_with_oracles(model, start, finals, depth=4):
    """The solvers against bounded search (single player) and the
    depth-bounded sandwich (games), for the all-Achilles, all-Tortoise
    and eight seeded partitions; returns the two game winners under the
    all-Achilles and all-Tortoise partitions."""
    assert reachable(model, start, finals) == bfs_reachable(model, start, finals)
    assert terminates(model, start) == bfs_terminates(model, start)
    locations = model.all_locations()
    rng = random.Random(len(locations))
    partitions = [{loc: ACH for loc in locations}, {loc: TOR for loc in locations}]
    partitions += [{loc: rng.choice((ACH, TOR)) for loc in locations} for _ in range(8)]
    winners = []
    for partition in partitions:
        reach = solve_reachability_game(model, partition, start, finals)[0]
        term = solve_termination_game(model, partition, start)[0]
        for solved, (lower, upper) in (
            (reach is ACH, sandwich_reachability(model, partition, start, finals, depth)),
            (term is ACH, sandwich_termination(model, partition, start, depth)),
        ):
            assert lower <= solved <= upper
        winners.append((reach, term))
    return winners[:2]


def test_box_whose_callee_has_no_exits():
    sink = RsmComponent("B", ("e", "spin"), ("e",), (), {})
    sink.transitions[(node("e"), "l")] = node("spin")
    sink.transitions[(node("spin"), "k")] = node("e")
    main = RsmComponent("A", ("s", "t", "goal", "x"), ("s",), ("x",), {"b": "B"})
    main.transitions[(node("s"), "enter")] = call("b", "e")
    main.transitions[(node("s"), "skip")] = node("t")
    main.transitions[(node("t"), "win")] = node("goal")
    main.transitions[(node("t"), "leave")] = node("x")
    model = RsmModel([main, sink])
    assert validate(model) == []
    assert _agrees_with_oracles(model, "s", [node("goal")]) == [(ACH, ACH), (TOR, TOR)]
    assert reachable(model, "s", [node("spin")]) and not reachable(model, "e", [node("goal")])
    assert not terminates(model, "e")


def test_duplicate_transitions_into_one_target():
    comp = RsmComponent("C", ("a", "b", "goal", "x"), ("a",), ("x",), {})
    comp.transitions[(node("a"), "p")] = node("b")
    comp.transitions[(node("a"), "q")] = node("b")
    comp.transitions[(node("b"), "g")] = node("goal")
    comp.transitions[(node("b"), "h")] = node("a")
    comp.transitions[(node("goal"), "out")] = node("x")
    model = RsmModel([comp])
    assert _agrees_with_oracles(model, "a", [node("goal")]) == [(ACH, ACH), (TOR, TOR)]
    partition = {loc: TOR for loc in model.all_locations()}
    partition[node("b")] = ACH  # both of Tortoise's edges at a lead to b, where Achilles wins
    assert solve_reachability_game(model, partition, "a", [node("goal")])[0] is ACH


def test_self_recursive_component():
    rec = RsmComponent("R", ("e", "m", "goal", "x"), ("e",), ("x",), {"r": "R"})
    rec.transitions[(node("e"), "down")] = call("r", "e")
    rec.transitions[(node("e"), "up")] = node("x")
    rec.transitions[(ret("r", "x"), "back")] = node("m")
    rec.transitions[(node("m"), "out")] = node("x")
    rec.transitions[(node("m"), "win")] = node("goal")
    model = RsmModel([rec])
    assert callee_first_order(model) is None
    # all-Tortoise recurses forever (context grows without bound)
    assert _agrees_with_oracles(model, "e", [node("goal")]) == [(ACH, ACH), (TOR, TOR)]
    partition = {loc: TOR for loc in model.all_locations()}
    partition[node("e")] = ACH
    winner, table = solve_termination_game(model, partition, "e")
    assert winner is ACH and table.minimal_allowances[node("e")] == [frozenset({"x"})]  # by "up"
    assert table.minimal_allowances[node("m")] == []  # Tortoise moves to the dead end goal


def test_transitions_the_call_return_discipline_overrides_are_ignored():
    """Out of a call port, an exit, or a location of another component:
    ``validate`` reports them, and on the unvalidated model the solvers
    ignore them, as the step semantics does."""
    callee = RsmComponent("B", ("e", "y"), ("e",), ("y",), {})
    callee.transitions[(node("e"), "fin")] = node("y")
    main = RsmComponent("A", ("s", "goal", "x"), ("s",), ("x",), {"b": "B"})
    main.transitions[(node("s"), "go")] = call("b", "e")
    main.transitions[(call("b", "e"), "cheat")] = node("goal")
    main.transitions[(node("x"), "cheat")] = node("goal")
    main.transitions[(node("e"), "cheat")] = node("goal")
    main.transitions[(ret("b", "y"), "done")] = node("x")
    model = RsmModel([main, callee])
    errors = validate(model)
    assert any("call port call:b:e has an outgoing transition" in e for e in errors)
    assert any("exit node x has an outgoing transition" in e for e in errors)
    assert any("unknown location node:e" in e for e in errors)
    assert _agrees_with_oracles(model, "s", [node("goal")]) == [(TOR, ACH), (TOR, ACH)]
    assert not reachable(model, "s", [node("goal")]) and terminates(model, "s")


@pytest.mark.parametrize(
    "target, entry, message",
    [
        (node("ghost"), "e", "A: transition at node:s leads to node:ghost, which is not one of its locations"),
        (node("e"), "e", "A: transition at node:s leads to node:e, which is not one of its locations"),
        (node("s"), "ghost", "call:b:ghost does not name an entry of B"),
    ],
    ids=["unknown-target", "other-components-target", "entry-not-a-node"],
)
def test_solvers_reject_a_model_that_leaves_a_component(target, entry, message):
    """Unvalidated models the solvers cannot number: a transition into
    another component or nowhere, a callee entry that is not its node."""
    callee = RsmComponent("B", ("e",), (entry,), (), {})
    comp = RsmComponent("A", ("s",), ("s",), (), {"b": "B"})
    comp.transitions[(node("s"), "jump")] = target
    model = RsmModel([comp, callee])
    assert validate(model)
    with pytest.raises(ModelError, match=message):
        reachable(model, "s", [node("s")])
    with pytest.raises(ModelError, match=message):
        solve_termination_game(model, {loc: ACH for loc in model.all_locations()}, "s")


# -- JSON ----------------------------------------------------------------------


def test_json_round_trip_preserves_model_and_game_fields():
    model = three_component_rsm()
    partition = {loc: (ACH if str(loc).startswith("node") else TOR) for loc in model.all_locations()}
    data = model_to_json(model, start="u1", partition=partition, finals=[node("u4")])
    model2, start, partition2, finals2 = model_from_json(data)
    assert start == "u1"
    assert finals2 == frozenset([node("u4")])
    assert partition2 == partition
    assert model_to_json(model2, "u1", partition2, finals2) == data


@given(st.integers(0, 10**6))
def test_json_round_trip_of_random_games(seed):
    model, partition, start, finals = random_hierarchical_game(seed)
    data = model_to_json(model, start, partition, finals)
    model2, start2, partition2, finals2 = model_from_json(data)
    assert model2.components == model.components
    assert (start2, partition2, finals2) == (start, partition, finals)
    assert model_to_json(model2, start2, partition2, finals2) == data


def test_location_serialization():
    assert str(node("n1")) == "node:n1"
    assert str(call("b", "en")) == "call:b:en"
    assert str(ret("b", "ex")) == "ret:b:ex"
    for text in ("node:n1", "call:b:en", "ret:b:ex"):
        assert str(parse_location(text)) == text
