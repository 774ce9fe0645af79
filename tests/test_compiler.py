"""Gadget compiler contracts: dividers, instruction components, whole
arenas.  Expected values are the exact rational ledger formulas: a
divider entered with value v exits with v/n after exactly 2*v/n time;
its first check branch ends after t + n*(1-t) (three-clock target) or
t + n (four-stopwatch target), its second after 1 + t."""

import copy
from fractions import Fraction

import pytest

from machines import halting_corpus, nonhalting_corpus

from rhagames.compiler import (
    arena_from_json,
    arena_to_json,
    build_div,
    build_instruction,
    compile,
    expected_valuation,
    host_arena,
)
from rhagames.errors import CompileError, ParseError
from rhagames.games import Player
from rhagames.harness import (
    faithful_achilles,
    playout,
    reachable_final_bounded,
    tortoise_auditor,
    tortoise_skip_all,
)
from rhagames.rha import TimedAction, classify, is_glitch_free, is_hierarchical, validate_rha
from rhagames.rsm import node
from rhagames.tcm import Dec, Halt, Inc, TwoCounterMachine, ZeroCheck

TARGETS = ("rta3", "rsa4")


# -- helpers -------------------------------------------------------------------


def elapsed_until(trace, index):
    return sum((m.delay for m in trace.moves[:index]), Fraction(0))


def find_config(trace, predicate):
    for i, cfg in enumerate(trace.configs):
        if predicate(cfg):
            return i, cfg
    raise AssertionError("no matching configuration in trace")


def gadget_return(trace):
    return find_config(trace, lambda c: c.location.kind == "ret" and c.location.box == "Host.g")


def tortoise_challenger(arena, action_shorts):
    """Tortoise strategy taking the first decision whose action short-name
    is in ``action_shorts``; otherwise continue with delay 0."""
    skip = tortoise_skip_all(arena)
    fired = []

    def strategy(position):
        if not fired:
            for action, ivl in position.moves:
                short = action.rsplit(".", 1)[1]
                if short in action_shorts and ivl.contains(Fraction(0)):
                    fired.append(True)
                    return TimedAction(Fraction(0), action)
        return skip(position)

    return strategy


def asserting_achilles(arena, branch):
    """Faithful delays, but assert the given zero-check branch."""
    base = faithful_achilles(None, arena)

    def strategy(position):
        loc = position.config.location
        if loc.kind == "node" and loc.name.endswith(".br"):
            comp = loc.name.rsplit(".", 1)[0]
            return TimedAction(Fraction(0), f"{comp}.{'apos' if branch == 'pos' else 'azero'}")
        return base(position)

    return strategy


# -- expected_valuation ---------------------------------------------------------


def test_expected_valuation_empty_product():
    assert expected_valuation(0, 0, 0) == {"x": 1, "y": 1, "z": 0}


def test_expected_valuation_after_first_increment():
    assert expected_valuation(1, 1, 0) == {
        "x": Fraction(1, 12),
        "y": Fraction(1, 2),
        "z": 0,
    }


def test_expected_valuation_mixed_counters():
    # direct evaluation: 2^(2+1) * 3^(2+1) = 8 * 27 = 216
    assert expected_valuation(2, 1, 1) == {
        "x": Fraction(1, 216),
        "y": Fraction(1, 4),
        "z": 0,
    }


def test_divisor_algebra_matches_encoding_recurrences():
    for k in range(13):
        for c in (0, 1, 3):
            for d in (0, 2):
                base = expected_valuation(k, c, d)
                inc1 = expected_valuation(k + 1, c + 1, d)
                assert (inc1["x"], inc1["y"]) == (base["x"] / 12, base["y"] / 2)
                inc2 = expected_valuation(k + 1, c, d + 1)
                assert (inc2["x"], inc2["y"]) == (base["x"] / 18, base["y"] / 2)
                assert inc2["x"] == (base["x"] / 6) / 3  # realized as /6 then /3
                zc = expected_valuation(k + 1, c, d)
                assert (zc["x"], zc["y"]) == (base["x"] / 6, base["y"] / 2)
                if c > 0:
                    dec1 = expected_valuation(k + 1, c - 1, d)
                    assert (dec1["x"], dec1["y"]) == (base["x"] / 3, base["y"] / 2)
                if d > 0:
                    dec2 = expected_valuation(k + 1, c, d - 1)
                    assert (dec2["x"], dec2["y"]) == (base["x"] / 2, base["y"] / 2)


def test_expected_valuation_rejects_negative_parameters():
    with pytest.raises(CompileError):
        expected_valuation(1, -1, 0)


# -- divider contract ------------------------------------------------------------


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("operand", ("x", "y"))
@pytest.mark.parametrize("n", (2, 3, 6, 12))
@pytest.mark.parametrize("zeta", (Fraction(1), Fraction(1, 2), Fraction(1, 6)))
def test_divider_exit_value_and_elapsed(target, operand, n, zeta):
    bundle = build_div(operand, n, target)
    arena = host_arena(bundle, {operand: zeta})
    verdict = playout(
        arena, faithful_achilles(None, arena), tortoise_skip_all(arena), time_bound=None
    )
    assert verdict.outcome == "final" and verdict.location == node("Host.done")
    idx, back = gadget_return(verdict.trace)
    assert back.valuation[operand] == zeta / n
    assert back.valuation["z"] == 0
    assert elapsed_until(verdict.trace, idx) == 2 * zeta / n


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("n", (2, 3, 6, 12))
@pytest.mark.parametrize("zeta", (Fraction(1), Fraction(1, 2), Fraction(1, 6)))
def test_divider_first_check_ledger(target, n, zeta):
    bundle = build_div("y", n, target)
    arena = host_arena(bundle, {"y": zeta})
    verdict = playout(
        arena,
        faithful_achilles(None, arena),
        tortoise_challenger(arena, {"audit"}),
        time_bound=None,
    )
    assert verdict.outcome == "final"
    assert verdict.location.name.endswith(".pass")
    t = zeta / n
    expected = t + n * (1 - t) if target == "rta3" else t + n
    assert verdict.elapsed == expected


def test_div_y_2_first_check_is_two_minus_half_beta():
    # entered with y = beta, the first check branch ends at 2 - beta/2
    for target in TARGETS:
        beta = Fraction(1)
        bundle = build_div("y", 2, target)
        arena = host_arena(bundle, {"y": beta})
        verdict = playout(
            arena,
            faithful_achilles(None, arena),
            tortoise_challenger(arena, {"audit"}),
            time_bound=None,
        )
        if target == "rta3":
            assert verdict.elapsed == 2 - beta / 2
        else:
            assert verdict.elapsed == 2 + beta / 2  # one unit per wrap instead


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("n", (2, 3, 6, 12))
def test_divider_second_check_ledger(target, n):
    zeta = Fraction(1, 2)
    bundle = build_div("y", n, target)
    arena = host_arena(bundle, {"y": zeta})
    verdict = playout(
        arena,
        faithful_achilles(None, arena),
        tortoise_challenger(arena, {"audit2"}),
        time_bound=None,
    )
    assert verdict.outcome == "final"
    assert verdict.location.name.endswith(".pass")
    assert verdict.elapsed == 1 + zeta / n


@pytest.mark.parametrize("target", TARGETS)
def test_divider_deviation_loses_to_check(target):
    zeta = Fraction(1, 2)
    bundle = build_div("y", 2, target)
    arena = host_arena(bundle, {"y": zeta})
    base = faithful_achilles(None, arena)

    def deviated(position):
        move = base(position)
        role = position.role
        if role is not None and role.kind == "first":
            return TimedAction(move.delay + Fraction(1, 64), move.action)
        return move

    verdict = playout(arena, deviated, tortoise_challenger(arena, {"audit"}), time_bound=None)
    assert verdict.outcome == "stuck"
    assert not reachable_final_bounded(arena, verdict.trace.last(), 40)


def test_unsupported_divisor_is_compiler_error():
    with pytest.raises(CompileError, match="unsupported divisor"):
        build_div("x", 18, "rta3")
    with pytest.raises(CompileError):
        build_div("z", 2, "rta3")
    with pytest.raises(CompileError, match="unknown target"):
        build_div("x", 2, "rta5")


# -- instruction contract -----------------------------------------------------------


@pytest.mark.parametrize("target", TARGETS)
def test_increment_contract(target):
    alpha, beta = Fraction(1, 12), Fraction(1, 2)  # encoding (1, 1, 0)
    bundle = build_instruction("inc", "c1", target)
    arena = host_arena(bundle, {"x": alpha, "y": beta})
    verdict = playout(
        arena, faithful_achilles(None, arena), tortoise_skip_all(arena), time_bound=None
    )
    assert verdict.outcome == "final"
    idx, back = gadget_return(verdict.trace)
    assert back.valuation["x"] == alpha / 12
    assert back.valuation["y"] == beta / 2
    assert back.valuation["z"] == 0
    assert elapsed_until(verdict.trace, idx) < 2 * beta


@pytest.mark.parametrize("target", TARGETS)
def test_decrement_contract_re_encodes(target):
    # encoding (1, 1, 0): dec c1 must land exactly on encoding (2, 0, 0)
    state = expected_valuation(1, 1, 0)
    bundle = build_instruction("dec", "c1", target)
    arena = host_arena(bundle, {"x": state["x"], "y": state["y"]})
    verdict = playout(
        arena, faithful_achilles(None, arena), tortoise_skip_all(arena), time_bound=None
    )
    _, back = gadget_return(verdict.trace)
    target_state = expected_valuation(2, 0, 0)
    assert back.valuation["x"] == state["x"] / 3 == target_state["x"]
    assert back.valuation["y"] == target_state["y"]


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize(
    "counter,k_c_d,truth",
    [
        ("c1", (1, 0, 1), "zero"),
        ("c1", (1, 2, 0), "pos"),
        ("c2", (1, 1, 0), "zero"),
        ("c2", (1, 0, 2), "pos"),
    ],
)
def test_zerocheck_branches_and_certificates(target, counter, k_c_d, truth):
    state = expected_valuation(*k_c_d)
    bundle = build_instruction("zerocheck", counter, target)
    arena = host_arena(bundle, {"x": state["x"], "y": state["y"]})
    comp = f"Zerocheck_{counter}"

    # accepted assertion: leave at the matching exit with x/6, y/2
    verdict = playout(
        arena, asserting_achilles(arena, truth), tortoise_skip_all(arena), time_bound=None
    )
    assert verdict.outcome == "final"
    idx, back = gadget_return(verdict.trace)
    assert back.location.name == f"{comp}.ex{truth}"
    assert back.valuation["x"] == state["x"] / 6
    assert back.valuation["y"] == state["y"] / 2
    assert elapsed_until(verdict.trace, idx) < 2 * state["y"]

    # challenged true assertion: the certificate completes and wins
    verdict2 = playout(
        arena,
        asserting_achilles(arena, truth),
        tortoise_challenger(arena, {"challenge"}),
        time_bound=None,
    )
    assert verdict2.outcome == "final"
    assert verdict2.location.name.endswith(".pass")

    # a false assertion is punished by the adaptive auditor: the
    # challenged certificate can never be completed, so no final
    # location is ever reached (the playout loops or dead-ends)
    lie = "pos" if truth == "zero" else "zero"
    verdict3 = playout(
        arena,
        asserting_achilles(arena, lie),
        tortoise_auditor(arena),
        step_bound=3000,
        time_bound=None,
    )
    assert verdict3.outcome != "final"


def test_unknown_instruction_kind_rejected():
    with pytest.raises(CompileError):
        build_instruction("jump", "c1", "rta3")


# -- whole arenas -----------------------------------------------------------------


def test_halt_only_machine_wins_immediately():
    machine = TwoCounterMachine((Halt(),))
    for target in TARGETS:
        arena = compile(machine, target)
        verdict = playout(arena, faithful_achilles(machine, arena), tortoise_skip_all(arena))
        assert verdict.outcome == "final"
        assert verdict.location == node("Main.HALT")
        assert verdict.elapsed == 0


def test_inc_halt_machine_reaches_expected_anchor_valuations():
    machine = TwoCounterMachine((Inc("c1", 1), Halt()))
    for target in TARGETS:
        arena = compile(machine, target)
        verdict = playout(arena, faithful_achilles(machine, arena), tortoise_skip_all(arena))
        assert verdict.outcome == "final" and verdict.location == node("Main.HALT")
        anchors = [
            cfg for cfg in verdict.trace.configs if cfg.location in arena.anchor_locations()
        ]
        assert [c.location for c in anchors] == [node("I0.en"), node("I1.en")]
        v1 = anchors[1].valuation
        assert {k: v1[k] for k in ("x", "y", "z")} == expected_valuation(1, 1, 0)
        if target == "rsa4":
            assert "u" in v1  # scratch exists but is unconstrained


def test_compiled_arena_structure():
    machine = TwoCounterMachine((Inc("c1", 1), ZeroCheck("c1", 0, 2), Halt()))
    rta = compile(machine, "rta3")
    assert validate_rha(rta.model) == []
    assert classify(rta.model)[0] == "timed"
    assert tuple(rta.model.variables) == ("x", "y", "z")
    assert is_hierarchical(rta.model) is True
    assert rta.time_bound == 4
    assert node("Main.HALT") in rta.finals
    assert any(loc.name.endswith(".pass") for loc in rta.finals)

    rsa = compile(machine, "rsa4")
    assert validate_rha(rsa.model) == []
    assert classify(rsa.model)[0] == "stopwatch"
    assert tuple(rsa.model.variables) == ("x", "y", "z", "u")
    assert is_glitch_free(rsa.model) is True


def test_achilles_owns_delays_tortoise_owns_decisions():
    machine = TwoCounterMachine((Inc("c1", 1), Halt()))
    arena = compile(machine, "rsa4")
    tortoise_nodes = {
        loc.name for loc, p in arena.partition.items()
        if p is Player.TORTOISE and loc.kind == "node"
    }
    assert tortoise_nodes == {
        "Div_y_2.l2", "Div_y_2.l4", "Div_x_12.l2", "Div_x_12.l4",
    }
    arena3 = compile(machine, "rta3")
    tortoise_rets = {
        str(loc) for loc, p in arena3.partition.items() if p is Player.TORTOISE
    }
    assert tortoise_rets == {
        "ret:Div_y_2.d1:Delay.ex", "ret:Div_y_2.d2:Delay.ex",
        "ret:Div_x_12.d1:Delay.ex", "ret:Div_x_12.d2:Delay.ex",
    }


def test_targets_agree_on_faithful_durations_and_anchors():
    """The three-clock and four-stopwatch arenas realize the same timing
    ledger: identical total duration and identical anchor valuations on
    x, y, z along faithful unverified playouts."""
    machine = TwoCounterMachine((
        Inc("c2", 1), Inc("c1", 2), ZeroCheck("c2", 3, 4), Dec("c2", 2), Halt(),
    ))
    results = {}
    for target in TARGETS:
        arena = compile(machine, target)
        verdict = playout(arena, faithful_achilles(machine, arena), tortoise_skip_all(arena))
        anchors = [
            {k: cfg.valuation[k] for k in ("x", "y", "z")}
            for cfg in verdict.trace.configs
            if cfg.location in arena.anchor_locations()
        ]
        results[target] = (verdict.elapsed, anchors)
    assert results["rta3"] == results["rsa4"]


def test_compile_is_deterministic():
    machine = TwoCounterMachine((Inc("c1", 1), ZeroCheck("c1", 0, 2), Halt()))
    for target in TARGETS:
        a1, s1 = arena_to_json(compile(machine, target))
        a2, s2 = arena_to_json(compile(machine, target))
        assert a1 == a2 and s1 == s2


@pytest.mark.parametrize("field", ["partition", "finals"])
def test_arena_without_game_fields_is_a_parse_error(field):
    model_json, sidecar = arena_to_json(compile(TwoCounterMachine((Halt(),)), "rta3"))
    del model_json[field]
    with pytest.raises(ParseError, match="must carry partition and finals"):
        arena_from_json(model_json, sidecar)


def test_arena_json_round_trip():
    machine = TwoCounterMachine((Inc("c2", 1), ZeroCheck("c2", 0, 2), Halt()))
    for target in TARGETS:
        arena = compile(machine, target)
        model_json, sidecar = arena_to_json(arena)
        assert sidecar["time_bound"] == "4/1"
        assert sidecar["target"] == target
        again = arena_from_json(model_json, sidecar)
        assert again.entry == arena.entry
        assert again.finals == arena.finals
        assert again.partition == arena.partition
        assert again.initial_valuation == arena.initial_valuation
        assert again.instruction_anchor == arena.instruction_anchor
        assert again.roles == arena.roles and again.slots == arena.slots
        # a playout on the round-tripped arena behaves identically
        v1 = playout(arena, faithful_achilles(machine, arena), tortoise_skip_all(arena))
        v2 = playout(again, faithful_achilles(machine, again), tortoise_skip_all(again))
        assert v1.outcome == v2.outcome and v1.elapsed == v2.elapsed


def test_the_model_start_is_the_arena_entry():
    """The sidecar carries no entry; one an older arena left is ignored."""
    model_json, sidecar = arena_to_json(compile(TwoCounterMachine((Inc("c1", 1), Halt())), "rta3"))
    assert "entry" not in sidecar and model_json["start"] == "Main.en"
    older = {**sidecar, "entry": "node:I0.en"}
    assert arena_from_json(model_json, older).entry == node("Main.en")
    assert arena_from_json({**model_json, "start": "I0.en"}, older).entry == node("I0.en")


@pytest.mark.parametrize("target", TARGETS)
def test_host_arena_twice_on_one_bundle_gives_equal_arenas(target):
    """``host_arena`` builds its host in the bundle's own factory, so a
    second call rebuilds the same host over the same gadget."""
    for bundle, values in ((build_div("y", 2, target), {"y": 1}),
                           (build_instruction("zerocheck", "c1", target), {"x": 1, "y": 1})):
        first, second = host_arena(bundle, values), host_arena(bundle, values)
        assert arena_to_json(first) == arena_to_json(second)
        assert (first.entry, first.roles, first.slots) == (second.entry, second.roles, second.slots)


def test_every_compiled_and_hosted_arena_loads_its_slots():
    arenas = [compile(m, target) for m in halting_corpus() + nonhalting_corpus() for target in TARGETS]
    for target in TARGETS:
        arenas.append(host_arena(build_div("y", 2, target), {"y": 1}))
        arenas.append(host_arena(build_instruction("zerocheck", "c1", target), {"x": 1, "y": 1}))
    for arena in arenas:
        assert arena_from_json(*arena_to_json(arena)).slots == arena.slots


@pytest.mark.parametrize(
    "slots, message",
    [
        ({"nowhere": "bogus"}, "slot key 'nowhere' is neither a box nor a node"),
        ({"I0.g1": "branch"}, "slot 'branch' at 'I0.g1'"),
        ({"I0.g1": "div0"}, "slot 'div0' at 'I0.g1'"),
        ({"I0.g1": "div1.check1"}, "slot 'div1.check1' at 'I0.g1'"),
        ({"Main.HALT": "div1"}, "slot 'div1' at 'Main.HALT'"),
    ],
    ids=["unknown-key", "box-branch", "box-div0", "box-check-name", "node-divider"],
)
def test_sidecar_slot_must_name_a_box_divider_or_a_branch_node(slots, message):
    """The compiler writes ``div<n>`` at a gadget box and ``branch`` at a
    claim node, and nothing else loads: a bogus slot would otherwise turn
    up in ``known_slots`` and be accepted by ``tortoise_verify_at``."""
    model_json, sidecar = arena_to_json(compile(TwoCounterMachine((Inc("c1", 1), Halt())), "rta3"))
    bad = copy.deepcopy(sidecar)
    bad["roles"]["slots"].update(slots)
    with pytest.raises(ParseError, match=message):
        arena_from_json(model_json, bad)
