"""Strategies, playouts, verdict classification, and the checkers."""

import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rhagames.harness
from machines import halting_corpus, nonhalting_corpus
from rhagames.compiler import CompiledArena, build_div, compile, host_arena
from rhagames.errors import HarnessError, StrategyError
from rhagames.games import Player
from rhagames.harness import (
    DEFAULT_STEP_BOUND,
    Position,
    _candidate_delays,
    _default_move,
    _faithful_addresses,
    check_encoding,
    check_time_ledger,
    delay_ordinal_addresses,
    deviated_achilles,
    enumerate_verify_addresses,
    export_trace,
    faithful_achilles,
    playout,
    reachable_final_bounded,
    role_at,
    tortoise_auditor,
    tortoise_skip_all,
    tortoise_verify_at,
    trace_records,
)
from rhagames.rha import (
    Interval,
    RhaComponent,
    RhaConfiguration,
    RhaModel,
    StepTable,
    TimedAction,
    TimedRun,
    available_moves,
    conj,
    run_duration,
)
from rhagames.rsm import RET_ACTION
from rhagames.rsm import call, node
from rhagames.tcm import Dec, Halt, Inc, TwoCounterMachine, ZeroCheck

INC_HALT = TwoCounterMachine((Inc("c1", 1), Halt()))
HALT_ONLY = TwoCounterMachine((Halt(),))
SELF_LOOP = TwoCounterMachine((ZeroCheck("c1", 1, 0), Halt()))


# -- playout ---------------------------------------------------------------------


def test_push_into_a_callee_whose_entry_invariant_fails_is_stuck():
    host = RhaComponent("H", ("s",), ("s",), (), {"b": "W"})
    host.transitions = {(node("s"), "go"): call("b", "we")}
    worker = RhaComponent("W", ("we", "wx"), ("we",), ("wx",), {})
    worker.invariants = {node("we"): conj(("x", "<", 1))}
    arena = CompiledArena(
        RhaModel(("x",), [host, worker]), {}, frozenset({node("wx")}), node("s"), {"x": Fraction(0)}, "rta3"
    )

    def wait_one(position):
        return TimedAction(Fraction(1), position.moves[0][0])

    verdict = playout(arena, wait_one, wait_one)
    assert verdict.outcome == "stuck" and verdict.steps == 1
    assert verdict.trace.last().location == call("b", "we")
    assert available_moves(arena.model, verdict.trace.last()) == []


def _open_guard_arena():
    """s --go--> t under the guard x > 1, Tortoise owning s, t final."""
    host = RhaComponent("H", ("s", "t"), ("s",), (), {})
    host.transitions = {(node("s"), "go"): node("t")}
    host.guards = {(node("s"), "go"): conj(("x", ">", 1))}
    return CompiledArena(
        RhaModel(("x",), [host]), {node("s"): Player.TORTOISE, node("t"): Player.ACHILLES},
        frozenset({node("t")}), node("s"), {"x": Fraction(0)}, "rta3",
    )


def test_default_move_waits_into_an_open_lower_bound():
    arena = _open_guard_arena()
    verdict = playout(arena, faithful_achilles(None, arena), tortoise_skip_all(arena))
    assert verdict.outcome == "final" and verdict.location == node("t")
    assert verdict.trace.moves == (TimedAction(Fraction(2), "go"),)


def test_default_move_falls_back_when_the_preferred_action_must_wait():
    """``prefer`` is taken only at delay 0; else the first move that is."""
    moves = [("late", Interval(Fraction(1), Fraction(2))), ("now", Interval(Fraction(0), None))]
    position = Position(RhaConfiguration((), node("s"), {"x": Fraction(0)}), None, moves, 0, 0, False)
    assert _default_move(position, "late") == TimedAction(Fraction(0), "now")
    assert _default_move(position, "now") == TimedAction(Fraction(0), "now")


def test_illegal_move_is_a_strategy_error_naming_the_step():
    arena = _open_guard_arena()

    def wait_one(position):
        return TimedAction(Fraction(1), "go")

    with pytest.raises(StrategyError, match=r"^step 0: illegal move .* at node:s: "):
        playout(arena, faithful_achilles(None, arena), wait_one)


# -- faithful Achilles ----------------------------------------------------------


@pytest.mark.parametrize("target", ("rta3", "rsa4"))
def test_faithful_first_divider_delay_is_half(target):
    arena = compile(INC_HALT, target)
    strategy = faithful_achilles(INC_HALT, arena)
    verdict = playout(arena, strategy, tortoise_skip_all(arena))
    # first free delay of Div{y,2} entered with y = 1 must be 1/2
    first_free = next(
        m for i, m in enumerate(verdict.trace.moves)
        if getattr(role_at(arena, verdict.trace.configs[i]), "kind", None) in ("first", "second")
    )
    assert first_free.delay == Fraction(1, 2)


def test_halt_only_arena_has_no_decisions():
    arena = compile(HALT_ONLY, "rta3")
    assert enumerate_verify_addresses(arena, HALT_ONLY) == []
    assert _faithful_addresses(arena, HALT_ONLY) == (0, [])


def test_arena_machine_mismatch_is_harness_error():
    arena = compile(HALT_ONLY, "rta3")
    with pytest.raises(HarnessError, match="mismatch"):
        faithful_achilles(INC_HALT, arena)


@pytest.mark.parametrize("target", ("rta3", "rsa4"))
def test_deviated_variant_differs_in_exactly_one_decision(target):
    arena = compile(INC_HALT, target)
    faithful = playout(arena, faithful_achilles(INC_HALT, arena), tortoise_skip_all(arena))
    deviated = playout(
        arena,
        deviated_achilles(INC_HALT, arena, 1, Fraction(1, 64)),
        tortoise_skip_all(arena),
        time_bound=None,
    )
    f_delays = [m.delay for m in faithful.trace.moves]
    d_delays = [m.delay for m in deviated.trace.moves]
    diffs = [i for i, (a, b) in enumerate(zip(f_delays, d_delays)) if a != b]
    assert len(diffs) == 1
    assert d_delays[diffs[0]] - f_delays[diffs[0]] == Fraction(1, 64)


def test_deviation_to_negative_delay_is_rejected():
    arena = compile(INC_HALT, "rta3")
    strategy = deviated_achilles(INC_HALT, arena, 2, Fraction(-1, 2))
    # ordinal 2 is the Div{x,12} first delay 1/12; offset -1/2 goes negative
    with pytest.raises(HarnessError, match="negative"):
        playout(arena, strategy, tortoise_skip_all(arena), time_bound=None)


# -- Tortoise strategies ----------------------------------------------------------


def test_skip_all_never_enters_checks():
    arena = compile(INC_HALT, "rta3")
    verdict = playout(arena, faithful_achilles(INC_HALT, arena), tortoise_skip_all(arena))
    assert verdict.outcome == "final"
    shorts = {m.action.rsplit(".", 1)[-1] for m in verdict.trace.moves}
    assert not shorts & {"audit", "audit2", "challenge"}


def test_verify_at_bad_slot_is_harness_error():
    arena = compile(INC_HALT, "rta3")
    with pytest.raises(HarnessError, match="slot"):
        tortoise_verify_at(arena, 0, "div9.check1")
    with pytest.raises(HarnessError, match="slot"):
        tortoise_verify_at(arena, 0, "frobnicate")
    with pytest.raises(HarnessError, match="nonnegative"):
        tortoise_verify_at(arena, -1, "div1")


def test_verify_at_defaults_to_first_check():
    arena = compile(INC_HALT, "rta3")
    bare = playout(
        arena, faithful_achilles(INC_HALT, arena), tortoise_verify_at(arena, 0, "div1"),
        time_bound=None,
    )
    explicit = playout(
        arena, faithful_achilles(INC_HALT, arena), tortoise_verify_at(arena, 0, "div1.check1"),
        time_bound=None,
    )
    assert bare.outcome == explicit.outcome == "final"
    assert bare.elapsed == explicit.elapsed


@pytest.mark.parametrize("target", ("rta3", "rsa4"))
def test_verify_second_delay_catch_up_check(target):
    arena = compile(INC_HALT, target)
    verdict = playout(
        arena,
        faithful_achilles(INC_HALT, arena),
        tortoise_verify_at(arena, 0, "div1.check2"),
        time_bound=None,
    )
    assert verdict.outcome == "final"
    assert verdict.location == node("Div_y_2.pass")
    assert verdict.elapsed == 1 + Fraction(1, 2)  # 1 + t with t = beta/2


# -- playout classification ---------------------------------------------------------


def test_playout_examples():
    for target in ("rta3", "rsa4"):
        arena = compile(INC_HALT, target)
        halted = playout(arena, faithful_achilles(INC_HALT, arena), tortoise_skip_all(arena))
        assert halted.outcome == "final"
        assert halted.location == node("Main.HALT")
        assert halted.elapsed < 4

        verified = playout(
            arena,
            faithful_achilles(INC_HALT, arena),
            tortoise_verify_at(arena, 0, "div1.check1"),
            time_bound=None,
        )
        assert verified.outcome == "final"
        assert verified.location.name.endswith(".pass")

        looping = compile(SELF_LOOP, target)
        exhausted = playout(
            looping,
            faithful_achilles(SELF_LOOP, looping),
            tortoise_skip_all(looping),
            step_bound=500,
        )
        assert exhausted.outcome == "exhausted"
        assert exhausted.steps == 500


def test_playout_determinism():
    arena = compile(INC_HALT, "rsa4")
    v1 = playout(arena, faithful_achilles(INC_HALT, arena), tortoise_skip_all(arena))
    v2 = playout(arena, faithful_achilles(INC_HALT, arena), tortoise_skip_all(arena))
    assert v1 == v2


def test_playout_elapsed_equals_run_duration():
    arena = compile(INC_HALT, "rta3")
    verdict = playout(arena, faithful_achilles(INC_HALT, arena), tortoise_skip_all(arena))
    assert verdict.elapsed == run_duration(verdict.trace)


def test_late_final_is_not_reported_final():
    arena = compile(INC_HALT, "rta3")
    # the div2 check branch ends at a pass node after ~12 time units,
    # beyond the compiled bound of 4
    verdict = playout(
        arena,
        faithful_achilles(INC_HALT, arena),
        tortoise_verify_at(arena, 0, "div2.check1"),
    )
    assert verdict.outcome != "final"
    unbounded = playout(
        arena,
        faithful_achilles(INC_HALT, arena),
        tortoise_verify_at(arena, 0, "div2.check1"),
        time_bound=None,
    )
    assert unbounded.outcome == "final" and unbounded.elapsed > 4


# -- the adaptive auditor ------------------------------------------------------------


def test_auditor_never_interrupts_faithful_play():
    for machine in halting_corpus()[:4]:
        arena = compile(machine, "rsa4")
        verdict = playout(arena, faithful_achilles(machine, arena), tortoise_auditor(arena))
        assert verdict.outcome == "final" and verdict.location == node("Main.HALT")


def test_auditor_punishes_every_first_deviation():
    """Every legal offset from {+-1/64, +-1/8} applied to every free delay
    is caught by the adaptive auditor and leaves no final reachable."""
    arena = compile(INC_HALT, "rta3")
    offsets = (Fraction(1, 64), Fraction(-1, 64), Fraction(1, 8), Fraction(-1, 8))
    punished = 0
    for ordinal, _addr, delay in delay_ordinal_addresses(arena, INC_HALT):
        for offset in offsets:
            if delay + offset < 0:
                continue
            strategy = deviated_achilles(INC_HALT, arena, ordinal, offset)
            verdict = playout(arena, strategy, tortoise_auditor(arena), time_bound=None)
            assert verdict.outcome != "final", (ordinal, offset)
            assert not reachable_final_bounded(arena, verdict.trace.last(), 40)
            punished += 1
    assert punished >= 10


@pytest.mark.parametrize("target", ("rta3", "rsa4"))
def test_bounded_search_finds_a_final_exactly_within_its_depth(target):
    # the faithful run of INC c1; HALT reaches Main.HALT three moves after
    # configs[-4], so the search must expand continuations to find it
    arena = compile(INC_HALT, target)
    verdict = playout(arena, faithful_achilles(INC_HALT, arena), tortoise_skip_all(arena))
    config = verdict.trace.configs[-4]
    assert reachable_final_bounded(arena, config, 3)
    assert not reachable_final_bounded(arena, config, 2)


# -- the incremental play state ----------------------------------------------------
#
# The oracle recounts every position field from scratch over the trace
# prefix, with the formulas the harness used before it kept counters.


def _recount_step(arena, prefix):
    anchor_set = arena.anchor_locations()
    return max(0, sum(1 for cfg in prefix.configs if cfg.location in anchor_set) - 1)


def _recount_delays(arena, prefix):
    return sum(1 for cfg in prefix.configs[:-1] if getattr(role_at(arena, cfg), "kind", None) in ("first", "second"))


def _recount_verified(arena, prefix):
    verify_actions = frozenset(r.actions[0] for r in arena.roles.values() if r.kind in TORTOISE_KINDS)
    return any(m.action in verify_actions for m in prefix.moves)


def _recorded(strategy, positions):
    def play(position):
        positions.append(position)
        return strategy(position)

    return play


def _recount_cases():
    for i, machine in enumerate(halting_corpus()):
        for target in ("rta3", "rsa4"):
            arena = compile(machine, target)
            yield arena, faithful_achilles(machine, arena), tortoise_skip_all(arena), {}
            if i not in (0, 3, 6):
                continue
            for step, slot in enumerate_verify_addresses(arena, machine):
                tortoise = tortoise_verify_at(arena, step, slot)
                yield arena, faithful_achilles(machine, arena), tortoise, {"time_bound": None}
    machine = nonhalting_corpus()[3]
    arena = compile(machine, "rta3")
    yield arena, faithful_achilles(machine, arena), tortoise_skip_all(arena), {"step_bound": 1000}


def test_positions_match_a_recount_and_moves_are_computed_once(monkeypatch):
    calls = []

    class Counted(StepTable):
        def moves(self, config):
            calls.append(config)
            return super().moves(config)

    monkeypatch.setattr(rhagames.harness, "StepTable", Counted)
    verified_playouts = 0
    for arena, achilles, tortoise, bounds in _recount_cases():
        positions = []
        calls.clear()
        verdict = playout(arena, _recorded(achilles, positions), _recorded(tortoise, positions), **bounds)
        assert len(calls) <= verdict.steps + (verdict.outcome == "stuck")
        run = verdict.trace
        index = {id(cfg): i for i, cfg in enumerate(run.configs)}
        for position in positions:
            i = index[id(position.config)]
            prefix = TimedRun(run.configs[: i + 1], run.moves[:i])
            assert position.step == _recount_step(arena, prefix)
            assert position.delays == _recount_delays(arena, prefix)
            assert position.verified == _recount_verified(arena, prefix)
            assert position.role == role_at(arena, position.config)
            assert position.moves == available_moves(arena.model, position.config)
        verified_playouts += positions[-1].verified
    assert verified_playouts > 0


def _recorded_tables(monkeypatch):
    """The step tables ``playout`` builds from now on, in order."""
    tables = []

    class Recorded(StepTable):
        def __init__(self, model):
            super().__init__(model)
            tables.append(self)

    monkeypatch.setattr(rhagames.harness, "StepTable", Recorded)
    return tables


@pytest.mark.parametrize("target", ("rta3", "rsa4"))
def test_a_long_playout_fills_one_table_entry_per_location(monkeypatch, target):
    """A 10 000-move playout builds one table, holding one entry per
    location it looked up and one return per (box, exit) it popped."""
    tables = _recorded_tables(monkeypatch)
    machine = nonhalting_corpus()[4]
    arena = compile(machine, target)
    verdict = playout(arena, faithful_achilles(machine, arena), tortoise_skip_all(arena))
    assert (verdict.outcome, verdict.steps) == ("exhausted", DEFAULT_STEP_BOUND)
    run = verdict.trace
    looked_up = {cfg.location for cfg in run.configs[:-1]}
    returns = {(cfg.context[-1][0], cfg.location) for cfg, m in zip(run.configs, run.moves) if m.action == RET_ACTION}
    assert [len(table) for table in tables] == [len(looked_up) + len(returns)]


def test_a_guard_edited_between_playouts_is_seen_by_the_next(monkeypatch):
    """No table outlives its playout: a guard that no valuation meets, put
    on the first timed move of the faithful run (the shared delay cell's,
    which the run takes again later), leaves the next playout stuck there,
    and removing it gives the first run back."""
    tables = _recorded_tables(monkeypatch)
    arena = compile(INC_HALT, "rta3")

    def play():
        return playout(arena, faithful_achilles(INC_HALT, arena), tortoise_skip_all(arena))

    first = play()
    k = next(k for k, m in enumerate(first.trace.moves) if m.delay > 0)
    src, action = first.trace.configs[k].location, first.trace.moves[k].action
    guards = arena.model.component_of_location(src).guards
    assert (src, action) not in guards
    guards[(src, action)] = conj(("x", "<", 0))
    second = play()
    assert (second.outcome, second.steps, second.trace.last().location) == ("stuck", k, src)
    del guards[(src, action)]
    assert play().trace == first.trace
    assert len(tables) == 3 and len({id(t) for t in tables}) == 3


def test_faithful_achilles_runs_the_machine_only_as_far_as_the_playout_reads(monkeypatch):
    machine = nonhalting_corpus()[3]
    arena = compile(machine, "rta3")
    stepped = []
    step = rhagames.harness.tcm_step
    monkeypatch.setattr(rhagames.harness, "tcm_step", lambda m, cfg: stepped.append(cfg) or step(m, cfg))
    positions = []
    playout(arena, _recorded(faithful_achilles(machine, arena), positions), tortoise_skip_all(arena), step_bound=1000)
    read = [p.step for p in positions if p.role is not None and p.role.kind == "branch"]
    assert read and len(stepped) == max(read) < 100


def test_playout_past_a_shorter_machine_run_is_harness_error():
    """The arena loops (L0: INC c1; L1: IFZ c1 THEN L2 ELSE L0); the machine
    it is played with halts from L1 either way, so its run has no step 3
    for the arena's second zero-check."""
    looping = TwoCounterMachine((Inc("c1", 1), ZeroCheck("c1", 0, 2), Halt()))
    halting = TwoCounterMachine((Inc("c1", 1), ZeroCheck("c1", 2, 2), Halt()))
    arena = compile(looping, "rta3")
    with pytest.raises(HarnessError, match="playout ran past the machine trace"):
        playout(arena, faithful_achilles(halting, arena), tortoise_skip_all(arena))


def test_negative_step_bound_is_harness_error():
    arena = compile(INC_HALT, "rta3")
    with pytest.raises(HarnessError, match="nonnegative"):
        playout(arena, faithful_achilles(INC_HALT, arena), tortoise_skip_all(arena), step_bound=-1)


@pytest.mark.parametrize("target", ("rta3", "rsa4"))
def test_playout_stops_as_soon_as_the_time_bound_is_exceeded(target):
    arena = compile(INC_HALT, target)
    full = playout(arena, faithful_achilles(INC_HALT, arena), tortoise_skip_all(arena), time_bound=None)
    assert full.outcome == "final"
    for bound in (Fraction(0), Fraction(1, 3), Fraction(1), full.elapsed - Fraction(1, 1000), full.elapsed):
        verdict = playout(arena, faithful_achilles(INC_HALT, arena), tortoise_skip_all(arena), time_bound=bound)
        if bound >= full.elapsed:
            assert (verdict.outcome, verdict.steps) == ("final", full.steps)
            continue
        spent = [sum((m.delay for m in full.trace.moves[:k]), Fraction(0)) for k in range(full.steps + 1)]
        late = next(k for k, t in enumerate(spent) if t > bound)
        assert (verdict.outcome, verdict.steps, verdict.elapsed) == ("exhausted", late, spent[late]), bound
        assert verdict.trace.moves == full.trace.moves[:late]


def test_negative_time_bound_is_harness_error():
    arena = compile(INC_HALT, "rta3")
    with pytest.raises(HarnessError, match="nonnegative"):
        playout(arena, faithful_achilles(INC_HALT, arena), tortoise_skip_all(arena), time_bound=Fraction(-1))


@pytest.mark.parametrize(
    "ivl, expected",
    [
        (Interval(Fraction(1), Fraction(1)), [1]),
        (Interval(Fraction(1), Fraction(2)), [1, 2, Fraction(3, 2)]),
        (Interval(Fraction(1), Fraction(2), True, False), [1, Fraction(3, 2)]),
        (Interval(Fraction(1), Fraction(2), False, True), [2, Fraction(3, 2)]),
        (Interval(Fraction(1), Fraction(2), False, False), [Fraction(3, 2)]),
        (Interval(Fraction(1), None), [1, 2]),
        (Interval(Fraction(1), None, False), [2]),
    ],
    ids=["point", "closed", "right-open", "left-open", "open", "unbounded", "open-unbounded"],
)
def test_candidate_delays_sample_closed_ends_and_a_point_inside(ivl, expected):
    assert _candidate_delays(ivl) == expected
    assert all(ivl.contains(t) for t in expected)


# -- checkers ---------------------------------------------------------------------


def test_check_encoding_faithful_all_anchors_match():
    for machine in halting_corpus()[:3]:
        arena = compile(machine, "rta3")
        verdict = playout(arena, faithful_achilles(machine, arena), tortoise_skip_all(arena))
        report = check_encoding(verdict, machine, arena)
        assert report.ok, report.failure
        assert all(entry["ok"] for entry in report.entries)


def test_check_encoding_flags_deviated_trace():
    arena = compile(INC_HALT, "rta3")
    # deviate the second delay of Div{y,2}: its exit value is wrong, so the
    # next anchor no longer matches the encoding
    verdict = playout(
        arena,
        deviated_achilles(INC_HALT, arena, 1, Fraction(1, 64)),
        tortoise_skip_all(arena),
        time_bound=None,
    )
    report = check_encoding(verdict, INC_HALT, arena)
    assert not report.ok
    assert "mismatch" in report.failure


def test_check_encoding_flags_an_anchor_past_the_machine_run():
    """The faithful ``INC c1; HALT`` run checked against the one-instruction
    ``HALT`` machine: its second anchor has no machine step."""
    arena = compile(INC_HALT, "rta3")
    verdict = playout(arena, faithful_achilles(INC_HALT, arena), tortoise_skip_all(arena))
    report = check_encoding(verdict, HALT_ONLY, arena)
    assert not report.ok
    assert report.failure == "anchor 1 has no matching machine step"
    assert [entry["ok"] for entry in report.entries] == [True]


def test_check_encoding_empty_trace_is_vacuous():
    arena = compile(HALT_ONLY, "rta3")
    verdict = playout(arena, faithful_achilles(HALT_ONLY, arena), tortoise_skip_all(arena))
    # trim the trace before the first anchor: nothing to compare
    trimmed = verdict.__class__(
        outcome=verdict.outcome,
        trace=TimedRun(verdict.trace.configs[:1]),
        location=verdict.location,
        elapsed=Fraction(0),
        steps=0,
    )
    report = check_encoding(trimmed, HALT_ONLY, arena)
    assert report.ok and report.entries == []


def test_check_time_ledger_budgets():
    machine = halting_corpus()[3]  # pump and drain c1: 8 steps
    arena = compile(machine, "rsa4")
    verdict = playout(arena, faithful_achilles(machine, arena), tortoise_skip_all(arena))
    report = check_time_ledger(verdict, arena)
    assert report.ok, report.failure
    budgets = [e for e in report.entries if "budget" in e]
    assert budgets[0]["budget"] == "2/1"
    assert budgets[1]["budget"] == "1/1"
    assert report.entries[-1]["total"] == str(verdict.elapsed.numerator) + "/" + str(
        verdict.elapsed.denominator
    )


@pytest.mark.parametrize(
    "raise_first_free, failure, oks",
    [
        (True, "instruction 0 took 25/6 >= 2/1", [False, True, False]),
        (False, "total duration 25/6 >= 4", [True, True, False]),
    ],
    ids=["instruction-over-budget", "total-of-four"],
)
def test_check_time_ledger_flags_a_run_over_its_bounds(raise_first_free, failure, oks):
    """The faithful ``INC c1; HALT`` run (7/6 in all) with one delay raised
    by 3: a free delay of ``INC c1`` puts the instruction over its budget
    of 2 (and the first failure is named), the boot move before the first
    anchor counts only towards the total."""
    arena = compile(INC_HALT, "rta3")
    verdict = playout(arena, faithful_achilles(INC_HALT, arena), tortoise_skip_all(arena))
    index = next(i for i, move in enumerate(verdict.trace.moves) if move.delay > 0) if raise_first_free else 0
    moves = list(verdict.trace.moves)
    moves[index] = TimedAction(moves[index].delay + 3, moves[index].action)
    report = check_time_ledger(dataclasses.replace(verdict, trace=TimedRun(verdict.trace.configs, tuple(moves))), arena)
    assert not report.ok
    assert report.failure == failure
    assert [entry["ok"] for entry in report.entries] == oks


def test_check_time_ledger_single_divider():
    bundle = build_div("y", 2, "rta3")
    arena = host_arena(bundle, {"y": Fraction(1)})
    verdict = playout(arena, faithful_achilles(None, arena), tortoise_skip_all(arena))
    assert verdict.elapsed == 1  # t + t' = beta
    report = check_time_ledger(verdict, arena)
    assert report.ok
    assert report.entries == [{"total": "1/1", "bound": "4/1", "ok": True}]


# -- trace export --------------------------------------------------------------------


def test_trace_export_json_lines(tmp_path):
    arena = compile(INC_HALT, "rta3")
    verdict = playout(arena, faithful_achilles(INC_HALT, arena), tortoise_skip_all(arena))
    path = tmp_path / "trace.jsonl"
    export_trace(verdict, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == len(verdict.trace.moves)
    first = json.loads(lines[0])
    assert set(first) == {
        "step", "location", "context_depth", "valuation", "delay", "action", "elapsed_total",
    }
    last = json.loads(lines[-1])
    assert last["elapsed_total"] == "7/6"
    records = trace_records(verdict)
    assert [json.loads(l) for l in lines] == records


# -- random halting machines ------------------------------------------------------------


@st.composite
def straight_runs(draw):
    """Halting machines whose run executes L0, L1, ... in order: a
    decrement only meets a positive counter and a zero-check's taken
    branch is the next instruction (the other branch goes anywhere)."""
    n = draw(st.integers(1, 5))
    values = {"c1": 0, "c2": 0}
    instructions = []
    for i in range(n):
        counter = draw(st.sampled_from(("c1", "c2")))
        kind = draw(st.sampled_from(("inc", "dec", "zerocheck") if values[counter] else ("inc", "zerocheck")))
        if kind == "inc":
            values[counter] += 1
            instructions.append(Inc(counter, i + 1))
        elif kind == "dec":
            values[counter] -= 1
            instructions.append(Dec(counter, i + 1))
        else:
            other = draw(st.integers(0, n))
            taken = (i + 1, other) if values[counter] else (other, i + 1)
            instructions.append(ZeroCheck(counter, *taken))
    return TwoCounterMachine(tuple(instructions) + (Halt(),))


TORTOISE_KINDS = {"check1", "check2", "positive", "zero"}


@settings(max_examples=25, deadline=None)
@given(straight_runs())
def test_random_halting_machines_play_out_faithfully(machine):
    for target in ("rta3", "rsa4"):
        arena = compile(machine, target)
        verdict = playout(arena, faithful_achilles(machine, arena), tortoise_skip_all(arena))
        assert verdict.outcome == "final" and verdict.location == node("Main.HALT")
        assert check_encoding(verdict, machine, arena).ok
        assert check_time_ledger(verdict, arena).ok
        locations = set(arena.model.all_locations())
        for loc, role in arena.roles.items():
            assert loc in locations
            owner = Player.TORTOISE if role.kind in TORTOISE_KINDS else Player.ACHILLES
            assert arena.partition[loc] is owner, (loc, role)
