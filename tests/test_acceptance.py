"""Acceptance criteria, one test per criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

All comparisons on clock values and durations are exact rational
comparisons with zero tolerance.
"""

import random
import time
from fractions import Fraction

from fixtures import one_clock_rta
from generators import random_hierarchical_game
from machines import halting_corpus, nonhalting_corpus
from oracles import oracle_reachability_winner, oracle_termination_winner
from rhagames.compiler import build_div, compile, expected_valuation, host_arena
from rhagames.harness import (
    check_time_ledger,
    delay_ordinal_addresses,
    deviated_achilles,
    enumerate_verify_addresses,
    faithful_achilles,
    playout,
    reachable_final_bounded,
    tortoise_skip_all,
    tortoise_verify_at,
)
from rhagames.rha import (
    CALL_ACTION,
    RET_ACTION,
    RhaComponent,
    RhaConfiguration,
    RhaModel,
    TimedAction,
    classify,
    is_glitch_free,
    is_hierarchical,
    timed_step,
    validate_rha,
)
from rhagames.rsm import call, node, ret
from rhagames.rsm import solve_reachability_game, solve_termination_game
from rhagames.tcm import tcm_run

TARGETS = ("rta3", "rsa4")

_CACHE = {}


def corpus():
    """Compile the halting corpus once; reused by criteria 1, 2, 4, 7."""
    if "corpus" not in _CACHE:
        entries = []
        for machine in halting_corpus():
            arenas = {t: compile(machine, t) for t in TARGETS}
            verdicts = {
                t: playout(arenas[t], faithful_achilles(machine, arenas[t]), tortoise_skip_all(arenas[t]))
                for t in TARGETS
            }
            entries.append((machine, arenas, verdicts))
        _CACHE["corpus"] = entries
    return _CACHE["corpus"]


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_encoding_exactness():
    started = time.monotonic()
    anchors_checked = 0
    for machine, arenas, verdicts in corpus():
        machine_trace, halted = tcm_run(machine, 100)
        assert halted
        for target in TARGETS:
            arena, verdict = arenas[target], verdicts[target]
            assert verdict.outcome == "final" and verdict.location == node("Main.HALT")
            anchor_set = arena.anchor_locations()
            hits = [cfg for cfg in verdict.trace.configs if cfg.location in anchor_set]
            assert len(hits) == len(machine_trace)
            for step, (cfg, mcfg) in enumerate(zip(hits, machine_trace)):
                expected = expected_valuation(step, mcfg.c1, mcfg.c2)
                actual = {k: cfg.valuation[k] for k in ("x", "y", "z")}
                assert actual == expected, (target, step)
                assert cfg.location == arena.instruction_anchor[mcfg.pc]
                anchors_checked += 1
    runtime = time.monotonic() - started
    ok = runtime <= 10.0
    report(1, ok, f"{anchors_checked} anchor valuations exact on 10 machines x 2 targets in {runtime:.1f}s")
    assert ok, f"criterion 1 runtime {runtime:.1f}s exceeds 10s"


def test_criterion_2_time_bounds():
    checked = 0
    for machine, arenas, verdicts in corpus():
        for target in TARGETS:
            verdict = verdicts[target]
            assert verdict.elapsed < 4
            ledger = check_time_ledger(verdict, arenas[target])
            assert ledger.ok, (target, ledger.failure)
            checked += 1
    report(2, True, f"{checked} playouts: total < 4 and instruction k < 2*2^-k, exact rationals")


def test_criterion_3_divider_contract():
    zetas = (Fraction(1), Fraction(1, 2), Fraction(1, 6))
    cases = 0
    for target in TARGETS:
        for n in (2, 3, 6, 12):
            for zeta in zetas:
                bundle = build_div("y", n, target)
                arena = host_arena(bundle, {"y": zeta})
                t = zeta / n

                verdict = playout(
                    arena, faithful_achilles(None, arena), tortoise_skip_all(arena), time_bound=None
                )
                back = next(
                    cfg for cfg in verdict.trace.configs
                    if cfg.location.kind == "ret" and cfg.location.box == "Host.g"
                )
                assert back.valuation["y"] == zeta / n
                prefix = verdict.trace.configs.index(back)
                spent = sum((m.delay for m in verdict.trace.moves[:prefix]), Fraction(0))
                assert spent == 2 * zeta / n

                first = playout(
                    arena, faithful_achilles(None, arena),
                    tortoise_verify_at(arena, 0, "div1.check1"), time_bound=None,
                )
                assert first.outcome == "final" and first.location.name.endswith(".pass")
                expected_first = t + n * (1 - t) if target == "rta3" else t + n
                assert first.elapsed == expected_first, (target, n, zeta)

                second = playout(
                    arena, faithful_achilles(None, arena),
                    tortoise_verify_at(arena, 0, "div1.check2"), time_bound=None,
                )
                assert second.outcome == "final" and second.location.name.endswith(".pass")
                assert second.elapsed == 1 + t
                cases += 3
    # the first check of a divider of y by 2 ends at exactly 2 - beta/2
    beta = Fraction(1)
    arena = host_arena(build_div("y", 2, "rta3"), {"y": beta})
    check = playout(
        arena, faithful_achilles(None, arena),
        tortoise_verify_at(arena, 0, "div1.check1"), time_bound=None,
    )
    assert check.elapsed == 2 - beta / 2
    report(3, True, f"{cases} divider playouts match the exit and check-branch ledgers exactly")


def test_criterion_4_game_dichotomy():
    verified = 0
    for machine, arenas, verdicts in corpus():
        for target in TARGETS:
            arena = arenas[target]
            assert verdicts[target].location == node("Main.HALT")
            for step, slot in enumerate_verify_addresses(arena, machine):
                verdict = playout(
                    arena,
                    faithful_achilles(machine, arena),
                    tortoise_verify_at(arena, step, slot),
                    time_bound=None,
                )
                assert verdict.outcome == "final", (target, step, slot, verdict.outcome)
                assert verdict.location.name.endswith(".pass"), (target, step, slot)
                verified += 1

    deviations = 0
    offsets = (Fraction(1, 64), Fraction(-1, 64), Fraction(1, 8), Fraction(-1, 8))
    for machine, arenas, _verdicts in corpus()[:4]:
        for target in TARGETS:
            arena = arenas[target]
            for ordinal, (step, slot), delay in delay_ordinal_addresses(arena, machine):
                # rotate through the offset set; one legal offset per ordinal
                rotation = offsets[ordinal % len(offsets):] + offsets[: ordinal % len(offsets)]
                offset = next((o for o in rotation if delay + o >= 0), None)
                if offset is None:
                    continue
                strategy = deviated_achilles(machine, arena, ordinal, offset)
                verdict = playout(
                    arena, strategy, tortoise_verify_at(arena, step, slot), time_bound=None
                )
                assert verdict.outcome != "final", (target, ordinal, offset)
                assert not reachable_final_bounded(arena, verdict.trace.last(), 40), (
                    target, ordinal, offset,
                )
                deviations += 1
                if deviations >= 24:
                    break
            if deviations >= 24:
                break
        if deviations >= 24:
            break
    ok = deviations >= 20
    report(
        4, ok,
        f"{verified} verification addresses all reach a pass node; "
        f"{deviations} single-delay deviations punished (no final within depth 40)",
    )
    assert ok


def test_criterion_5_non_halting_separation():
    checked = 0
    for machine in nonhalting_corpus():
        for target in TARGETS:
            arena = compile(machine, target)
            verdict = playout(
                arena,
                faithful_achilles(machine, arena),
                tortoise_skip_all(arena),
                step_bound=10_000,
            )
            assert verdict.outcome == "exhausted", (target, verdict.outcome)
            assert verdict.location is None
            anchor_free = all(
                cfg.location not in arena.finals for cfg in verdict.trace.configs
            )
            assert anchor_free
            checked += 1
    report(5, True, f"{checked} truncated playouts reached neither HALT nor a pass node")


def test_criterion_6_rsm_solver_oracle_equivalence():
    started = time.monotonic()
    instances = 0
    for seed in range(200):
        model, partition, start, finals = random_hierarchical_game(seed)
        w_reach, _ = solve_reachability_game(model, partition, start, finals)
        assert w_reach == oracle_reachability_winner(model, partition, start, finals), seed
        w_term, _ = solve_termination_game(model, partition, start)
        assert w_term == oracle_termination_winner(model, partition, start), seed
        instances += 1
    runtime = time.monotonic() - started
    ok = runtime <= 60.0
    report(6, ok, f"{instances} seeded instances agree with the unfolding oracle in {runtime:.1f}s")
    assert ok


def test_criterion_7_structural_classifiers():
    for machine, arenas, _verdicts in corpus():
        rta = arenas["rta3"]
        kind, _ = classify(rta.model)
        assert kind == "timed" and len(rta.model.variables) == 3
        rsa = arenas["rsa4"]
        kind, _ = classify(rsa.model)
        assert kind == "stopwatch" and len(rsa.model.variables) == 4
        assert is_glitch_free(rsa.model)
        assert validate_rha(rta.model) == [] and validate_rha(rsa.model) == []
    assert is_hierarchical(one_clock_rta()) is False
    report(7, True, "rta3 arenas timed with |X|=3, rsa4 arenas glitch-free stopwatch with |X|=4, "
                    "self-calling one-clock model not hierarchical")


def _random_pass_model(rng: random.Random):
    n_vars = rng.randint(2, 4)
    variables = tuple(f"v{i}" for i in range(n_vars))
    worker = RhaComponent(
        name="W", nodes=("we", "wm", "wx"), entries=("we",), exits=("wx",), boxes={}
    )
    worker.transitions = {
        (node("we"), "go"): node("wm"),
        (node("wm"), "out"): node("wx"),
    }
    worker.flows[node("wm")] = {v: Fraction(rng.randint(0, 2)) for v in variables}
    passed = frozenset(rng.sample(variables, k=rng.randint(0, n_vars)))
    host = RhaComponent(
        name="H", nodes=("he",), entries=("he",), exits=(), boxes={"wb": "W"},
        pass_by_value={"wb": passed},
    )
    host.transitions = {(node("he"), "call_it"): call("wb", "we")}
    model = RhaModel(variables, [host, worker])
    assert validate_rha(model) == []
    return model, passed


def test_criterion_8_pass_by_value_round_trip():
    rng = random.Random(44001)
    trials = 0
    for _ in range(1000):
        model, passed = _random_pass_model(rng)
        v0 = {
            v: Fraction(rng.randint(0, 30), rng.randint(1, 9)) for v in model.variables
        }
        config = RhaConfiguration((), call("wb", "we"), dict(v0))
        inside = timed_step(model, config, TimedAction(Fraction(0), CALL_ACTION))
        t1 = Fraction(rng.randint(0, 12), rng.randint(1, 6))
        t2 = Fraction(rng.randint(0, 12), rng.randint(1, 6))
        inside = timed_step(model, inside, TimedAction(t1, "go"))
        inside = timed_step(model, inside, TimedAction(t2, "out"))
        callee_final = dict(inside.valuation)
        back = timed_step(model, inside, TimedAction(Fraction(0), RET_ACTION))
        assert back.location == ret("wb", "wx")
        for var in model.variables:
            if var in passed:
                assert back.valuation[var] == v0[var]
            else:
                assert back.valuation[var] == callee_final[var]
        trials += 1
    report(8, True, f"{trials} matched call/return pairs restored and propagated exactly")
