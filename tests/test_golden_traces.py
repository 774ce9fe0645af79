"""Golden-trace regression: compiled models and playouts must not change.

``golden_traces.json`` holds sha256 digests of the compiled model JSON
(both machine corpora and every single-gadget host arena) and of the
trace records of faithful, verifying and deviating playouts on the
halting corpus and of 1 000-move faithful playouts of the non-halting
corpus, together with each verdict's outcome, step count and elapsed
time.  Its ``solvers`` section pins the RSM solvers: per game instance,
``reachable``, ``terminates``, both game winners and the digest of both
summary tables.  A refactor of the compiler, the harness or the solvers
that keeps behaviour keeps every digest.  To re-record after an
intended change:

    PYTHONPATH=src:tests python tests/test_golden_traces.py > tests/golden_traces.json
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from fixtures import three_component_rsm
from generators import random_hierarchical_game
from machines import halting_corpus, nonhalting_corpus
from rhagames.arith import fmt
from rhagames.compiler import arena_to_json, build_div, build_instruction, compile, host_arena
from rhagames.harness import (
    delay_ordinal_addresses,
    deviated_achilles,
    enumerate_verify_addresses,
    faithful_achilles,
    playout,
    tortoise_skip_all,
    tortoise_verify_at,
    trace_records,
)
from rhagames.games import Player
from rhagames.rsm import node, reachable, solve_reachability_game, solve_termination_game, terminates

GOLDEN = Path(__file__).with_name("golden_traces.json")
TARGETS = ("rta3", "rsa4")
SMALL = (0, 3, 6)  # inc c1; pump and drain c1 through a zero-check loop; zero-check on c2
OFFSET = Fraction(1, 64)
LOOP_MOVES = 1000  # deep enough for branches to read machine steps far from 0


def _sha(data) -> str:
    return hashlib.sha256(json.dumps(data, indent=2, sort_keys=True).encode()).hexdigest()


def _verdict(verdict) -> list:
    return [verdict.outcome, verdict.steps, fmt(verdict.elapsed), _sha(trace_records(verdict))]


def _hosts():
    """Every single-gadget host arena: dividers and instruction components."""
    for target in TARGETS:
        for operand in ("x", "y"):
            for n in (2, 3, 6, 12):
                yield f"div_{operand}_{n}/{target}", host_arena(build_div(operand, n, target), {operand: 1}, target)
        for kind, counter in (("inc", "c1"), ("inc", "c2"), ("dec", "c1"), ("dec", "c2"),
                              ("zerocheck", "c1"), ("zerocheck", "c2"), ("halt", None)):
            bundle = build_instruction(kind, counter, target)
            yield f"{kind}_{counter}/{target}", host_arena(bundle, {"x": 1, "y": 1}, target)


def _table(table) -> list:
    wins = sorted([str(loc), sorted(allowance), won] for (loc, allowance), won in table.wins.items())
    minimal = sorted([str(loc), [sorted(e) for e in family]] for loc, family in table.minimal_allowances.items())
    return [wins, minimal]


def _games():
    """The fixture machine from every node (nodes Achilles, ports
    Tortoise, final ``u4``) and hierarchical games of seeds 0-59."""
    model = three_component_rsm()
    partition = {loc: Player.ACHILLES if loc.kind == "node" else Player.TORTOISE for loc in model.all_locations()}
    for comp in model.components:
        for start in comp.nodes:
            yield f"fixture/{start}", (model, partition, start, frozenset([node("u4")]))
    for seed in range(60):
        yield f"hier{seed}", random_hierarchical_game(seed)


def _solved(model, partition, start, finals) -> list:
    w_reach, t_reach = solve_reachability_game(model, partition, start, finals)
    w_term, t_term = solve_termination_game(model, partition, start)
    tables = _sha([_table(t_reach), _table(t_term)])
    return [reachable(model, start, finals), terminates(model, start), w_reach.value, w_term.value, tables]


def digests() -> dict:
    out = {"models": {}, "faithful": {}, "verify": {}, "deviate": {}, "hosts": {}, "loops": {}, "solvers": {}}
    for i, machine in enumerate(halting_corpus()):
        for target in TARGETS:
            key = f"{i}/{target}"
            arena = compile(machine, target)
            out["models"][key] = _sha(arena_to_json(arena)[0])
            verdict = playout(arena, faithful_achilles(machine, arena), tortoise_skip_all(arena))
            out["faithful"][key] = _verdict(verdict)
            if i not in SMALL:
                continue
            for step, slot in enumerate_verify_addresses(arena, machine):
                tortoise = tortoise_verify_at(arena, step, slot)
                verdict = playout(arena, faithful_achilles(machine, arena), tortoise, time_bound=None)
                out["verify"][f"{key}/{step}:{slot}"] = _verdict(verdict)
            for ordinal, (step, slot), _delay in delay_ordinal_addresses(arena, machine):
                achilles = deviated_achilles(machine, arena, ordinal, OFFSET)
                verdict = playout(arena, achilles, tortoise_verify_at(arena, step, slot), time_bound=None)
                out["deviate"][f"{key}/{ordinal}@{step}:{slot}"] = _verdict(verdict)
    for i, machine in enumerate(nonhalting_corpus()):
        for target in TARGETS:
            arena = compile(machine, target)
            out["models"][f"loop{i}/{target}"] = _sha(arena_to_json(arena)[0])
            verdict = playout(arena, faithful_achilles(machine, arena), tortoise_skip_all(arena), step_bound=LOOP_MOVES)
            out["loops"][f"loop{i}/{target}"] = _verdict(verdict)
    for key, arena in _hosts():
        out["hosts"][key] = _sha(arena_to_json(arena)[0])
    for key, game in _games():
        out["solvers"][key] = _solved(*game)
    return out


def test_golden_traces():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = digests()
    for section, table in expected.items():
        assert sorted(actual[section]) == sorted(table), section
        for key, value in table.items():
            assert actual[section][key] == value, (section, key)


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
