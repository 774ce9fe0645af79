"""Golden-trace regression: compiled models and playouts must not change.

``golden_traces.json`` holds sha256 digests of the compiled model JSON
(both machine corpora and every single-gadget host arena) and of the
trace records of faithful, verifying and deviating playouts on the
halting corpus, together with each verdict's outcome, step count and
elapsed time.  A refactor of the compiler or the harness that keeps
behaviour keeps every digest.  To re-record after an intended change:

    PYTHONPATH=src:tests python tests/test_golden_traces.py > tests/golden_traces.json
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

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

GOLDEN = Path(__file__).with_name("golden_traces.json")
TARGETS = ("rta3", "rsa4")
SMALL = (0, 3, 6)  # inc c1; pump and drain c1 through a zero-check loop; zero-check on c2
OFFSET = Fraction(1, 64)


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


def digests() -> dict:
    out = {"models": {}, "faithful": {}, "verify": {}, "deviate": {}, "hosts": {}}
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
            out["models"][f"loop{i}/{target}"] = _sha(arena_to_json(compile(machine, target))[0])
    for key, arena in _hosts():
        out["hosts"][key] = _sha(arena_to_json(arena)[0])
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
