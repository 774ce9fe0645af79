"""The four benchmark workloads.

A workload builds its inputs in ``setup`` and then serves operations by
index: ``run(i)`` performs operation ``i`` and returns what the check
needs, ``check(i, result)`` returns a list of problems (empty when the
output is right) and ``moves(result)`` the playout moves the operation
made.  Operations are pure functions of the seed and the index, so the
same seed replays the same operations, and operation ``i + period`` is
operation ``i`` again: a run repeats a pass of ``period`` operations.
Package functions are always looked up through their module at call
time, so that a tracer can wrap them.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

import rhagames.cli as cli
import rhagames.compiler as compiler
import rhagames.games as games
import rhagames.harness as harness
import rhagames.rha as rha
import rhagames.rsm as rsm
import rhagames.tcm as tcm
from rhagames.games import Player

import inputs

TARGETS = ("rta3", "rsa4")


class Workload:
    name = ""
    period = 1  # distinct operations; the timed loop stops only after a whole pass
    counted_ops = 1  # operations whose counts the traced run reports

    def __init__(self, seed: int, workdir: Path, tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> List[str]:
        raise NotImplementedError

    def moves(self, result) -> int:
        return 0

    def digest_items(self, i: int, result) -> list:
        return []


# ---------------------------------------------------------------------------
# cli_check: compile -> validate/classify -> simulate -> check through the CLI
# ---------------------------------------------------------------------------


class CliCheck(Workload):
    """A pass runs every (machine, target) pair once, in seeded order."""

    name = "cli_check"
    counted_ops = 16
    # 8..20 executed steps; each shape once pumping c1 and once pumping c2
    shapes = [(p, q, a) for a in ("c1", "c2") for p in (1, 2) for q in (0, 1, 2)]

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.machines = []
        for j, (p, q, a) in enumerate(self.shapes):
            machine = inputs.halting_machine(rng, p, q, a)
            path = self.workdir / f"m{j}.tcm"
            path.write_text(tcm.format_text(machine), encoding="utf-8")
            self.machines.append((machine, str(path)))
        self.order = [(j, target) for j in range(len(self.machines)) for target in TARGETS]
        rng.shuffle(self.order)
        self.period = len(self.order)

    def _cli(self, command: str, argv: List[str]) -> Tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.tracer.call(f"cli.{command}", cli.main, [command] + argv)
        return code, out.getvalue()

    def run(self, i: int):
        j, target = self.order[i % len(self.order)]
        machine, machine_path = self.machines[j]
        arena_path = self.workdir / f"arena_{target}.json"
        sidecar_path = arena_path.with_suffix(".sidecar.json")
        trace_path = self.workdir / f"trace_{target}.jsonl"
        report_path = self.workdir / f"report_{target}.json"
        codes = [self._cli("compile", [machine_path, "--target", target, "--out", str(arena_path)])[0]]
        model_text = arena_path.read_text(encoding="utf-8")
        sidecar_text = sidecar_path.read_text(encoding="utf-8")
        arena = compiler.arena_from_json(json.loads(model_text), json.loads(sidecar_text))
        problems = rha.validate_rha(arena.model)
        kind, _tags = rha.classify(arena.model)
        glitch_free = rha.is_glitch_free(arena.model)
        code, simulated = self._cli("simulate", [str(arena_path), machine_path, "--trace", str(trace_path)])
        codes.append(code)
        code, _ = self._cli("check", [str(arena_path), machine_path, "--report", str(report_path)])
        codes.append(code)
        return {
            "machine": machine, "target": target, "codes": codes, "arena": arena,
            "texts": (model_text, sidecar_text), "problems": problems, "kind": kind,
            "glitch_free": glitch_free, "simulated": simulated, "report": report_path.read_text(encoding="utf-8"),
        }

    def check(self, i: int, r) -> List[str]:
        bad = []
        if r["codes"] != [0, 0, 0]:
            return [f"exit codes {r['codes']}"]
        sim = json.loads(r["simulated"])
        if sim["outcome"] != "final" or sim["location"] != "node:Main.HALT":
            bad.append(f"simulate ended {sim['outcome']} at {sim['location']}")
        report = json.loads(r["report"])
        trace, halted = tcm.tcm_run(r["machine"], harness.DEFAULT_STEP_BOUND)
        entries = report["encoding"]["entries"]
        if not report["ok"] or not halted or len(entries) != len(trace):
            bad.append(f"check report ok={report['ok']} with {len(entries)} entries for {len(trace)} configurations")
        if report["elapsed"] != sim["elapsed"]:
            bad.append("check and simulate played different runs")
        if r["problems"]:
            bad.append(f"validate_rha: {r['problems'][:3]}")
        want = "timed" if r["target"] == "rta3" else "stopwatch"
        if r["kind"] != want or (r["target"] == "rsa4" and not r["glitch_free"]):
            bad.append(f"classify gave {r['kind']} (glitch-free {r['glitch_free']})")
        model_json, sidecar = compiler.arena_to_json(r["arena"])
        again = tuple(json.dumps(d, indent=2, sort_keys=True) + "\n" for d in (model_json, sidecar))
        if again != r["texts"]:
            bad.append("arena JSON does not re-encode identically")
        return bad

    def moves(self, r) -> int:
        # simulate and check each play the same faithful run
        return 2 * json.loads(r["simulated"])["steps"] if r["codes"][1] == 0 else 0


# ---------------------------------------------------------------------------
# long_playout: 10 000-move faithful playouts of non-halting machines
# ---------------------------------------------------------------------------


class LongPlayout(Workload):
    """A pass plays machine A (pumping c1) on rta3 and machine B (pumping
    c2) on rsa4 for 10 000 moves each, then A on rsa4 for 1 000 moves.
    Both counters and both targets are in every pass; the seed picks the
    pump sizes."""

    name = "long_playout"
    period = 3
    counted_ops = 3
    schedule = ((0, "rta3", 10_000), (1, "rsa4", 10_000), (0, "rsa4", 1_000))

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.machines = [inputs.nonhalting_machine(rng.randint(1, 3), a) for a in ("c1", "c2")]
        self.arenas = {(j, target): compiler.compile(self.machines[j], target) for j, target, _ in self.schedule}

    def plan(self, i: int) -> Tuple[int, str, int]:
        return self.schedule[i % self.period]

    def run(self, i: int):
        j, target, bound = self.plan(i)
        machine, arena = self.machines[j], self.arenas[(j, target)]
        return harness.playout(
            arena, harness.faithful_achilles(machine, arena), harness.tortoise_skip_all(arena), step_bound=bound
        )

    def check(self, i: int, verdict) -> List[str]:
        j, target, bound = self.plan(i)
        machine, arena = self.machines[j], self.arenas[(j, target)]
        bad = []
        if verdict.outcome != "exhausted" or verdict.location is not None or verdict.steps != bound:
            bad.append(f"outcome {verdict.outcome} after {verdict.steps} moves")
        if any(cfg.location in arena.finals for cfg in verdict.trace.configs):
            bad.append("a final location was visited")
        if not harness.check_encoding(verdict, machine, arena).ok:
            bad.append("check_encoding failed")
        if not harness.check_time_ledger(verdict, arena).ok:
            bad.append("check_time_ledger failed")
        return bad

    def moves(self, verdict) -> int:
        return verdict.steps


# ---------------------------------------------------------------------------
# dichotomy: verification playouts and punished single-delay deviations
# ---------------------------------------------------------------------------

OFFSETS = (Fraction(1, 64), Fraction(-1, 64), Fraction(1, 8), Fraction(-1, 8))


class Dichotomy(Workload):
    name = "dichotomy"
    counted_ops = 60
    shapes = ((1, 2, "c1"), (2, 1, "c2"), (3, 0, "c1"))  # 14, 17 and 20 executed steps
    search_depth = 40
    stride = 9  # one address in nine, evenly along the run: a pass of about 100

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.machines = [inputs.halting_machine(rng, p, q, a) for p, q, a in self.shapes]
        self.arenas = {}
        self.ops: List[tuple] = []
        for j, machine in enumerate(self.machines):
            for target in TARGETS:
                arena = compiler.compile(machine, target)
                self.arenas[(j, target)] = arena
                verify = [("verify", j, target, step, slot, None, None)
                          for step, slot in harness.enumerate_verify_addresses(arena, machine)]
                deviate = []
                for ordinal, (step, slot), delay in harness.delay_ordinal_addresses(arena, machine):
                    # one legal offset per ordinal, rotating through OFFSETS
                    turn = ordinal % len(OFFSETS)
                    offset = next((o for o in OFFSETS[turn:] + OFFSETS[:turn] if delay + o >= 0), None)
                    if offset is not None:
                        deviate.append(("deviate", j, target, step, slot, ordinal, offset))
                # addresses come in run order, and a playout's cost grows with
                # its address, so a systematic sample keeps a pass's cost steady
                for group in (verify, deviate):
                    self.ops += group[self.stride // 2::self.stride]
        rng.shuffle(self.ops)
        self.period = len(self.ops)

    def run(self, i: int):
        kind, j, target, step, slot, ordinal, offset = self.ops[i % len(self.ops)]
        machine, arena = self.machines[j], self.arenas[(j, target)]
        tortoise = harness.tortoise_verify_at(arena, step, slot)
        if kind == "verify":
            return harness.playout(arena, harness.faithful_achilles(machine, arena), tortoise, time_bound=None), None
        achilles = harness.deviated_achilles(machine, arena, ordinal, offset)
        verdict = harness.playout(arena, achilles, tortoise, time_bound=None)
        return verdict, harness.reachable_final_bounded(arena, verdict.trace.last(), self.search_depth)

    def check(self, i: int, result) -> List[str]:
        kind, j, target, step, slot, ordinal, offset = self.ops[i % len(self.ops)]
        verdict, reach = result
        where = f"{kind} {target} machine {j} at {step}:{slot}"
        if kind == "verify":
            if verdict.outcome != "final" or not verdict.location.name.endswith(".pass"):
                return [f"{where} ended {verdict.outcome} at {verdict.location}"]
            return []
        if verdict.outcome == "final" or reach:
            return [f"{where}: deviation {ordinal} by {offset} reached a final"]
        return []

    def moves(self, result) -> int:
        return result[0].steps


# ---------------------------------------------------------------------------
# rsm_solve: queries on recursive RSM games and finite-arena attractors
# ---------------------------------------------------------------------------

SMALL = (10, 24, 5)  # components, nodes, boxes: about 400 locations
LARGE = (40, 24, 5)  # about 1 600 locations
QUERIES = (
    "reachable", "solve_reach_all_achilles",
    "terminates", "solve_term_all_achilles",
    "solve_reach", "solve_term",
)
ORACLE = {"solve_reach_all_achilles": "reachable", "solve_term_all_achilles": "terminates"}


class RsmSolve(Workload):
    """A pass asks each of two large instances three queries and each of
    two small instances all six, and runs ``attractor`` on two finite
    arenas; the seed orders them.  The all-Achilles games are the oracle
    pairs: their winners must equal ``reachable`` and ``terminates``.

    The RSM instances are the same in every run (``corpus_seed``): the
    solvers sweep all locations until nothing changes, and between random
    instances of one size the number of sweeps ranges from 4 to 29, so a
    seeded draw of two instances would vary more than any solver change
    worth measuring.  The run's seed draws the arenas and the order."""

    name = "rsm_solve"
    counted_ops = 20
    corpus_seed = 2005
    n_arenas = 2
    arena_states = 3000
    large_queries = (
        ("reachable", "solve_reach_all_achilles", "solve_term"),
        ("terminates", "solve_term_all_achilles", "solve_reach"),
    )

    def setup(self) -> None:
        corpus = random.Random(self.corpus_seed)
        self.instances = {}
        for size, shape in (("large", LARGE), ("small", SMALL)):
            for b in range(2):
                model, partition, start, finals = inputs.recursive_game(corpus, *shape)
                everyone = {loc: Player.ACHILLES for loc in partition}
                self.instances[(size, b)] = (model, partition, everyone, start, finals)
        rng = random.Random(self.seed)
        self.arenas = [inputs.finite_arena(rng, self.arena_states) for _ in range(self.n_arenas)]
        self.ops = [(("large", b), q) for b, queries in enumerate(self.large_queries) for q in queries]
        self.ops += [(("small", b), q) for b in range(2) for q in QUERIES]
        self.ops += [(None, k) for k in range(self.n_arenas)]
        rng.shuffle(self.ops)
        self.period = len(self.ops)
        self.answers: Dict[tuple, object] = {}
        self.validated = set()

    def plan(self, i: int):
        return self.ops[i % self.period]

    def run(self, i: int):
        key, query = self.plan(i)
        if key is None:
            arena, targets = self.arenas[query]
            return games.attractor(arena, targets)
        return self.query(key, query)

    def query(self, key, query):
        model, partition, everyone, start, finals = self.instances[key]
        if query == "reachable":
            return rsm.reachable(model, start, finals)
        if query == "terminates":
            return rsm.terminates(model, start)
        owners = everyone if query.endswith("all_achilles") else partition
        if query.startswith("solve_reach"):
            return rsm.solve_reachability_game(model, owners, start, finals)[0]
        return rsm.solve_termination_game(model, owners, start)[0]

    def check(self, i: int, result) -> List[str]:
        key, query = self.plan(i)
        if key is None:
            arena, targets = self.arenas[query]
            return attractor_problems(arena, frozenset(targets), *result)
        bad = []
        if key not in self.validated:
            self.validated.add(key)
            problems = rsm.validate(self.instances[key][0])
            if problems:
                bad.append(f"{key}: validate {problems[:3]}")
        self.answers[(key, query)] = result
        if query in ORACLE:
            if (key, ORACLE[query]) not in self.answers:  # the pass has not asked it yet
                self.answers[(key, ORACLE[query])] = self.query(key, ORACLE[query])
            expected = self.answers[(key, ORACLE[query])]
            if (result is Player.ACHILLES) != expected:
                bad.append(f"{key}: {query} gives {result}, {ORACLE[query]} gave {expected}")
        return bad

    def digest_items(self, i: int, result) -> list:
        key, _query = self.plan(i)
        if key is None:
            return [len(result[0])]
        return [result.value if isinstance(result, Player) else bool(result)]


def attractor_problems(arena, targets, winning, strategy) -> List[str]:
    """Certificate for ``attractor``: outside the winning set Tortoise can
    stay outside (closure), and inside it the strategy edges plus all
    Tortoise edges lead to the targets without cycles (ranking)."""
    bad = []
    pending: Dict[object, int] = {}
    preds: Dict[object, List[object]] = {}
    for s in arena.states:
        actions = arena.available(s)
        succs = [arena.successor(s, a) for a in actions]
        mine = arena.owner[s] is Player.ACHILLES
        if s in targets:
            continue
        if s not in winning:
            escapes = not succs or (all(t not in winning for t in succs) if mine else any(t not in winning for t in succs))
            if not escapes:
                bad.append(f"state {s!r} outside the attractor cannot be kept outside")
            continue
        if mine:
            if strategy.get(s) not in actions:
                bad.append(f"no strategy move at winning state {s!r}")
                continue
            succs = [arena.successor(s, strategy[s])]
        if not succs or any(t not in winning for t in succs):
            bad.append(f"winning state {s!r} can leave the attractor")
            continue
        pending[s] = len(succs)
        for t in succs:
            preds.setdefault(t, []).append(s)
    ready = list(targets)
    settled = 0
    while ready:
        t = ready.pop()
        for s in preds.get(t, ()):
            pending[s] -= 1
            if pending[s] == 0:
                settled += 1
                ready.append(s)
    if not bad and settled != len(pending):
        bad.append(f"{len(pending) - settled} winning states never reach a target")
    return bad[:3]


WORKLOADS = {w.name: w for w in (CliCheck, LongPlayout, Dichotomy, RsmSolve)}
