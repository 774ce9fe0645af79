"""In-memory span tracing around the package's public functions.

``Tracer.install`` replaces each hooked function in the module that looks
it up at call time (``rhagames.harness.timed_step`` is the name
``playout`` calls, ``rhagames.cli.playout`` the name the CLI calls) with
a wrapper that records a span: name, start, end, parent span and the
operation it belongs to.  Spans are kept in flat arrays and turned into
per-layer metrics at the end.  A hook whose target no longer exists is
skipped, and the metrics that need it are left out of the result.
"""

import json
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional

SETUP = -1  # operation id of spans recorded while setting up
CHECK = -2  # operation id of spans recorded while checking outputs

# (module, attribute, span name): every call site a workload reaches.  Hooks
# that feed no metric of their own (parse_text, faithful_achilles) keep
# library time out of the CLI's self time.
HOOKS = [
    ("rhagames.cli", "compile_machine", "compiler.compile"),
    ("rhagames.cli", "arena_to_json", "compiler.to_json"),
    ("rhagames.cli", "arena_from_json", "compiler.from_json"),
    ("rhagames.cli", "parse_text", "tcm.parse_text"),
    ("rhagames.cli", "playout", "harness.playout"),
    ("rhagames.cli", "faithful_achilles", "harness.faithful_achilles"),
    ("rhagames.cli", "check_encoding", "harness.check_encoding"),
    ("rhagames.cli", "check_time_ledger", "harness.check_time_ledger"),
    ("rhagames.cli", "export_trace", "harness.export_trace"),
    ("rhagames.compiler", "compile", "compiler.compile"),
    ("rhagames.compiler", "arena_from_json", "compiler.from_json"),
    ("rhagames.compiler", "validate_rha", "rha.validate"),
    ("rhagames.compiler", "classify", "rha.classify"),
    ("rhagames.rha", "validate_rha", "rha.validate"),
    ("rhagames.rha", "classify", "rha.classify"),
    ("rhagames.harness", "tcm_run", "tcm.run"),
    ("rhagames.harness", "timed_step", "rha.timed_step"),
    ("rhagames.harness", "available_moves", "rha.available_moves"),
    ("rhagames.harness", "playout", "harness.playout"),
    ("rhagames.harness", "faithful_achilles", "harness.faithful_achilles"),
    ("rhagames.harness", "check_encoding", "harness.check_encoding"),
    ("rhagames.harness", "check_time_ledger", "harness.check_time_ledger"),
    ("rhagames.harness", "enumerate_verify_addresses", "harness.enumerate_addresses"),
    ("rhagames.harness", "delay_ordinal_addresses", "harness.enumerate_addresses"),
    ("rhagames.harness", "reachable_final_bounded", "harness.bounded_search"),
    ("rhagames.rsm", "reachable", "rsm.reachable"),
    ("rhagames.rsm", "terminates", "rsm.terminates"),
    ("rhagames.rsm", "solve_reachability_game", "rsm.solve_reach"),
    ("rhagames.rsm", "solve_termination_game", "rsm.solve_term"),
    ("rhagames.games", "attractor", "games.attractor"),
]

CLI_SPANS = ("cli.compile", "cli.simulate", "cli.check")
DECISIONS = ("harness.achilles_decision", "harness.tortoise_decision")
SHORT_PLAYOUT = 2000  # playouts up to this many moves form the "1k" bin
LARGE_RSM = 1000  # RSMs with more locations count as large
RSM_QUERIES = ("rsm.reachable", "rsm.terminates", "rsm.solve_reach", "rsm.solve_term")

# per-layer metrics that are counts over the counted operations: they must
# repeat exactly for a given seed
COUNT_METRICS = (
    "compiler.locations", "compiler.arena_json_bytes", "tcm.run_calls_per_op",
    "rha.timed_step_calls", "rha.available_moves_per_move", "harness.moves_per_op",
    "harness.decisions", "harness.bounded_search_steps", "arith.denominator_bits",
    "rsm.summary_entries", "rsm.locations", "rsm.transitions", "games.attractor_states",
)


def load_units(path) -> Dict[str, str]:
    """Units of the per-layer metrics, from the metric map."""
    with open(path, encoding="utf-8") as handle:
        return {name: spec["unit"] for name, spec in json.load(handle)["per_layer"].items()}


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self, counted_ops: int):
        self.counted_ops = counted_ops
        self.op = SETUP
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.opid = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._saved: List[tuple] = []
        self.missing = set()
        self.installed = set()
        # span index -> value recorded from the call's arguments or result
        self.playouts: Dict[int, tuple] = {}
        self.arenas: List[object] = []
        self.tables: Dict[int, int] = {}
        self.models: Dict[int, object] = {}
        self.attractors: Dict[int, int] = {}

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        nid = self._id(name)
        stack, start, end = self._stack, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.opid.append(self.op)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if after is not None:
                after(idx, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    # -- hooks ---------------------------------------------------------------

    def _after(self, name: str) -> Optional[Callable]:
        if name == "harness.playout":
            def after(idx, args, verdict):
                last = verdict.trace.last().valuation
                bits = max((v.denominator.bit_length() for v in last.values()), default=0)
                self.playouts[idx] = (verdict.steps, bits)
            return after
        if name == "compiler.compile":
            def after(idx, args, arena):
                if self.op < self.counted_ops and self.op != CHECK:
                    self.arenas.append(arena)
            return after
        if name in ("rsm.solve_reach", "rsm.solve_term"):
            def after(idx, args, result):
                self.tables[idx] = len(result[1].wins)
                self.models[idx] = args[0]
            return after
        if name in ("rsm.reachable", "rsm.terminates"):
            def after(idx, args, result):
                self.models[idx] = args[0]
            return after
        if name == "games.attractor":
            def after(idx, args, result):
                self.attractors[idx] = len(result[0])
            return after
        return None

    def _playout_hook(self, fn: Callable) -> Callable:
        inner = self.wrap("harness.playout", fn, self._after("harness.playout"))

        def playout(arena, achilles, tortoise, *args, **kwargs):
            return inner(
                arena,
                self.wrap(DECISIONS[0], achilles),
                self.wrap(DECISIONS[1], tortoise),
                *args,
                **kwargs,
            )

        playout.__wrapped__ = fn
        return playout

    def install(self) -> None:
        import importlib

        for module_name, attr, span in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            if span == "harness.playout":
                hooked = self._playout_hook(fn)
            else:
                hooked = self.wrap(span, fn, self._after(span))
            self._saved.append((module, attr, fn))
            setattr(module, attr, hooked)
            self.installed.add(span)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- output --------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Write every span as one tab-separated line:
        index, name, parent, operation, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tname\tparent\top\tstart\tend\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t{self.opid[i]}"
                    f"\t{self.start[i]!r}\t{self.end[i]!r}\n"
                )

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics.  Times use every span outside the check
        phase; counts use only operations ``0 .. counted_ops - 1`` and the
        set-up, so that they repeat exactly for a given seed."""
        counted_ops = self.counted_ops
        n = len(self.start)
        names = [self.names[i] for i in self.name]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        under: List[Optional[str]] = [None] * n  # nearest playout/search ancestor
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                pname = names[p]
                under[i] = pname if pname in ("harness.playout", "harness.bounded_search") else under[p]

        timed = [self.opid[i] != CHECK for i in range(n)]
        counted = [0 <= self.opid[i] < counted_ops for i in range(n)]
        ops = [self.opid[i] >= 0 for i in range(n)]
        total: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        ncounted: Dict[str, int] = {}
        for i in range(n):
            if timed[i]:
                total[names[i]] = total.get(names[i], 0.0) + dur[i]
                calls[names[i]] = calls.get(names[i], 0) + 1
            if counted[i]:
                ncounted[names[i]] = ncounted.get(names[i], 0) + 1

        def mean(name: str, scale: float = 1.0) -> float:
            return total.get(name, 0.0) / calls[name] * scale if calls.get(name) else 0.0

        def per_op(count: float) -> float:
            return count / counted_ops

        out: Dict[str, float] = {}
        present = self.installed | set(CLI_SPANS) | set(DECISIONS)

        def put(metric: str, value: float, *spans: str) -> None:
            if all(s in present for s in spans):
                out[metric] = value

        cli_ops = sum(1 for i in range(n) if ops[i] and names[i] == "cli.compile")
        cli_self = sum(dur[i] - child[i] for i in range(n) if ops[i] and names[i] in CLI_SPANS)
        put("cli.compile_s", mean("cli.compile"))
        put("cli.simulate_s", mean("cli.simulate"))
        put("cli.check_s", mean("cli.check"))
        put("cli.self_s", cli_self / cli_ops if cli_ops else 0.0)

        arenas = self.arenas
        put("compiler.compile_s", mean("compiler.compile"), "compiler.compile")
        put("compiler.locations",
            sum(len(a.model.all_locations()) for a in arenas) / len(arenas) if arenas else 0.0,
            "compiler.compile")
        put("compiler.arena_json_bytes",
            sum(arena_json_bytes(a) for a in arenas) / len(arenas) if arenas else 0.0,
            "compiler.compile")
        put("compiler.to_json_s", mean("compiler.to_json"), "compiler.to_json")
        put("compiler.from_json_s", mean("compiler.from_json"), "compiler.from_json")

        put("tcm.run_s", mean("tcm.run"), "tcm.run")
        put("tcm.run_calls_per_op", per_op(ncounted.get("tcm.run", 0)), "tcm.run")

        put("rha.validate_s", mean("rha.validate"), "rha.validate")
        put("rha.classify_s", mean("rha.classify"), "rha.classify")
        put("rha.timed_step_us", mean("rha.timed_step", 1e6), "rha.timed_step")
        put("rha.timed_step_calls", per_op(ncounted.get("rha.timed_step", 0)), "rha.timed_step")
        put("rha.available_moves_us", mean("rha.available_moves", 1e6), "rha.available_moves")

        # Moves: playouts inside operations; counts over counted operations.
        moves = short_moves = long_moves = 0
        play_time = short_time = long_time = play_self = 0.0
        counted_moves = 0
        bits = 0
        for idx, (steps, top_bits) in self.playouts.items():
            if not ops[idx]:
                continue
            moves += steps
            play_time += dur[idx]
            play_self += dur[idx] - child[idx]
            if steps <= SHORT_PLAYOUT:
                short_moves += steps
                short_time += dur[idx]
            else:
                long_moves += steps
                long_time += dur[idx]
            if counted[idx]:
                counted_moves += steps
                bits = max(bits, top_bits)
        in_play_moves = sum(
            1 for i in range(n) if counted[i] and names[i] == "rha.available_moves" and under[i] == "harness.playout"
        )
        put("rha.available_moves_per_move", in_play_moves / counted_moves if counted_moves else 0.0,
            "rha.available_moves", "harness.playout")
        put("harness.moves_per_op", per_op(counted_moves), "harness.playout")
        put("harness.move_us", play_time / moves * 1e6 if moves else 0.0, "harness.playout")
        us_1k = short_time / short_moves * 1e6 if short_moves else 0.0
        us_10k = long_time / long_moves * 1e6 if long_moves else 0.0
        put("harness.move_us_1k", us_1k, "harness.playout")
        put("harness.move_us_10k", us_10k, "harness.playout")
        put("harness.move_growth", us_10k / us_1k if us_1k and us_10k else 0.0, "harness.playout")
        put("harness.playout_self_us", play_self / moves * 1e6 if moves else 0.0, "harness.playout")
        put("harness.achilles_decision_us", mean(DECISIONS[0], 1e6), "harness.playout")
        put("harness.tortoise_decision_us", mean(DECISIONS[1], 1e6), "harness.playout")
        put("harness.decisions", per_op(ncounted.get(DECISIONS[0], 0) + ncounted.get(DECISIONS[1], 0)),
            "harness.playout")
        put("harness.check_encoding_s", mean("harness.check_encoding"), "harness.check_encoding")
        put("harness.check_time_ledger_s", mean("harness.check_time_ledger"), "harness.check_time_ledger")
        put("harness.export_trace_s", mean("harness.export_trace"), "harness.export_trace")
        put("harness.enumerate_addresses_s", mean("harness.enumerate_addresses"), "harness.enumerate_addresses")
        put("harness.bounded_search_s", mean("harness.bounded_search"), "harness.bounded_search")
        searches = ncounted.get("harness.bounded_search", 0)
        search_steps = sum(
            1 for i in range(n) if counted[i] and names[i] == "rha.timed_step" and under[i] == "harness.bounded_search"
        )
        put("harness.bounded_search_steps", search_steps / searches if searches else 0.0,
            "harness.bounded_search", "rha.timed_step")
        put("arith.denominator_bits", float(bits), "harness.playout")

        put("rsm.reachable_s", mean("rsm.reachable"), "rsm.reachable")
        put("rsm.terminates_s", mean("rsm.terminates"), "rsm.terminates")
        put("rsm.solve_reach_s", mean("rsm.solve_reach"), "rsm.solve_reach")
        put("rsm.solve_term_s", mean("rsm.solve_term"), "rsm.solve_term")
        tables = [v for i, v in self.tables.items() if counted[i]]
        put("rsm.summary_entries", sum(tables) / len(tables) if tables else 0.0, "rsm.solve_reach", "rsm.solve_term")
        queried = [m for i, m in self.models.items() if counted[i]]
        put("rsm.locations",
            sum(len(m.all_locations()) for m in queried) / len(queried) if queried else 0.0, "rsm.reachable")
        put("rsm.transitions",
            sum(sum(len(c.transitions) for c in m.components) for m in queried) / len(queried) if queried else 0.0,
            "rsm.reachable")
        by_size = {"small": [0.0, 0], "large": [0.0, 0]}
        for i, model in self.models.items():
            if timed[i] and names[i] in RSM_QUERIES:
                cell = by_size["large" if len(model.all_locations()) > LARGE_RSM else "small"]
                cell[0] += dur[i]
                cell[1] += 1
        for size, (spent, count) in by_size.items():
            put(f"rsm.{size}_query_s", spent / count if count else 0.0, "rsm.reachable")
        put("games.attractor_s", mean("games.attractor"), "games.attractor")
        sizes = [v for i, v in self.attractors.items() if counted[i]]
        put("games.attractor_states", sum(sizes) / len(sizes) if sizes else 0.0, "games.attractor")
        return out


def arena_json_bytes(arena) -> int:
    """Bytes of the arena and sidecar files as ``rhagames compile --out`` writes them."""
    from rhagames.compiler import arena_to_json

    model_json, sidecar = getattr(arena_to_json, "__wrapped__", arena_to_json)(arena)
    return sum(len((json.dumps(d, indent=2, sort_keys=True) + "\n").encode("utf-8")) for d in (model_json, sidecar))
