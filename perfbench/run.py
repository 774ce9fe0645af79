"""Benchmark of the rhagames package, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: the package is imported from ``src/`` next to this
directory, and scratch files go to ``.perfbench_work/`` in the checkout,
which is removed again at exit.  One process and one thread run the
operations back to back (a closed loop), repeating the workload's pass of
distinct operations until ``--seconds`` of operation time are spent and
the pass is whole.

``--trace 0`` measures the end-to-end metrics.  Their times are in
reference seconds: on a shared host the same code runs up to half again
as slow for minutes at a time, so each timed operation and set-up is
divided by the time of a fixed pure-Python reference loop run right
before and after it, and multiplied by ``REFERENCE_S``, the loop's time
on an idle core.  Host slowdowns stretch both alike and cancel; a change
to the package moves only the operation.  ``--trace 1`` runs every
operation twice, once plain and once with the package's public functions
wrapped in spans (in alternating order), and reports the per-layer
metrics plus the tracing overhead over the same operations.  Both print
a readable summary, then one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when an output check
failed and 2 when the package cannot be found.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5  # imports and set-ups per run; setup_s adds their medians
# fastest time of reference_loop on the host of perfbench/baseline.json (a
# 2-core "Intel(R) Xeon(R) Processor", Python 3.11); a fixed constant
REFERENCE_S = 0.0036
# after each timed call the reference loop runs for at least this share of
# the call's time, so that a long call is compared with more of the host's
# state than one loop's few milliseconds
REFERENCE_SHARE = 0.05

# end-to-end metrics in the result line, with their units
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB"))
MIN_P90_SAMPLES = 100  # a 90th percentile needs ten samples above it


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, also write every span to this TSV file")
    return parser.parse_args(argv)


def reference_loop() -> int:
    """Fixed work of the kind the package does (Fraction arithmetic with
    growing denominators, tuple keys, dict stores); it never changes."""
    table = {}
    x = Fraction(1, 3)
    for i in range(600):
        x = (x * 3 + Fraction(i, 7)) / 5
        table[(i, i % 13)] = x.denominator & 0xFF
    return len(table)


def reference_seconds(at_least: float = 0.0) -> float:
    """Mean time of the reference loop, run once and then again until
    the runs take ``at_least`` seconds."""
    times = []
    while not times or sum(times) < at_least:
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return sum(times) / len(times)


def in_reference_units(fn) -> float:
    """Wall time of ``fn()`` over the mean time of the reference loop
    just before and just after it."""
    before = reference_seconds()
    t0 = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - t0
    return elapsed / ((before + reference_seconds(REFERENCE_SHARE * elapsed)) / 2)


def import_seconds() -> float:
    """Median time, over ``SETUP_REPEATS`` fresh interpreters, from
    process start until the package and the workloads are imported, in
    reference seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    cmd = [sys.executable, "-c", "import rhagames.cli, workloads"]
    times = [in_reference_units(lambda: subprocess.run(cmd, cwd=ROOT, env=env, check=True))
             for _ in range(SETUP_REPEATS)]
    return statistics.median(times) * REFERENCE_S


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Measurement:
    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.latencies = []  # seconds per operation (plain runs)
        self.cost = {}  # per distinct operation: plain runs in reference units
        self.references = []  # reference loop times around plain runs
        self.op_moves = {}  # playout moves of each distinct operation
        self.traced_latencies = []
        self.failed = 0
        self.problems = []
        self.digest = hashlib.sha256()

    def execute(self, i: int, traced: bool):
        """Run operation ``i`` once, time it, then check its output."""
        from spans import CHECK, NullTracer

        wl = self.workload
        if traced:
            self.tracer.install()
            self.tracer.op = i
            wl.tracer = self.tracer
        else:
            wl.tracer = NullTracer()
        plain = self.tracer is None
        if plain:
            before = reference_seconds()
        error = None
        t0 = time.perf_counter()
        try:
            result = wl.run(i)
        except Exception as exc:  # an operation that raises counts as failed
            result, error = None, exc
        elapsed = time.perf_counter() - t0
        if traced:
            self.tracer.uninstall()
            self.tracer.op = CHECK
        elif plain:
            after = reference_seconds(REFERENCE_SHARE * elapsed)
            self.references += [before, after]
            self.cost.setdefault(i % wl.period, []).append(elapsed / ((before + after) / 2))
        if error is None:
            try:
                problems = wl.check(i, result)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [f"raised {type(error).__name__}: {error}"]
        return elapsed, result, problems

    def record(self, i: int, result, problems, first: bool) -> None:
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"op {i}: {'; '.join(problems)}")
            return
        if first:
            self.op_moves[i % self.workload.period] = self.workload.moves(result)
            if i < self.workload.counted_ops:
                self.digest.update(json.dumps(self.workload.digest_items(i, result)).encode())

    def loop(self, seconds: float) -> None:
        wl = self.workload
        paired = self.tracer is not None
        min_ops = wl.counted_ops if paired else 1
        spent = 0.0
        i = 0
        while not (spent >= seconds and i >= min_ops and i % wl.period == 0):
            order = (False, True) if i % 2 == 0 else (True, False)
            for traced in order if paired else (False,):
                elapsed, result, problems = self.execute(i, traced)
                (self.traced_latencies if traced else self.latencies).append(elapsed)
                self.record(i, result, problems, first=not traced)
                spent += elapsed
                del result
            i += 1

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.traced_latencies)


def run(args, workdir: Path) -> int:
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    make = WORKLOADS[args.workload]
    tracer = spans.Tracer(make.counted_ops) if args.trace else None
    import_s = 0.0 if tracer else import_seconds()

    setups = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        workload = make(args.seed, workdir, spans.NullTracer())
        if tracer:
            tracer.install()
        setups.append(in_reference_units(workload.setup) * REFERENCE_S)
        if tracer:
            tracer.uninstall()
    setup_s = import_s + statistics.median(setups)

    m = Measurement(workload, tracer)
    m.loop(args.seconds)
    rss = peak_rss_mb()

    ops = len(m.latencies)
    timed = sum(m.latencies)
    costs = [statistics.median(c) * REFERENCE_S for c in m.cost.values()]
    samples = [x * REFERENCE_S for c in m.cost.values() for x in c]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{m.attempted} operations attempted, {m.failed} failed, timed phase {timed:.3f} s")
    for line in m.problems:
        print(f"  FAILED {line}")
    metrics = {}
    if not tracer:
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(costs) / sum(costs),
            "op_p50_s": statistics.median(samples),
            "peak_rss_mb": rss,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        notes = {
            "setup_s": f"start and imports {import_s:.4f} s + set-up {statistics.median(setups):.4f} s "
                       f"(medians of {SETUP_REPEATS})",
            "ops_per_s": f"{len(costs)} operations, median of {ops // len(costs)} passes each",
            "op_p50_s": f"{len(samples)} samples",
            "peak_rss_mb": "ru_maxrss",
        }
        for name, unit in END_TO_END:
            print(f"  {name:<14} {values[name]:>14.6f} {unit:<5} {notes[name]}")
        if len(samples) >= MIN_P90_SAMPLES:
            p90 = statistics.quantiles(samples, n=10, method="inclusive")[-1]
            print(f"  {'op_p90_s':<14} {p90:>14.6f} {'s':<5} {len(samples)} samples")
        moves = sum(m.op_moves.values())
        if moves:
            print(f"  {'moves_per_s':<14} {moves / sum(costs):>14.1f} {'1/s':<5} {moves} moves a pass")
        print(f"  {'wall_ops_per_s':<14} {ops / timed:>14.4f} {'1/s':<5} not in reference seconds; the reference loop "
              f"took {statistics.median(m.references) * 1e3:.3f} ms (median of {len(m.references)}), "
              f"REFERENCE_S is {REFERENCE_S * 1e3:.3f} ms")
        print(f"  {'fail_share':<14} {m.failed / m.attempted:>14.6f} {'1':<5} {m.failed}/{m.attempted} operations")
    else:
        traced = sum(m.traced_latencies)
        layer = tracer.metrics()
        layer["trace.ops_per_s"] = len(m.traced_latencies) / traced
        layer["trace.untraced_ops_per_s"] = ops / timed
        layer["trace.overhead"] = traced / timed - 1.0
        units = spans.load_units(HERE / "metrics.json")
        for name in sorted(layer):
            print(f"  {name:<30} {layer[name]:>16.6f} {units.get(name, '')}")
        if tracer.missing:
            print(f"  hooks not found, their metrics left out: {', '.join(sorted(tracer.missing))}")
        counts = {name: layer[name] for name in spans.COUNT_METRICS if name in layer}
        counts["digest"] = m.digest.hexdigest()[:16]
        counts["counted_ops"] = workload.counted_ops
        print("counts " + json.dumps(counts, sort_keys=True))
        if args.spans:
            tracer.write_spans(args.spans)
        metrics = {name: {"value": value, "unit": units.get(name, "1")} for name, value in sorted(layer.items())}

    correct = m.failed == 0
    print(json.dumps({"correct": correct, "attempted": m.attempted, "failed": m.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rhagames" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'rhagames'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import rhagames

    if Path(rhagames.__file__).resolve().parent != (SRC / "rhagames").resolve():
        print(f"error: imported rhagames from {rhagames.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
