"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py

For each workload in ``BENCHMARK.json`` it makes three short runs of
``run.py``, one after the other: two traced runs with seed 1, whose
counts (the count metrics and the digest of the RSM winners) must be
identical, and one untraced run with seed 2, which must report no failed
operation.
The first traced run also writes its spans, which must nest properly.
It also checks that the metrics each run prints are exactly the ones
``BENCHMARK.json`` lists, with the units ``metrics.json`` gives.
Exits 1 when any check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1


def run(workload: str, seed: int, trace: int, spans: Path = None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)] + (["--spans", str(spans)] if spans else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing (exit {proc.returncode}): {proc.stderr[-500:]}")
    counts = next((json.loads(line[len("counts "):]) for line in lines if line.startswith("counts ")), None)
    return proc.returncode, json.loads(lines[-1]), counts


def span_problems(path: Path) -> list:
    """The span file has one well-formed line per span, each parent
    opened before its child and enclosing it."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    rows = [line.split("\t") for line in lines]
    if not rows or any(len(r) != 6 for r in rows):
        return [f"{path.name}: malformed span lines"]
    spans = [(int(r[2]), float(r[4]), float(r[5])) for r in rows]
    for i, (parent, start, end) in enumerate(spans):
        if start > end or parent >= i or (parent >= 0 and not spans[parent][1] <= start <= end <= spans[parent][2]):
            return [f"{path.name}: span {i} is not nested in its parent {parent}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {name: spec["unit"] for name, spec in
             json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))["per_layer"].items()}
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    if want[1] != units:
        problems.append("per_layer in BENCHMARK.json differs from metrics.json")
    for name in (w["name"] for w in bench["workloads"]):
        span_file = ROOT / ".perfbench_work" / f"selfcheck-{name}.tsv"
        span_file.parent.mkdir(exist_ok=True)
        first = run(name, SEED, 1, span_file)
        problems += span_problems(span_file)
        span_file.unlink()
        second = run(name, SEED, 1)
        other = run(name, SEED + 1, 0)
        for trace, (code, result, _counts) in ((1, first), (1, second), (0, other)):
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace {trace}: metrics {sorted(set(got) ^ set(want[trace]))} differ")
            if code != 0 or result["failed"] or not result["correct"]:
                problems.append(f"{name} trace {trace}: exit {code}, {result['failed']} of {result['attempted']} failed")
        if first[2] != second[2]:
            diff = sorted(k for k in first[2] if first[2].get(k) != second[2].get(k))
            problems.append(f"{name}: counts differ between two runs of seed {SEED}: {diff}")
        print(f"{name}: counts {json.dumps(first[2], sort_keys=True)}")
        print(f"{name}: seed {SEED + 1} ran {other[1]['attempted']} operations, {other[1]['failed']} failed")
    try:
        (ROOT / ".perfbench_work").rmdir()
    except OSError:
        pass  # a run elsewhere still uses it
    for line in problems:
        print(f"FAILED {line}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
