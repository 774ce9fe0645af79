"""Record a baseline: two sets of ten runs per workload.

    python3 perfbench/baseline.py

Runs ``run.py`` once per seed (seeds 1 .. 10) on every workload in
``BENCHMARK.json``, one run at a time, and then the whole set once more,
as a second set of the same code; then one traced run per workload.  It
prints each run's summary (every end-to-end metric with its unit and
sample count).  For each set and end-to-end metric it stores the values,
their median and quartiles (``statistics.quantiles(n=4)``) and the
spread, the distance between the quartiles as a share of the median; for
each metric it also stores how much worse the second median is than the
first, as a share of the first.  It flags a spread above a third of the
metric's bound and a change of the median above the bound.  The
environment (Python, ``nproc``, CPU model) is recorded with the numbers
in ``perfbench/baseline.json``.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
SETS = 2


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable] + command[1:] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["summary"] = lines[:-1]
    result["exit"] = proc.returncode
    result["wall_s"] = time.perf_counter() - t0
    return result


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    out = {
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "run_seconds": bench["run_seconds"],
        },
        "seeds": SEEDS,
        "workloads": {name: {"sets": []} for name in names},
    }
    failed = False
    for set_no in range(1, SETS + 1):
        for name in names:
            runs = []
            for seed in SEEDS:
                result = run(bench["command"], name, seed, bench["run_seconds"], 0)
                runs.append(result)
                failed |= result["exit"] != 0 or result["failed"] > 0
                print("\n".join(result["summary"]) + f"\n  exit {result['exit']}, wall {result['wall_s']:.1f} s",
                      flush=True)
            metrics = {k: summary([r["metrics"][k]["value"] for r in runs]) for k in bounds}
            for k, s in metrics.items():
                mark = "" if s["spread"] < bounds[k] / 3 else "  (above a third of the bound)"
                print(f"set {set_no} {name} {k}: median {s['median']:.6g} spread {s['spread']:.4f} "
                      f"bound {bounds[k]}{mark}", flush=True)
            out["workloads"][name]["sets"].append({
                "end_to_end": metrics,
                "attempted": [r["attempted"] for r in runs],
                "failed": [r["failed"] for r in runs],
                "wall_s": [round(r["wall_s"], 2) for r in runs],
            })
    for name in names:
        first, second = (s["end_to_end"] for s in out["workloads"][name]["sets"])
        worse = {}
        for k in bounds:
            change = second[k]["median"] / first[k]["median"] - 1.0
            worse[k] = change if lower[k] else -change
            mark = "" if worse[k] <= bounds[k] else "  (above the bound)"
            print(f"{name} {k}: second median worse by {worse[k]:+.4f} bound {bounds[k]}{mark}", flush=True)
        traced = run(bench["command"], name, SEEDS[0], bench["run_seconds"], 1)
        failed |= traced["exit"] != 0 or traced["failed"] > 0
        out["workloads"][name].update({
            "second_median_worse_by": worse,
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        })
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
