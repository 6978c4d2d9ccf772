"""Steadiness report: run each workload N times, each with its own
seed, and print every end-to-end metric's spread next to its bound.

    python3 perfbench/steadiness.py --runs 10 [--workload warm-serve ...]

Spread is the interquartile distance of the N values (Python's
``statistics.quantiles(values, n=4)``) as a share of their median.  A
metric is steady when its spread is below a third of its bound; the
bound itself is the most a later change may worsen the metric's median.
``setup_s`` has no spread requirement, only the median comparison.
Raw values go to ``.perfbench_out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict[str, object]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="default: every workload in BENCHMARK.json")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    raw: dict[str, list[dict[str, object]]] = {}
    steady = True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, args.seconds)
            results.append(result)
            print(f"  {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        raw[workload] = results
        print(f"{workload}  ({args.runs} runs)")
        print(f"  {'metric':20s} {'median':>12s} {'spread':>8s} "
              f"{'bound':>6s}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            median, share = spread(values)
            bound = metric["bound"]
            if name == "setup_s":
                verdict = "median only"
            elif share <= bound / 3:
                verdict = "steady"
            elif share <= bound:
                verdict = "within bound, not below a third"
                steady = False
            else:
                verdict = "TOO WIDE"
                steady = False
            print(f"  {name:20s} {median:12.4f} {share:8.4f} {bound:6.3f}  "
                  f"{verdict}", flush=True)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(raw, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
