"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/steady.py [--workload NAME ...] [--seeds 1-10] [--seconds 10]
                            [--trace 0|1] [--json PATH]

Run from the root of a checkout.  For every workload and end-to-end metric
it prints the median over the seeds, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median, next
to the metric's bound from BENCHMARK.json.  Any run that exits non-zero or
reports correct=false is listed and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--json", help="also write every run's result here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    problems = []
    results: dict = {}
    for workload in args.workload or names:
        runs = []
        for seed in parse_seeds(args.seeds):
            command = [*spec["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
            elapsed = time.perf_counter() - start
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if done.returncode != 0 or result is None or not result["correct"]:
                problems.append(f"{workload} seed {seed}: exit {done.returncode}; "
                                f"{done.stderr.strip()[-300:]}")
            runs.append({"seed": seed, "exit": done.returncode, "elapsed_s": elapsed,
                         "result": result})
            print(f"{workload} seed {seed}: exit {done.returncode} in {elapsed:.1f} s", flush=True)
        results[workload] = runs
        metrics = sorted({k for r in runs if r["result"] for k in r["result"]["metrics"]})
        for metric in metrics:
            values = [r["result"]["metrics"][metric]["value"] for r in runs if r["result"]]
            if len(values) < 2 or metric not in bounds:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            print(f"  {workload:<15} {metric:<12} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:6.3f}  bound {bounds[metric]}", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
