"""Run the benchmark once per seed and report each metric's spread across seeds.

    python3 perfbench/spread.py --workload psi-cold --seeds 1-10 [--seconds 30] [--out FILE]

For every workload and end-to-end metric it prints the median of the per-seed
values and the interquartile distance as a share of that median
(``statistics.quantiles(values, n=4)``), the figure each metric's bound in
BENCHMARK.json must exceed.  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="also write the summary as JSON to this file")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            lines = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                   check=True).stdout.splitlines()
            result = json.loads(lines[-1])
            ok &= result["correct"] and result["failed"] == 0
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed={seed} correct={result['correct']} " + " ".join(
                f"{name}={values[name][-1]:.5g}" for name in bounds), flush=True)
        rows = {}
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median, "bound": bounds[name], "values": series}
            print(f"  {workload:<16} {name:<14} median={median:<12.6g} "
                  f"spread={rows[name]['spread']:.4f} bound={bounds[name]}")
        summary["workloads"][workload] = rows
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
