"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --runs 10 [--workloads gemv_battery,...]
                                [--first-seed 1] [--trace 0] [--out FILE]
                                [--compare FILE]

Runs ``perfbench/run.py`` once per seed and workload, one run at a time,
for the ``run_seconds`` that ``BENCHMARK.json`` fixes.  For every metric it
prints the median and the quartile spread, (Q3 - Q1) / median, with the
quartiles of ``statistics.quantiles(values, n=4)``, and flags an end-to-end
metric whose spread exceeds a third of its bound.  ``--out`` writes every
run's report and the summary as JSON; ``baseline.json`` was written so.
``--compare`` takes an earlier ``--out`` file of the same seeds and prints,
for every bounded metric, how much worse this set's median is than that
one's, as a share of that median, flagging a difference beyond the bound.
The exit code is 1 if any run failed or any metric was flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def worse_by(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``;
    negative when it is better."""
    change = (after - before) / before
    return change if better == "lower" else -change


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    reports = [line[len("report "):] for line in lines if line.startswith("report ")]
    if proc.returncode != 0 or not reports:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return {"report": json.loads(reports[-1]), "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    earlier = (json.loads(Path(args.compare).read_text())["summary"]
               if args.compare else {})
    summary = {}
    runs = {}
    steady = True
    for workload in args.workloads.split(","):
        runs[workload] = [run_once(workload, seed, bench["run_seconds"], args.trace)
                          for seed in range(args.first_seed,
                                            args.first_seed + args.runs)]
        first_metrics = runs[workload][0]["report"]["metrics"]
        summary[workload] = {}
        for name, first in first_metrics.items():
            values = [r["report"]["metrics"][name]["value"] for r in runs[workload]]
            row = {"unit": first["unit"], "clock": first["clock"],
                   "median": statistics.median(values), "spread": spread(values),
                   "values": values}
            summary[workload][name] = row
            bound = bounds.get(name)
            flag = ""
            if bound is not None and row["spread"] > bound / 3:
                flag, steady = "  spread above bound/3", False
            before = earlier.get(workload, {}).get(name)
            if bound is not None and before is not None:
                row["worse_than_compared"] = worse_by(
                    before["median"], row["median"], better[name])
                flag += f"  worse by {row['worse_than_compared']:+7.2%}"
                if row["worse_than_compared"] > bound:
                    flag, steady = flag + " (beyond bound)", False
            print(f"{workload:14} {name:28} median {row['median']:14.6g} "
                  f"{row['unit']:6} spread {row['spread']:7.2%}{flag}")
        failed = sum(r["result"]["failed"] for r in runs[workload])
        print(f"{workload:14} failed operations: {failed}")
        steady = steady and failed == 0
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"run_seconds": bench["run_seconds"], "trace": args.trace,
             "compared_with": args.compare, "summary": summary,
             "runs": {w: [r["report"] for r in rs] for w, rs in runs.items()}},
            indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
