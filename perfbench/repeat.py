"""Run the benchmark on consecutive seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --runs 10 --first-seed 0 [--out summary.json]

Every workload of BENCHMARK.json runs untraced (``--trace 0``); for a
traced run call ``run.py`` directly. For every workload and metric it
prints the median, the quartiles (as ``statistics.quantiles(values, n=4)``
gives them) and the spread, the distance between the quartiles as a
share of the median. Run length is ``run_seconds`` from BENCHMARK.json.
Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 for quartiles")

    summary = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed), "--seconds",
                                      str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            results.append(json.loads(done.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: {results[-1]}", file=sys.stderr, flush=True)
        metrics = {name: summarise([r["metrics"][name]["value"] for r in results])
                   for name in results[0]["metrics"]}
        summary[workload] = {
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "correct": all(r["correct"] for r in results),
            "failed_share": [r["failed"] / r["attempted"] for r in results],
            "metrics": metrics,
        }
        for name, m in metrics.items():
            print(f"{workload:12s} {name:28s} median {m['median']:11.4f}  "
                  f"q1 {m['q1']:11.4f}  q3 {m['q3']:11.4f}  spread {m['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
