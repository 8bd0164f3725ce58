"""Benchmark entry point: time one workload of the decipher sweeps.

    python3 perfbench/run.py --workload exact_tiled|sampled_gan|ntk_flow \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/decipher`` beside this
directory). Set-up is measured SETUP_REPS times, each in a fresh process
that starts the interpreter, imports decipher, writes the workload's
configs and runs a warm-up cell; the last of them goes on to the timed
passes and the output checks. Workers run with BLAS pinned to one thread.
Every run writes ``metrics.json`` and ``manifest.json`` under
``perfbench/runs/<run id>/`` and prints one JSON result as its last line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced pass with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_REPS = 7
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# the whole run, every process included, must end within 180 s
DEADLINE_S = 170.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Time one workload of the decipher sweeps.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_worker(args, out: Path, deadline: float, setup_only: bool) -> dict:
    env = {**os.environ, **BLAS_THREADS}
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    # worker output goes to stderr: the result line must be the last of stdout
    subprocess.run(cmd + ["--t0", repr(t0)], env=env, stdout=sys.stderr, check=True,
                   timeout=max(deadline - t0, 1.0))
    return json.loads((out / "worker.json").read_text())


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "decipher" / "cli.py").is_file():
        print(f"error: no decipher sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_dir = HERE / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    try:
        probes = [run_worker(args, run_dir / f"setup{i}", deadline, setup_only=True)
                  for i in range(SETUP_REPS - 1)]
        report = run_worker(args, run_dir / "timed", deadline, setup_only=False)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark worker failed: {exc}", file=sys.stderr)
        return 1

    setup_samples = [p["setup_s"] for p in probes] + [report["setup_s"]]
    checks_failed = report["checks_failed"]
    attempted = report["cells_attempted"] + report["checks_run"]
    failed = report["cells_failed"] + len(checks_failed)
    if args.trace:
        values = report["layers"]
    else:
        values = {"sweep_s": statistics.median(report["pass_s"]),
                  "peak_rss_mb": report["peak_rss_mb"],
                  "setup_s": statistics.median(setup_samples)}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        print(f"error: no value for metrics {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    result = {"correct": not checks_failed and report["cells_failed"] == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    manifest = {
        "workload": args.workload, "workload_seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": report["python"],
        "numpy": report["numpy"], "blas": report["blas"], "blas_threads": BLAS_THREADS,
        "nproc": report["nproc"], "affinity_cpus": report["affinity"],
        "cells_attempted": report["cells_attempted"], "cells_failed": report["cells_failed"],
        "checks_run": report["checks_run"], "checks_failed": checks_failed,
        "passes": report["passes"], "pass_s": report["pass_s"],
        "traced_pass_s": report.get("traced_pass_s"), "setup_s_samples": setup_samples,
        "cli_import_s": report["cli_import_s"],
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    (run_dir / "metrics.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
