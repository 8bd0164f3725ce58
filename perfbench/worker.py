"""One benchmark process: set up a workload, time its passes, check outputs.

Started by ``run.py``, which pins BLAS to one thread in this process's
environment and passes ``--t0``, its monotonic clock reading just before
the start, so that set-up time includes interpreter start. Writes its
measurements to ``<out>/worker.json``.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --out DIR --t0 T [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def main(argv=None) -> int:
    args = parse_args(argv)
    import numpy as np

    sys.path.insert(0, str(ROOT / "src"))
    t_import = time.monotonic()
    import decipher.cli as cli
    import_s = time.monotonic() - t_import
    if Path(cli.__file__).resolve().parents[2] != ROOT:
        raise SystemExit(f"imported decipher from {cli.__file__}, not from {ROOT / 'src'}")

    import checks
    import spans
    import workloads

    out = args.out
    configs = {}
    for name, cfg in {**workloads.warmup(args.workload, args.seed),
                      **workloads.sweep(args.workload, args.seed)}.items():
        path = out / "configs" / f"{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(cfg, indent=1) + "\n")
        configs[name] = (workloads.SUBCOMMAND[cfg["kind"]], path)

    def call(name: str, out_dir: Path) -> int:
        sub, path = configs[name]
        return cli.main([sub, "--config", str(path), "--out", str(out_dir), "--jobs", "1"])

    codes = [call(name, out / "warmup") for name in workloads.warmup(args.workload, args.seed)]
    setup_s = time.monotonic() - args.t0
    report = {"setup_s": setup_s, "cli_import_s": import_s}
    if args.setup_only:
        (out / "worker.json").write_text(json.dumps(report) + "\n")
        return 0

    sweep = list(workloads.sweep(args.workload, args.seed))

    def run_pass(k: int) -> None:
        for name in sweep:
            codes.append(call(name, out / f"pass{k}" / name))

    # Passes run until the next one would end past --seconds, and there are
    # at least MIN_PASSES of them, so that sweep_s is a median and the
    # passes' results can be compared. A trace run alternates an untraced and
    # a traced pass, for the tracing overhead.
    untraced, traced, tracers = [], [], []
    start = time.monotonic()
    while True:
        k = len(untraced) + len(traced)
        t0 = time.monotonic()
        run_pass(k)
        untraced.append(time.monotonic() - t0)
        if args.trace:
            tracer = spans.Tracer()
            with spans.instrument(tracer):
                traced_pass = tracer.wrap("bench.pass", run_pass)
                t0 = time.monotonic()
                traced_pass(k + 1)
                traced.append(time.monotonic() - t0)
            tracers.append(tracer)
        per_round = statistics.median(untraced) + (statistics.median(traced) if traced else 0.0)
        if (len(untraced) + len(traced) >= MIN_PASSES
                and time.monotonic() - start + per_round > args.seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # checks, outside the timed passes
    passes = len(untraced) + len(traced)
    failures: dict[str, list[str]] = {"cli exit codes": [f"exit code {c}" for c in codes if c]}
    cells = error_cells = 0
    for name in sweep:
        paths = [out / f"pass{k}" / name / "results.csv" for k in range(passes)]
        missing = [str(p) for p in paths if not p.is_file()]
        if missing:
            failures[f"{name}: results.csv written"] = missing
            continue
        per_pass = [checks.read_rows(p) for p in paths]
        cells += sum(len(rows) for rows in per_pass)
        error_cells += sum(1 for rows in per_pass for r in rows if r["error"])
        cfg = json.loads(configs[name][1].read_text())
        found = checks.for_call(cfg, per_pass[0], paths)
        failures.update({f"{name}: {check}": msgs for check, msgs in found.items()})
    if args.workload == "sampled_gan":
        failures["gradients"] = checks.gradients()
    failed_checks = {check: msgs for check, msgs in failures.items() if msgs}

    report.update(
        pass_s=untraced, peak_rss_mb=peak_rss_mb, passes=passes,
        cells_attempted=cells, cells_failed=error_cells,
        checks_run=len(failures), checks_failed=failed_checks,
        python=platform.python_version(), numpy=np.__version__, blas=blas_info(np),
        nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
    )
    if args.trace:
        mid = sorted(range(len(traced)), key=traced.__getitem__)[(len(traced) - 1) // 2]
        layers = spans.layer_metrics(tracers[mid])
        layers["cli.import_s"] = import_s
        layers["trace.untraced_sweep_s"] = statistics.median(untraced)
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        report.update(traced_pass_s=traced, layers=layers)
        for k, tracer in enumerate(tracers):
            tracer.write(out / f"spans_traced{k}.npz")
    (out / "worker.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
