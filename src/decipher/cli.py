"""Command-line entry point for the experiment sweeps.

Each subcommand starts from the published default grid for its experiment
kind, applies overrides from an optional JSON config file (keys are
ExperimentConfig fields; "train" holds TrainConfig fields), then the explicit
flags, and writes results.csv / summary.json to the output directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace

from .adversarial import TrainConfig
from .experiments import (VARIANTS, ExperimentConfig, default_config, run_experiment, summarize,
                          write_outputs)

SUBCOMMANDS = {
    "asymptotic": "asymptotic_phase",
    "finite": "finite_sample_phase",
    "smrm": "smrm_gaps",
    "ntk": "ntk_convergence",
    "ablate-reset": "reset_ablation",
    "ablate-averaging": "averaging_ablation",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decipher",
        description="Phase-transition sweeps, gap statistics, kernel dynamics, and ablations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, kind in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=f"run the {kind} experiment")
        p.add_argument("--config", default=None, metavar="FILE",
                       help="JSON file of ExperimentConfig overrides")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default decipher_out/<kind>)")
        p.set_defaults(family=None, seeds=None)
        if kind == "asymptotic_phase" or kind in VARIANTS:  # the grid kinds
            p.add_argument("--family", choices=("circulant", "de_bruijn", "hypercube"),
                           help="graph family for grid experiments")
            p.add_argument("--seeds", type=int, metavar="N", help="use seeds 0..N-1 per cell")
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (1 = run serially)")
        p.add_argument("--traces", action="store_true",
                       help="also write per-run trace and assignment CSVs")
    return parser


def config_from_args(args) -> ExperimentConfig:
    kind = SUBCOMMANDS[args.command]
    cfg = default_config(kind, family=args.family or "circulant")
    if args.config:
        with open(args.config) as fh:
            overrides = json.load(fh)
        if "kind" in overrides and overrides["kind"] != kind:
            raise ValueError(
                f"config file kind {overrides['kind']!r} does not match subcommand {kind!r}")
        overrides.pop("kind", None)
        train_overrides = overrides.pop("train", None)
        if train_overrides is not None:
            cfg = replace(cfg, train=TrainConfig(**{**asdict(cfg.train), **train_overrides}))
        cfg = replace(cfg, **overrides)
    if args.family and cfg.family != args.family:
        cfg = replace(cfg, family=args.family)
    if args.seeds is not None:
        cfg = replace(cfg, seeds=tuple(range(args.seeds)))
    if args.traces:
        cfg = replace(cfg, write_traces=True)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = run_experiment(cfg, jobs=args.jobs)
    out_dir = args.out or f"decipher_out/{cfg.kind}"
    write_outputs(cfg, rows, out_dir)
    summary = summarize(cfg, rows)
    pers = [s["mean_per"] for s in summary["cells"].values() if "mean_per" in s]
    line = f"{cfg.kind}: {summary['total_rows']} rows, {summary['total_errors']} errors"
    if pers:
        line += f", mean PER over cells {sum(pers) / len(pers):.4f}"
    line += f" -> {out_dir}"
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
