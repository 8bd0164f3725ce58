"""Command-line entry point for the experiment sweeps.

Each subcommand starts from the published default grid for its experiment
kind and graph family (--family, else the config file's family), applies
overrides from an optional JSON config object (ExperimentConfig fields the
kind reads, others only at their published values; "train" holds
TrainConfig fields, those that the kind's variants set only at their
published values), then the explicit flags, and writes results.csv /
summary.json to the output directory. A subcommand takes --family and
--seeds only when its kind reads that field.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, replace

from .adversarial import TrainConfig
from .experiments import (FAMILIES, READS, VARIANTS, ExperimentConfig, default_config,
                          run_experiment, summarize, write_outputs)

SUBCOMMANDS = {
    "asymptotic": "asymptotic_phase",
    "finite": "finite_sample_phase",
    "smrm": "smrm_gaps",
    "ntk": "ntk_convergence",
    "ablate-reset": "reset_ablation",
    "ablate-averaging": "averaging_ablation",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parse_args leaves it as
    it was, and each call to main would otherwise rebuild it."""
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
        if "family" in READS[kind]:
            p.add_argument("--family", choices=FAMILIES, help="graph family of the grid")
        if "seeds" in READS[kind]:
            p.add_argument("--seeds", type=int, metavar="N", help="use seeds 0..N-1")
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (1 = run serially)")
        p.add_argument("--traces", action="store_true",
                       help="also write per-run trace and assignment CSVs")
    return parser


def config_from_args(args) -> ExperimentConfig:
    kind = SUBCOMMANDS[args.command]
    overrides = {}
    if args.config:
        with open(args.config) as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ValueError(f"config file must hold a JSON object, got {type(overrides).__name__}")
        file_kind = overrides.pop("kind", kind)
        if file_kind != kind:
            raise ValueError(f"config file kind {file_kind!r} does not match subcommand {kind!r}")
    if args.family:
        overrides["family"] = args.family
    # the family, from --family or else the file, selects the published grid
    cfg = published = default_config(kind, family=overrides.get("family", "circulant"))
    train_overrides = overrides.pop("train", None)
    if train_overrides is not None:
        cfg = replace(cfg, train=TrainConfig(**{**asdict(cfg.train), **train_overrides}))
    cfg = replace(cfg, **overrides)
    unread = [name for name in asdict(cfg) if name not in READS[kind] + ("kind", "write_traces")
              and getattr(cfg, name) != getattr(published, name)]
    # the train fields a kind's variants set: each row takes its variant's value
    varied = dict.fromkeys(name for change in VARIANTS.get(kind, {}).values() for name in change)
    unread += [f"train.{name}" for name in varied
               if getattr(cfg.train, name) != getattr(published.train, name)]
    if unread:
        raise ValueError(f"{kind} does not read config field(s) {', '.join(unread)}")
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
    summary = summarize(cfg, rows)
    write_outputs(cfg, rows, out_dir, summary)
    pers = [s["mean_per"] for s in summary["cells"].values() if "mean_per" in s]
    line = f"{cfg.kind}: {summary['total_rows']} rows, {summary['total_errors']} errors"
    if pers:
        line += f", mean PER over cells {sum(pers) / len(pers):.4f}"
    line += f" -> {out_dir}"
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
