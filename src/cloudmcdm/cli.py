"""Batch command-line front end.

Subcommands: validate, weights, evaluate, compare, droplets. Every run is
driven by one config JSON so results can be archived and replayed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cloud import forward_cloud
from .pipeline import (
    PipelineConfig,
    compare_scenarios,
    compute_weights,
    droplets_csv_bytes,
    load_inputs,
    load_report,
    run_pipeline,
    score_clouds,
)


def _load_config(args) -> PipelineConfig:
    return PipelineConfig.from_json(args.config, seed=args.seed, sigma=args.sigma, tau=args.tau)


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def cmd_validate(args) -> int:
    inputs = load_inputs(_load_config(args))  # the loading half of every other command
    _emit({"ok": True, "leaves": inputs.leaves, "criteria": inputs.hierarchy.criterion_ids()})
    return 0


def cmd_weights(args) -> int:
    cfg = _load_config(args)
    inputs = load_inputs(cfg)
    w = compute_weights(inputs).to_dict()
    extra = {"subjective": {}, "objective": {"indicator_entropy": w["indicator_entropy"]},
             "combined": {"theta": w["theta"]}}
    kinds = [k for k in extra if getattr(args, k)] or list(extra)
    _emit({k: {"criterion": w["criterion"][k], "indicator_global": w["indicator_global"][k], **extra[k]}
           for k in kinds})
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    report = run_pipeline(cfg, out_dir=args.out)
    if args.out is None:
        sys.stdout.write(report.to_json_bytes().decode())
    else:
        print(f"report written to {Path(args.out) / 'report.json'}")
    return 0


def cmd_compare(args) -> int:
    _emit(compare_scenarios(load_report(args.report_a), load_report(args.report_b),
                            names=(args.report_a, args.report_b)))
    return 0


def cmd_droplets(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n: droplet count must be at least 1, got {args.n}")
    cfg = _load_config(args)
    inputs = load_inputs(cfg)
    leaf_clouds, crit_clouds, comprehensive = score_clouds(inputs, compute_weights(inputs), cfg)
    # ids are unique, and a leaf or criterion id shadows "comprehensive"
    clouds = {"comprehensive": comprehensive, inputs.hierarchy.root_id: comprehensive, **crit_clouds, **leaf_clouds}
    if args.level not in clouds:
        raise ValueError(f"unknown level id {args.level!r}")
    try:
        drops = forward_cloud(clouds[args.level], args.n, cfg.seed)
    except (ValueError, MemoryError) as e:  # a count numpy cannot hold
        raise ValueError(f"--n: invalid value {args.n}: {e}") from None
    payload = droplets_csv_bytes(drops)
    if args.out:
        Path(args.out).write_bytes(payload)
    else:
        sys.stdout.write(payload.decode())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cloudmcdm",
                                     description="Combined-weighting cloud-model evaluation")
    parser.add_argument("--seed", type=int, default=None, help="override the config/env seed")
    parser.add_argument("--sigma", type=float, default=None,
                        help="judgment repair pull strength in (0,1)")
    parser.add_argument("--tau", type=float, default=None, help="repair acceptance threshold")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check hierarchy and referenced inputs")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("weights", help="compute weight tables")
    p.add_argument("config")
    p.add_argument("--subjective", action="store_true")
    p.add_argument("--objective", action="store_true")
    p.add_argument("--combined", action="store_true")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("evaluate", help="run the full pipeline")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="directory for report.json, droplets.csv, diagram.svg")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="diff two report files")
    p.add_argument("report_a")
    p.add_argument("report_b")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("droplets", help="export droplets for one hierarchy level")
    p.add_argument("config")
    p.add_argument("--level", required=True, help="leaf/criterion/root id or 'comprehensive'")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_droplets)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        # an OSError names its file as every other input error does: path first
        named = isinstance(e, OSError) and e.filename is not None
        print(f"error: {e.filename}: {e.strerror}" if named else f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
