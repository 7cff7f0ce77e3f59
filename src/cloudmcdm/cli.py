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
from .hierarchy import leaf_indicators, validate_hierarchy
from .iahp import RepairError
from .pipeline import (
    EvaluationReport,
    PipelineConfig,
    compare_scenarios,
    compute_weights,
    droplets_csv_bytes,
    load_inputs,
    run_pipeline,
    score_clouds,
)


def _load_config(args) -> PipelineConfig:
    return PipelineConfig.from_json(args.config, seed=args.seed, sigma=args.sigma, tau=args.tau)


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def cmd_validate(args) -> int:
    cfg = _load_config(args)
    from .hierarchy import load_hierarchy

    h = load_hierarchy(cfg.hierarchy)
    violations = validate_hierarchy(h)
    if violations:
        _emit({"ok": False, "violations": violations})
        return 2
    load_inputs(cfg)  # checks data, ratings, matrices references, scheme
    _emit({"ok": True, "leaves": leaf_indicators(h), "criteria": h.criterion_ids()})
    return 0


def cmd_weights(args) -> int:
    cfg = _load_config(args)
    inputs = load_inputs(cfg)
    ws = compute_weights(inputs, cfg)
    doc: dict = {}
    if args.subjective or not (args.objective or args.combined):
        doc["subjective"] = {
            "criterion": ws.criterion["subjective"].as_dict(),
            "indicator_global": ws.global_subjective.as_dict(),
        }
    if args.objective or not (args.subjective or args.combined):
        doc["objective"] = {
            "criterion": ws.criterion["objective"].as_dict(),
            "indicator_global": ws.global_objective.as_dict(),
            "indicator_entropy": ws.entropies,
        }
    if args.combined or not (args.subjective or args.objective):
        doc["combined"] = {
            "theta": {"subjective": ws.theta[0], "objective": ws.theta[1]},
            "criterion": ws.criterion["combined"].as_dict(),
            "indicator_global": ws.global_combined.as_dict(),
        }
    _emit(doc)
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
    with open(args.report_a, encoding="utf-8") as f:
        a = json.load(f)
    with open(args.report_b, encoding="utf-8") as f:
        b = json.load(f)
    _emit(compare_scenarios(a, b))
    return 0


def cmd_droplets(args) -> int:
    cfg = _load_config(args)
    inputs = load_inputs(cfg)
    leaf_clouds, crit_clouds, comprehensive = score_clouds(inputs, compute_weights(inputs, cfg), cfg)
    level = args.level
    if level in leaf_clouds:
        cloud = leaf_clouds[level]
    elif level in crit_clouds:
        cloud = crit_clouds[level]
    elif level in (inputs.hierarchy.root_id, "comprehensive"):
        cloud = comprehensive
    else:
        raise ValueError(f"unknown level id {level!r}")
    payload = droplets_csv_bytes(forward_cloud(cloud, args.n, cfg.seed))
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
    except RepairError as e:
        print(f"error: judgment-matrix repair failed: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
