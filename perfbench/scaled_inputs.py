"""Seeded generator of the `scaled` benchmark inputs.

It follows the recipe of demos/build_demo_dataset.py at the engine's limits:
15 criteria x 15 leaves (225 leaves), 1 000 objects in the raw data matrix and
2 000 rating samples per leaf. Each of the 16 judgment matrices has order 15
and is perturbed so that it needs repair. A candidate matrix is kept only when
`auto_correct` repairs it: an unrepairable matrix is the CLI's exit-2 path, not
the traffic this workload measures.

The same seed gives the same bytes. Run from the repository root:

    PYTHONPATH=src python3 perfbench/scaled_inputs.py --seed 1 --out <dir>
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from cloudmcdm.iahp import SAATY_VALUES, RepairError, auto_correct

N_CRITERIA = 15
LEAVES_PER_CRITERION = 15
N_OBJECTS = 1_000
N_SAMPLES = 2_000
WOBBLE = 3  # knots of random shift per judgment cell; 3 makes every order-15 matrix need repair

SCALE_TOKENS = ["1/9", "1/8", "1/7", "1/6", "1/5", "1/4", "1/3", "1/2",
                "1", "2", "3", "4", "5", "6", "7", "8", "9"]
SCHEME = {
    "he_ratio": 0.1,
    "bands": [
        {"label": "poor", "lower": 0, "upper": 60},
        {"label": "fair", "lower": 60, "upper": 75},
        {"label": "good", "lower": 75, "upper": 85},
        {"label": "excellent", "lower": 85, "upper": 100},
    ],
}


def _judgment(rng: np.random.Generator, n: int) -> tuple[list[list[str]], int]:
    """Draw perturbed order-n matrices until one is repairable in at least one step.

    Returns the matrix as scale tokens and the repair steps it needs.
    """
    while True:
        w = rng.uniform(0.6, 2.4, n)
        w = w / w.sum()
        idx = np.full((n, n), 8)
        for i in range(n):
            for k in range(i + 1, n):
                near = int(np.argmin(np.abs(SAATY_VALUES - w[i] / w[k])))
                idx[i, k] = int(np.clip(near + rng.integers(-WOBBLE, WOBBLE + 1), 0, 16))
                idx[k, i] = 16 - idx[i, k]
        try:
            _, trace = auto_correct(SAATY_VALUES[idx])
        except RepairError:
            continue
        if trace.iterations >= 1:
            return [[SCALE_TOKENS[c] for c in row] for row in idx], trace.iterations


def _csv(header: list[str] | None, rows) -> str:
    lines = [",".join(header)] if header is not None else []
    lines += [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def _table(ids: list[str], leaves: list[str], values: np.ndarray, key: str) -> str:
    return _csv([key] + leaves, ([i] + [f"{v:.4f}" for v in row] for i, row in zip(ids, values)))


def generate(seed: int, out: Path) -> dict:
    """Write hierarchy, scheme, 16 judgment matrices, data, ratings and config.json under `out`.

    Returns a summary with the input sizes and the total repair steps the
    matrices need, so that drift in the generator shows as a changed count.
    """
    rng = np.random.default_rng(seed)
    out.mkdir(parents=True, exist_ok=True)
    (out / "judgment").mkdir(exist_ok=True)

    crit_ids = [f"K{c + 1:02d}" for c in range(N_CRITERIA)]
    leaves_of = {cid: [f"{cid}L{k + 1:02d}" for k in range(LEAVES_PER_CRITERION)] for cid in crit_ids}
    leaves = [leaf for cid in crit_ids for leaf in leaves_of[cid]]
    directions = np.where(rng.random(len(leaves)) < 0.7, "benefit", "cost")
    direction_of = dict(zip(leaves, directions))
    hierarchy = {"root": {
        "id": "SCALED", "label": "Synthetic assessment at the engine's limits",
        "children": [
            {"id": cid, "label": f"Criterion {cid}", "children": [
                {"id": leaf, "label": f"Indicator {leaf}", "direction": str(direction_of[leaf])}
                for leaf in leaves_of[cid]
            ]}
            for cid in crit_ids
        ],
    }}
    (out / "hierarchy.json").write_text(json.dumps(hierarchy, indent=2) + "\n", encoding="utf-8")
    (out / "scheme.json").write_text(json.dumps(SCHEME, indent=2) + "\n", encoding="utf-8")

    repair_steps = 0
    matrices = {}
    for name, n in [("criteria", N_CRITERIA)] + [(cid, LEAVES_PER_CRITERION) for cid in crit_ids]:
        rows, steps = _judgment(rng, n)
        repair_steps += steps
        (out / "judgment" / f"{name}.csv").write_text(_csv(None, rows), encoding="utf-8")
        if name != "criteria":
            matrices[name] = f"judgment/{name}.csv"

    objects = [f"obj{k + 1}" for k in range(N_OBJECTS)]
    base = rng.uniform(10.0, 900.0, len(leaves))
    spread = rng.uniform(0.08, 0.35, len(leaves))
    data = np.abs(base * (1.0 + spread * rng.standard_normal((N_OBJECTS, len(leaves)))))
    (out / "indicators.csv").write_text(_table(objects, leaves, data, "object"), encoding="utf-8")

    ex = rng.uniform(72.0, 88.0, len(leaves))
    en = rng.uniform(5.0, 8.0, len(leaves))
    he = rng.uniform(2.2, 3.2, len(leaves))
    samples = np.empty((N_SAMPLES, len(leaves)))
    for j in range(len(leaves)):
        enp = rng.normal(en[j], he[j], N_SAMPLES)
        while (enp <= 0).any():
            bad = enp <= 0
            enp[bad] = rng.normal(en[j], he[j], int(bad.sum()))
        samples[:, j] = np.clip(rng.normal(ex[j], enp), 0.0, 100.0)
    sample_ids = [f"s{k + 1}" for k in range(N_SAMPLES)]
    (out / "ratings.csv").write_text(_table(sample_ids, leaves, samples, "sample"), encoding="utf-8")

    config = {
        "scenario": "scaled",
        "hierarchy": "hierarchy.json",
        "criterion_matrix": "judgment/criteria.csv",
        "indicator_matrices": matrices,
        "data": "indicators.csv",
        "ratings": "ratings.csv",
        "scheme": "scheme.json",
        "seed": int(seed),
        "droplets": 20_000,
        "aggregation": "linear",
        "sigma": 0.8,
        "tau": 0.1,
        "max_iter": 20,
    }
    (out / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return {"criteria": N_CRITERIA, "leaves": len(leaves), "objects": N_OBJECTS,
            "samples": N_SAMPLES, "matrices": 1 + N_CRITERIA, "matrix_order": LEAVES_PER_CRITERION,
            "repair_steps": repair_steps}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(generate(args.seed, args.out), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
