"""The whole weighting and cloud chain recomputed from its inputs in plain numpy
loops, one textbook step per stage, and checked against the report: group order,
the two renormalizations and the two-level aggregation, which the per-stage
oracles do not reach."""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cloudmcdm.iahp import RepairConfig

from helpers import DEMO, assert_floats_close, auto_correct_per_call_indices, read_table

TOL = 1e-12


def _columns(path: Path, ids: list[str]) -> np.ndarray:
    """The CSV's values, one float() per cell, with its columns in the order of `ids`."""
    header, *rows = read_table(path)
    at = [[c.strip() for c in header].index(i) for i in ids]
    return np.array([[float(row[k]) for k in at] for row in rows])


def _eigenweights(j: np.ndarray) -> np.ndarray:
    """The principal eigenvector of a positive matrix from `numpy.linalg.eig`, on the simplex."""
    values, vectors = np.linalg.eig(j)
    v = np.abs(vectors[:, np.argmax(values.real)].real)
    return v / v.sum()


def _ahp(path: Path | None, n: int, repair: RepairConfig) -> np.ndarray:
    if path is None:  # a criterion with one leaf
        assert n == 1
        return np.ones(1)
    j = np.array([[float(Fraction(c.strip())) for c in row] for row in read_table(path)])
    assert j.shape == (n, n)
    repaired, _ = auto_correct_per_call_indices(j, repair)
    return _eigenweights(repaired)


def _entropy(z: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Entropy weights and entropies of a normalized matrix, one column at a time."""
    m, n = z.shape
    entropies = []
    for k in range(n):
        p = z[:, k] / z[:, k].sum()
        entropies.append(-sum(float(v * math.log(v)) for v in p if v > 0) / math.log(m))
    d = np.array([1.0 - e for e in entropies])
    return d / d.sum(), entropies


def _fuse(z: np.ndarray, ws: np.ndarray, wo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """theta maximizing theta' F theta over |theta| = 1, theta >= 0, with F the 2x2 form
    summed over every ordered pair of objects of their projected score differences, and
    the fused weights on the simplex."""
    y = np.column_stack([z @ ws, z @ wo])  # each object's score under each weight vector
    f = np.zeros((2, 2))
    for i in range(len(y)):
        diff = y[i] - y  # against every object l
        f += diff.T @ diff
    values, vectors = np.linalg.eig(f)
    theta = vectors[:, np.argmax(values)]
    theta = np.clip(theta if theta.sum() >= 0 else -theta, 0.0, None)
    theta /= np.linalg.norm(theta)
    wc = theta[0] * ws + theta[1] * wo
    return theta, wc / wc.sum()


def _moment_cloud(x: np.ndarray) -> np.ndarray:
    """(Ex, En, He) of one ratings column: the mean, sqrt(pi/2) times the mean absolute
    deviation, and the square root of what the unbiased variance exceeds En^2 by."""
    ex = x.mean()
    en = math.sqrt(math.pi / 2.0) * np.abs(x - ex).mean()
    return np.array([ex, en, math.sqrt(max(0.0, x.var(ddof=1) - en * en))])


def reference_chain(config: Path) -> tuple[dict, dict]:
    """The `weights` section of report.json and the comprehensive cloud, from the
    config's files alone."""
    cfg = json.loads(config.read_text())
    assert cfg.get("aggregation", "linear") == "linear"
    base = config.parent
    repair = RepairConfig(cfg.get("sigma", 0.8), cfg.get("tau", 0.1), cfg.get("max_iter", 20))
    root = json.loads((base / cfg["hierarchy"]).read_text())["root"]
    criteria = [(c["id"], [(leaf["id"], leaf["direction"]) for leaf in c["children"]]) for c in root["children"]]
    crit_ids = [cid for cid, _ in criteria]
    leaves = [leaf for _, group in criteria for leaf, _ in group]
    cost = [direction == "cost" for _, group in criteria for _, direction in group]

    # subjective: local AHP weights, then criterion weight x local weight per leaf
    crit_s = _ahp(base / cfg["criterion_matrix"], len(criteria), repair)
    matrices = cfg.get("indicator_matrices", {})
    global_s = np.concatenate([w * _ahp(base / matrices[cid] if cid in matrices else None, len(group), repair)
                               for w, (cid, group) in zip(crit_s, criteria)])

    # objective: min-max columns (constant ones at 0.5), then entropy weights
    x = _columns(base / cfg["data"], leaves)
    z = np.empty_like(x)
    for k in range(x.shape[1]):
        lo, hi = x[:, k].min(), x[:, k].max()
        z[:, k] = 0.5 if hi == lo else ((hi - x[:, k]) if cost[k] else (x[:, k] - lo)) / (hi - lo)
    global_o, entropies = _entropy(z)

    theta, combined = _fuse(z, global_s, global_o)

    # per-criterion sums renormalized, and local combined weights within each criterion
    spans, start = [], 0
    for _, group in criteria:
        spans.append(slice(start, start + len(group)))
        start += len(group)

    def by_criterion(w):
        sums = np.array([w[s].sum() for s in spans])
        return sums / sums.sum()

    local = {cid: combined[s] / combined[s].sum() for (cid, _), s in zip(criteria, spans)}

    def table(ids, w):
        return {i: float(v) for i, v in zip(ids, w)}

    weights = {
        "theta": {"subjective": float(theta[0]), "objective": float(theta[1])},
        "criterion": {"subjective": table(crit_ids, crit_s), "objective": table(crit_ids, by_criterion(global_o)),
                      "combined": table(crit_ids, by_criterion(combined))},
        "indicator_global": {"subjective": table(leaves, global_s), "objective": table(leaves, global_o),
                             "combined": table(leaves, combined)},
        "indicator_local_combined": {cid: table([leaf for leaf, _ in group], local[cid])
                                     for cid, group in criteria},
        "indicator_entropy": table(leaves, entropies),
    }

    # clouds: moments per ratings column, then linear aggregation at both levels
    ratings = _columns(base / cfg["ratings"], leaves)
    leaf_clouds = [_moment_cloud(ratings[:, k]) for k in range(len(leaves))]
    crit_clouds = [sum(w * c for w, c in zip(local[cid], leaf_clouds[s])) for (cid, _), s in zip(criteria, spans)]
    ex, en, he = sum(w * c for w, c in zip(by_criterion(combined), crit_clouds))
    return weights, {"ex": float(ex), "en": float(en), "he": float(he)}


def _check(config: Path, report) -> None:
    weights, comprehensive = reference_chain(config)
    assert_floats_close(report.weights, weights, abs=TOL, where="weights")
    assert_floats_close(report.comprehensive_cloud, comprehensive, abs=TOL, where="comprehensive_cloud")


@pytest.mark.parametrize("scenario", ["before", "after"])
def test_the_demo_report_matches_the_reference_chain(scenario, report_before, report_after):
    _check(DEMO / f"config_{scenario}.json", {"before": report_before, "after": report_after}[scenario])


def test_the_scaled_report_matches_the_reference_chain(scaled_run):
    config, report, _ = scaled_run(1)
    _check(config, report)
