"""Shared generators for the test suite."""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from cloudmcdm.cloud import GradeScheme
from cloudmcdm.iahp import (RANDOM_INDEX, SAATY_VALUES, RepairError, RepairTrace, to_preference,
                            validate_judgment)
from cloudmcdm.iahp import _SCALE_TOL, _saaty, _upper
from cloudmcdm.pipeline import REPORT_DIGITS

REPO = Path(__file__).resolve().parents[1]
DEMO = REPO / "data" / "demo"


def read_table(path: Path) -> list[list[str]]:
    """Every row of a CSV file, each cell as written."""
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def edit_table(path: Path, edit) -> None:
    """Rewrite a CSV file as `edit(rows)` returns its rows."""
    rows = edit(read_table(path))
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def permute_columns(perm):
    """An `edit_table` edit: the id column stays first, the others move to `perm`'s order."""
    return lambda rows: [[r[0], *(r[1 + k] for k in perm)] for r in rows]


def permute_rows(perm):
    """An `edit_table` edit: the header stays first, the data rows move to `perm`'s order."""
    return lambda rows: [rows[0], *(rows[1 + k] for k in perm)]


def permute_matrix(perm):
    """An `edit_table` edit for a judgment matrix: its items relisted in `perm`'s order."""
    return lambda rows: [[rows[i][k] for k in perm] for i in perm]


def map_column(column: str, fn):
    """An `edit_table` edit: every cell of `column` below the header becomes repr(fn(float(cell)))."""
    def edit(rows):
        k = rows[0].index(column)
        return [rows[0], *([*r[:k], repr(fn(float(r[k]))), *r[k + 1:]] for r in rows[1:])]
    return edit


def nearest_scale_index(v: float) -> int:
    return int(np.argmin(np.abs(SAATY_VALUES - v)))


def consistent_judgment(w: np.ndarray) -> np.ndarray:
    """Multiplicatively consistent matrix j_ik = w_i / w_k."""
    return np.outer(w, 1.0 / w)


def perturbed_judgment(n: int, rng: np.random.Generator, wobble: int = 3) -> np.ndarray:
    """Reciprocal on-scale matrix: consistent ratios shifted by up to `wobble` knots.

    Models a noisy expert: transitively coherent at heart, locally contradictory.
    """
    w = rng.uniform(0.5, 3.0, n)
    j = np.ones((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            idx = nearest_scale_index(w[i] / w[k])
            idx = int(np.clip(idx + rng.integers(-wobble, wobble + 1), 0, 16))
            j[i, k] = SAATY_VALUES[idx]
            j[k, i] = 1.0 / j[i, k]
    return j


def from_preference(p: np.ndarray) -> np.ndarray:
    """Piecewise-linear inverse of the scale table, of one relation or a (k, n, n) stack:
    its range checked, then `iahp._saaty` of its upper triangles, as the repair maps
    its iterates back."""
    p = np.asarray(p, dtype=float)
    if p.ndim not in (2, 3) or p.shape[-1] != p.shape[-2]:
        raise ValueError(f"preference relation must be square, got shape {p.shape}")
    bad = (p < 0.1 - _SCALE_TOL) | (p > 0.9 + _SCALE_TOL)
    if bad.any():
        cell = tuple(np.argwhere(bad)[0])
        raise ValueError(f"preference value {float(p[cell])} at cell ({cell[-2] + 1},{cell[-1] + 1}) "
                         "outside [0.1, 0.9]")
    i, k = _upper(p.shape[-1])
    return _saaty(np.clip(p[..., i, k], 0.1, 0.9), p.shape[-1])


def reference_row_means(x, n):
    # the reference's log-odds from the upper-triangle log-odds x, written out: the
    # antisymmetric matrix filled cell by cell, each row's mean, r_i - r_j per cell
    full = np.zeros((n, n))
    cells = list(zip(*np.triu_indices(n, 1)))
    for (i, j), v in zip(cells, x):
        full[i, j], full[j, i] = v, -v
    r = [np.sum(row) / n for row in full]
    return np.array([r[i] - r[j] for i, j in cells])


def power_iteration_one(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 10_000
                        ) -> tuple[np.ndarray, float]:
    # iahp._power_iteration before the stacked sweeps, verbatim: one matrix, one vector
    n = a.shape[0]
    v = np.full(n, 1.0 / n)
    for _ in range(max_sweeps):
        av = a @ v
        nxt = av / av.sum()
        if np.abs(nxt - v).max() < tol:
            v = nxt
            break
        v = nxt
    else:
        raise RuntimeError("power iteration did not converge")
    av = a @ v
    lam = float(np.mean(av / v))
    return v / v.sum(), lam


def consistency_ratio_one(j):
    # consistency_ratio before weigh_judgments, verbatim, on the power iteration above
    validate_judgment(j)
    n = j.shape[0]
    _, lam = power_iteration_one(np.asarray(j, dtype=float))
    ci = (lam - n) / (n - 1)
    ri = RANDOM_INDEX[n]
    cr = 0.0 if ri == 0 else ci / ri
    return lam, ci, cr


def auto_correct_per_call_indices(j, cfg):
    # auto_correct on one matrix, written out: the reference from reference_row_means,
    # the distance over the upper triangle and the pull in log-odds, and its CR test on
    # the one-matrix power iteration
    validate_judgment(j)
    trace = RepairTrace()
    n = j.shape[0]
    i, k = np.triu_indices(n, 1)
    u = to_preference(j)[i, k]
    x = np.log(u / (1.0 - u))
    xbar = reference_row_means(x, n)
    ubar = 1.0 / (1.0 + np.exp(-xbar))
    while True:
        trace.distances.append(float(np.sqrt(2.0 * np.sum((u - ubar) ** 2))))
        if trace.distances[-1] < cfg.tau:
            break
        if trace.iterations == cfg.max_iter:
            raise RepairError(
                f"repair did not reach d < {cfg.tau} within {cfg.max_iter} iterations "
                f"(last d = {trace.distances[-1]:.4f})",
                trace,
            )
        x = (1.0 - cfg.sigma) * x + cfg.sigma * xbar
        u = 1.0 / (1.0 + np.exp(-x))
    if trace.iterations == 0:
        repaired = np.asarray(j, dtype=float).copy()
    else:
        p = np.full((n, n), 0.5)
        p[i, k] = np.clip(u, 0.1, 0.9)
        p[k, i] = 1.0 - p[i, k]
        repaired = from_preference(p)
    _, _, cr = consistency_ratio_one(repaired)
    trace.final_cr = cr
    if cr >= 0.1:
        raise RepairError(f"repaired matrix still fails the CR test (CR = {cr:.4f})", trace)
    return repaired, trace


def deviation_matrix(z) -> np.ndarray:
    """B = sum over ordered object pairs (i, l) of (z_i - z_l)(z_i - z_l)^T of a
    DataMatrix z: the n x n form whose 2x2 projection combine_weights maximizes.

    Symmetric PSD; zero for a single object. Both orderings of each pair are
    counted, so B = 2 * (sum over unordered pairs).
    """
    v = z.values
    m = v.shape[0]
    # sum_{i,l} (z_i - z_l)(z_i - z_l)^T = 2m * Z'Z - 2 (Z'1)(Z'1)'
    s = v.sum(axis=0)
    b = 2.0 * m * (v.T @ v) - 2.0 * np.outer(s, s)
    return (b + b.T) / 2.0


def assert_floats_close(got, want, rel: float = 0.0, abs: float = 0.0, where: str = "") -> None:
    """Two JSON documents alike: the same keys, list lengths, types and non-float
    values, and every float pair within `math.isclose(rel_tol=rel, abs_tol=abs)`."""
    assert type(got) is type(want), (where, got, want)
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for k in want:
            assert_floats_close(got[k], want[k], rel, abs, f"{where}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_floats_close(g, w, rel, abs, f"{where}[{k}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=rel, abs_tol=abs), (where, got, want)
    else:
        assert got == want, (where, got, want)


def round_floats(doc):
    """Copy of a JSON document with every float at REPORT_DIGITS significant digits,
    those in a tuple included: the oracle of `EvaluationReport.to_json_bytes`, whose
    bytes are `json.dumps(round_floats(doc), sort_keys=True, indent=2) + "\\n"`."""
    if isinstance(doc, float):
        return float(f"{doc:.{REPORT_DIGITS}g}")
    if isinstance(doc, dict):
        return {k: round_floats(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [round_floats(v) for v in doc]
    return doc


def best_label(table: dict[str, float]) -> str:
    """Label of the largest similarity in a table listed low band to high: the oracle of
    `grade_clouds`' argmax, scanning up so that an exact tie goes to the higher band."""
    best_label, best = None, -1.0
    for label, sim in table.items():
        if sim >= best:
            best_label, best = label, sim
    return best_label


def triangular_memberships(score: float, scheme: GradeScheme) -> np.ndarray:
    """Membership row of one score over the scheme's grade bands: the per-score
    oracle of `fce.membership_matrix`.

    Triangles peak at band midpoints and reach zero at the adjacent midpoints;
    outside the first/last midpoint the end band takes full membership. The
    row sums to 1.
    """
    if not 0.0 <= score <= 100.0:
        raise ValueError(f"score {score} outside [0, 100]")
    mids = scheme.midpoints()
    k = len(mids)
    row = np.zeros(k)
    if score <= mids[0]:
        row[0] = 1.0
    elif score >= mids[-1]:
        row[-1] = 1.0
    else:
        j = int(np.searchsorted(mids, score)) - 1
        t = (score - mids[j]) / (mids[j + 1] - mids[j])
        row[j] = 1.0 - t
        row[j + 1] = t
    return row
