"""Shared generators for the test suite."""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from cloudmcdm.cloud import GradeScheme
from cloudmcdm.iahp import SAATY_VALUES
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
