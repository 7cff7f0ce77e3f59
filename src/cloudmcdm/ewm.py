"""Entropy weight method: objective indicator weights from data variation."""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .dataprep import CheckedRecord, DataMatrix, column_blocks

_SIMPLEX_TOL = 1e-9

# Fewest evaluation objects whose entropy is defined: it divides by ln m.
MIN_OBJECTS = 2


class WeightVector(CheckedRecord, namedtuple("WeightVector", "indicator_ids weights")):
    __slots__ = ()

    def __new__(cls, indicator_ids: tuple[str, ...], weights: np.ndarray):
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(indicator_ids),):
            raise ValueError("weight count does not match indicator count")
        if (w < -_SIMPLEX_TOL).any():
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > _SIMPLEX_TOL:
            raise ValueError(f"weights must sum to 1, got {float(w.sum())}")
        return tuple.__new__(cls, (indicator_ids, w))

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.indicator_ids, self.weights.tolist()))


def entropy_weights(z: DataMatrix) -> tuple[WeightVector, np.ndarray]:
    """Objective weights from per-column information entropy.

    p_ij = z_ij / sum_i z_ij, e_j = -(1/ln m) * sum_i p_ij ln p_ij (0*ln0 := 0),
    d_j = 1 - e_j, w_j = d_j / sum d_j. Constant columns (filled with 0.5 by
    normalization) reach e_j = 1 and get weight 0. If every column is constant,
    weights fall back to uniform.

    This stage owns the layout its sums depend on: it reads the columns in runs
    through two small F-order buffers (`column_blocks`), so every weight has the
    same bits whatever the layout of `z.values`.

    Returns (weights, per-column entropies e).
    """
    v = z.values
    m, n = v.shape
    if m < MIN_OBJECTS:
        raise ValueError(f"entropy weighting needs at least {MIN_OBJECTS} evaluation objects")
    # min and max decide unless a NaN reaches them; only then are the masks built, and they let a NaN through
    if not (v.min() >= 0 and v.max() <= 1) and ((v < 0).any() or (v > 1).any()):
        raise ValueError("entropy weighting expects values in [0,1]; normalize first")
    e = np.empty(n)
    for j, p, plogp in column_blocks(v, 2):
        col_sums = p.sum(axis=0)
        if (col_sums <= 0).any():
            k = j + int(np.argmax(col_sums <= 0))
            raise ValueError(f"column {z.indicator_ids[k]!r} sums to 0; cannot form proportions")
        p /= col_sums
        # p ln p, 0 where p is not positive (0 ln 0 := 0)
        positive = p > 0
        plogp.fill(0.0)
        np.log(p, out=plogp, where=positive)
        np.multiply(plogp, p, out=plogp, where=positive)
        e[j:j + p.shape[1]] = -plogp.sum(axis=0) / np.log(m)
    d = 1.0 - e
    d = np.where(d < 1e-12, 0.0, d)  # snap fp noise at e ~ 1 to an exact zero
    total = d.sum()
    w = np.full(n, 1.0 / n) if total == 0 else d / total
    return WeightVector(z.indicator_ids, w), e
