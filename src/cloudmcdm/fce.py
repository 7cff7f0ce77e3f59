"""Fuzzy comprehensive evaluation baseline for cross-checking cloud scores.

Triangular membership functions over the grade bands, weighted-average
aggregation and centroid (band-midpoint) defuzzification.
"""

from __future__ import annotations

import numpy as np

from .cloud import GradeScheme
from .ewm import WeightVector


def membership_matrix(scores, scheme: GradeScheme) -> np.ndarray:
    """Triangular membership rows (scores x bands) in one pass: between band midpoints
    m_j < s < m_j+1, band j + 1 takes t = (s - m_j) / (m_j+1 - m_j) and band j 1 - t;
    outside the first/last midpoint the end band takes 1, so each row sums to 1. The
    first score outside [0, 100] is a ValueError."""
    s = np.asarray(scores, dtype=float)
    bad = ~((s >= 0.0) & (s <= 100.0))  # NaN fails both comparisons
    if bad.any():
        raise ValueError(f"score {float(s[bad.argmax()])} outside [0, 100]")
    mids = scheme.midpoints()
    m = np.zeros((len(s), len(mids)))
    m[s <= mids[0], 0] = 1.0
    m[s >= mids[-1], -1] = 1.0
    inner = np.flatnonzero((s > mids[0]) & (s < mids[-1]))
    j = np.searchsorted(mids, s[inner]) - 1
    t = (s[inner] - mids[j]) / (mids[j + 1] - mids[j])
    m[inner, j], m[inner, j + 1] = 1.0 - t, t
    return m


def fce_score(m: np.ndarray, w: WeightVector, scheme: GradeScheme) -> float:
    """Crisp score: b = w' M aggregated memberships, defuzzified by band midpoints."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape != (len(w.indicator_ids), len(scheme.bands)):
        raise ValueError(
            f"membership matrix shape {m.shape} does not match "
            f"{len(w.indicator_ids)} indicators x {len(scheme.bands)} bands"
        )
    row_sums = m.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-9:
        raise ValueError("each membership row must sum to 1")
    b = w.weights @ m
    return float(b @ scheme.midpoints())
