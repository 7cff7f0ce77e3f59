"""Deviation-square-sum weight fusion.

Subjective and objective weight vectors span a two-dimensional cone; the fused
weight is the conic combination that maximizes the total squared deviation of
composite object scores, found as the dominant eigenvector of the projected
quadratic form under a unit-norm constraint on the mixing coefficients. Only
that 2x2 form is built, from the composite scores under each weight vector;
the n x n deviation matrix it projects is never formed.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dataprep import DataMatrix
from .ewm import WeightVector

_FALLBACK_THETA = np.array([1.0, 1.0]) / np.sqrt(2.0)


class CombinationResult(NamedTuple):
    theta: tuple[float, float]          # (subjective, objective) mixing coefficients
    combined: WeightVector              # simplex-normalized fused weights


def combine_weights(ws: WeightVector, wo: WeightVector, z: DataMatrix) -> CombinationResult:
    """Fuse subjective and objective weights over the normalized data matrix.

    theta solves max theta' (W' B W) theta subject to |theta| = 1, theta >= 0,
    with W = [ws wo]; negative eigenvector components (possible when the 2x2
    form has a negative off-diagonal) are clamped to zero and theta is
    renormalized. When the data carry no deviation at all (B = 0), theta falls
    back to equal mixing.
    """
    if ws.indicator_ids != wo.indicator_ids:
        raise ValueError("subjective and objective weights must share the same indicator order")
    w = np.column_stack([ws.weights, wo.weights])  # n x 2
    if z.values.shape[1] != w.shape[0]:
        raise ValueError(
            f"data has {z.values.shape[1]} indicator columns but weights have {w.shape[0]}"
        )
    # W' B W with B = sum over ordered object pairs (i, l) of (z_i - z_l)(z_i - z_l)',
    # which is 2m Z'Z - 2 (Z'1)(Z'1)'; with Y = Z W it is 2m Y'Y - 2 (Y'1)(Y'1)'
    y = z.values @ w  # m x 2
    s = y.sum(axis=0)
    m2 = 2.0 * len(y) * (y.T @ y) - 2.0 * np.outer(s, s)
    if np.allclose(m2, 0.0):
        theta = _FALLBACK_THETA.copy()
    else:
        eigvals, eigvecs = np.linalg.eigh(m2)
        theta = eigvecs[:, -1]
        if theta.sum() < 0:
            theta = -theta
        theta = np.clip(theta, 0.0, None)
        theta = theta / np.linalg.norm(theta)
    wc = w @ theta
    wc = wc / wc.sum()
    combined = WeightVector(ws.indicator_ids, wc)
    return CombinationResult(theta=(float(theta[0]), float(theta[1])), combined=combined)
