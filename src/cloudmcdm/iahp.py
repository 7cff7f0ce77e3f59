"""Subjective weighting via AHP with automatic judgment-matrix repair.

A reciprocal judgment matrix on the 1/9..9 scale is mapped to a complementary
preference relation on the 0.1..0.9 scale, compared against a consistent
reference built from geometric chains of intermediate comparisons, and pulled
toward that reference until the Frobenius distance drops under a threshold.
The repaired relation is mapped back to the 1/9..9 scale and the usual CR test
is applied to the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .dataprep import read_csv_rows
from .ewm import WeightVector

# scale knots: 1/9 .. 9 <-> 0.1 .. 0.9 in steps of 0.05
SAATY_VALUES = np.array(
    [1 / 9, 1 / 8, 1 / 7, 1 / 6, 1 / 5, 1 / 4, 1 / 3, 1 / 2, 1, 2, 3, 4, 5, 6, 7, 8, 9],
    dtype=float,
)
PREFERENCE_VALUES = np.array(
    [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9],
    dtype=float,
)

_SCALE_TOL = 1e-9

# random consistency index, orders 1..15 (standard table)
RANDOM_INDEX = {
    1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12, 6: 1.24, 7: 1.32, 8: 1.41,
    9: 1.45, 10: 1.49, 11: 1.51, 12: 1.54, 13: 1.56, 14: 1.57, 15: 1.58,
}


class RepairError(RuntimeError):
    """Raised when the repair loop exhausts its iteration budget."""

    def __init__(self, message: str, trace: "RepairTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class RepairConfig:
    sigma: float = 0.8   # pull strength toward the consistent reference
    tau: float = 0.1     # acceptance threshold on the distance metric
    max_iter: int = 20

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise ValueError(f"sigma must lie in (0,1), got {self.sigma}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class RepairTrace:
    distances: list[float] = field(default_factory=list)
    relations: list[np.ndarray] = field(default_factory=list)
    final_cr: float | None = None

    @property
    def iterations(self) -> int:
        """Number of repair steps actually applied."""
        return max(0, len(self.distances) - 1)


def _check_square(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def validate_judgment(j: np.ndarray, tol: float = _SCALE_TOL) -> None:
    """Check finite entries, unit diagonal and reciprocity r_ij * r_ji = 1."""
    j = _check_square(j, "judgment matrix")
    if not np.isfinite(j).all():
        i, k = np.argwhere(~np.isfinite(j))[0]
        raise ValueError(f"non-finite entry {j[i, k]!r} at cell ({i + 1},{k + 1})")
    n = j.shape[0]
    if not (2 <= n <= 15):
        raise ValueError(f"judgment matrix order must be in [2, 15], got {n}")
    if (j <= 0).any():
        raise ValueError("judgment matrix entries must be positive")
    if np.abs(np.diag(j) - 1.0).max() > tol:
        raise ValueError("judgment matrix diagonal must be 1")
    if np.abs(j * j.T - 1.0).max() > 1e-6:
        i, k = np.unravel_index(np.argmax(np.abs(j * j.T - 1.0)), j.shape)
        raise ValueError(f"reciprocity violated at cell ({i + 1},{k + 1})")


def validate_preference(p: np.ndarray, tol: float = _SCALE_TOL) -> None:
    """Check 0.5 diagonal and complementarity p_ij + p_ji = 1."""
    p = _check_square(p, "preference relation")
    if (p <= 0).any() or (p >= 1).any():
        raise ValueError("preference entries must lie strictly in (0,1)")
    if np.abs(np.diag(p) - 0.5).max() > tol:
        raise ValueError("preference diagonal must be 0.5")
    if np.abs(p + p.T - 1.0).max() > tol:
        raise ValueError("complementarity p_ij + p_ji = 1 violated")


def to_preference(j: np.ndarray) -> np.ndarray:
    """Map every on-scale entry through the 17-knot table (1/9 -> 0.1, ..., 9 -> 0.9).

    Off-scale entries are rejected with the offending cell named (1-based).
    """
    j = _check_square(j, "judgment matrix")
    diffs = np.abs(j[..., None] - SAATY_VALUES)
    idx = diffs.argmin(axis=-1)
    if (np.take_along_axis(diffs, idx[..., None], axis=-1)[..., 0] > _SCALE_TOL).any():
        off = np.take_along_axis(diffs, idx[..., None], axis=-1)[..., 0] > _SCALE_TOL
        i, k = np.argwhere(off)[0]
        raise ValueError(
            f"entry {j[i, k]!r} at cell ({i + 1},{k + 1}) is not on the 1/9..9 scale"
        )
    return PREFERENCE_VALUES[idx]


def from_preference(p: np.ndarray) -> np.ndarray:
    """Piecewise-linear inverse of the scale table.

    Upper-triangle values are interpolated between adjacent knots; the lower
    triangle is rebuilt exactly via r_ji = 1 / r_ij so reciprocity holds.
    """
    p = _check_square(p, "preference relation")
    if (p < 0.1 - _SCALE_TOL).any() or (p > 0.9 + _SCALE_TOL).any():
        i, k = np.argwhere((p < 0.1 - _SCALE_TOL) | (p > 0.9 + _SCALE_TOL))[0]
        raise ValueError(f"preference value {p[i, k]!r} at cell ({i + 1},{k + 1}) outside [0.1, 0.9]")
    p = np.clip(p, 0.1, 0.9)
    n = p.shape[0]
    i, k = np.triu_indices(n, 1)
    upper = np.interp(p[i, k], PREFERENCE_VALUES, SAATY_VALUES)
    j = np.ones((n, n))
    j[i, k] = upper
    j[k, i] = 1.0 / upper
    return j


def consistent_reference(p: np.ndarray) -> np.ndarray:
    """Consistent reference relation from geometric chains.

    For j > i+1 the entry is rebuilt from the normalized geometric mean of the
    chains p_it * p_tj over intermediate t; entries with j <= i+1 are copied
    and the lower triangle follows by complementarity. Orders <= 2 pass through.

    All cells are computed in one pass: the chain products of every cell are
    gathered into one row each (positions past j-1 hold 1.0) and multiplied
    left to right, and the roots use libm `pow` through `math.pow`, so the
    result is bit-identical to rebuilding the cells one by one with
    `np.prod` and a scalar power. (numpy's array power and log-sums round
    differently, and the repair loop feeds its output back into itself.)
    """
    p = _check_square(p, "preference relation")
    n = p.shape[0]
    if n <= 2:
        return p.copy()
    i, j = np.triu_indices(n, 2)  # row-major: an error names the first bad cell in row order
    t = i[:, None] + 1 + np.arange(n - 2)
    inside = t < j[:, None]
    t = np.where(inside, t, 0)  # any valid index; its products are replaced by 1.0
    q = 1.0 - p
    num = np.where(inside, p[i[:, None], t] * p[t, j[:, None]], 1.0).prod(axis=1)
    den = np.where(inside, q[i[:, None], t] * q[t, j[:, None]], 1.0).prod(axis=1)
    bad = (num == 0.0) | (den == 0.0)
    if bad.any():
        c = int(np.argmax(bad))
        raise ValueError(f"degenerate chain for cell ({i[c] + 1},{j[c] + 1}): zero product")
    k = (1.0 / (j - i - 1)).tolist()
    a = np.array([math.pow(v, e) for v, e in zip(num.tolist(), k)])
    b = np.array([math.pow(v, e) for v, e in zip(den.tolist(), k)])
    out = p.copy()
    out[i, j] = a / (a + b)
    out[j, i] = 1.0 - out[i, j]
    return out


def preference_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Frobenius distance sqrt(sum |p_ij - q_ij|^2) over all cells."""
    p = _check_square(p, "preference relation")
    q = _check_square(q, "preference relation")
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    return float(np.sqrt(np.sum(np.abs(p - q) ** 2)))


def repair_step(p: np.ndarray, pbar: np.ndarray, sigma: float) -> np.ndarray:
    """One geometric repair step pulling p toward the reference pbar.

    r~ = p^(1-s) pbar^s / (p^(1-s) pbar^s + (1-p)^(1-s) (1-pbar)^s).
    Equivalent to linear interpolation in log-odds, so complementarity is
    preserved exactly. sigma endpoints 0 and 1 reproduce p and pbar.
    """
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"sigma must lie in [0,1], got {sigma}")
    p = _check_square(p, "preference relation")
    pbar = _check_square(pbar, "reference relation")
    if p.shape != pbar.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {pbar.shape}")
    num = p ** (1.0 - sigma) * pbar**sigma
    den = (1.0 - p) ** (1.0 - sigma) * (1.0 - pbar) ** sigma
    return num / (num + den)


def auto_correct(j: np.ndarray, cfg: RepairConfig | None = None, keep_relations: bool = False
                 ) -> tuple[np.ndarray, RepairTrace]:
    """Repair a judgment matrix until the reference distance drops under tau.

    Loops preference transform -> consistent reference -> distance test ->
    repair step, then reverse-transforms and verifies CR < 0.1. Raises
    RepairError (carrying the trace) if max_iter is exhausted. When the
    original matrix already passes (zero repair steps) it is returned as-is.
    """
    cfg = cfg or RepairConfig()
    validate_judgment(j)
    trace = RepairTrace()
    p = to_preference(j)
    converged = False
    for _ in range(cfg.max_iter + 1):
        pbar = consistent_reference(p)
        d = preference_distance(p, pbar)
        trace.distances.append(d)
        if keep_relations:
            trace.relations.append(p.copy())
        if d < cfg.tau:
            converged = True
            break
        if len(trace.distances) > cfg.max_iter:
            break
        p = repair_step(p, pbar, cfg.sigma)
    if not converged:
        raise RepairError(
            f"repair did not reach d < {cfg.tau} within {cfg.max_iter} iterations "
            f"(last d = {trace.distances[-1]:.4f})",
            trace,
        )
    if trace.iterations == 0:
        repaired = np.asarray(j, dtype=float).copy()
    else:
        # repaired relations can drift past the 0.9 knot; clamp back onto the
        # table's domain (bounds symmetric around 0.5, so complementarity holds)
        repaired = from_preference(np.clip(p, 0.1, 0.9))
    _, _, cr = consistency_ratio(repaired)
    trace.final_cr = cr
    if cr >= 0.1:
        raise RepairError(f"repaired matrix still fails the CR test (CR = {cr:.4f})", trace)
    return repaired, trace


def principal_weights(j: np.ndarray, ids=None, require_consistent: bool = False) -> WeightVector:
    """Normalized dominant eigenvector of a positive reciprocal matrix.

    Power iteration; the Perron eigenpair of a positive matrix is simple, so
    convergence is guaranteed. `ids` labels the components (defaults i1..in).
    """
    validate_judgment(j)
    if require_consistent:
        _, _, cr = consistency_ratio(j)
        if cr >= 0.1:
            raise ValueError(f"judgment matrix fails consistency (CR = {cr:.4f})")
    w, _ = _power_iteration(np.asarray(j, dtype=float))
    if ids is None:
        ids = tuple(f"i{k + 1}" for k in range(len(w)))
    return WeightVector(tuple(ids), w, kind="subjective")


def _power_iteration(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 10_000
                     ) -> tuple[np.ndarray, float]:
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


def consistency_ratio(j: np.ndarray) -> tuple[float, float, float]:
    """(lambda_max, CI, CR) with the standard random-index table; CR = 0 when RI = 0."""
    validate_judgment(j)
    n = j.shape[0]
    _, lam = _power_iteration(np.asarray(j, dtype=float))
    ci = (lam - n) / (n - 1)
    ri = RANDOM_INDEX[n]
    cr = 0.0 if ri == 0 else ci / ri
    return lam, ci, cr


def parse_scale_value(token: str) -> float:
    """Parse a judgment entry: decimal or a fraction token like '1/7'."""
    token = token.strip()
    try:
        if "/" in token:
            return float(Fraction(token))
        return float(token)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse judgment entry {token!r}") from None


def load_judgment_csv(path: str | Path) -> np.ndarray:
    """Read an n x n judgment matrix; entries may be decimals or '1/7'-style fractions.

    Each distinct token is parsed once per file; the first unparsable cell in
    row-major order is the one named.
    """
    rows = [r for r in read_csv_rows(path) if r and any(c.strip() for c in r)]
    n = len(rows)
    parsed: dict[str, float] = {}
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"{path}: row {i + 1} has {len(row)} entries, expected {n}")
        for k, cell in enumerate(row):
            if cell not in parsed:
                try:
                    parsed[cell] = parse_scale_value(cell)
                except ValueError as e:
                    raise ValueError(f"{path}: cell ({i + 1},{k + 1}): {e}") from None
    return np.array([[parsed[c] for c in row] for row in rows], dtype=float).reshape(n, n)
