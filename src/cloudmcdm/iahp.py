"""Subjective weighting via AHP with automatic judgment-matrix repair.

A reciprocal judgment matrix on the 1/9..9 scale is mapped to a complementary
preference relation on the 0.1..0.9 scale, compared against a consistent
reference built from geometric chains of intermediate comparisons, and pulled
toward that reference until the Frobenius distance drops under a threshold.
The repaired relation is mapped back to the 1/9..9 scale and the usual CR test
is applied to the result. `weigh_judgments` repairs the matrices of one order
in lockstep, with one power iteration per matrix for its CR and its weights;
`auto_correct`, `consistency_ratio` and `principal_weights` are one-matrix calls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

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


def validate_judgment(j: np.ndarray) -> None:
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
    if np.abs(np.diag(j) - 1.0).max() > _SCALE_TOL:
        raise ValueError("judgment matrix diagonal must be 1")
    if np.abs(j * j.T - 1.0).max() > 1e-6:
        i, k = np.unravel_index(np.argmax(np.abs(j * j.T - 1.0)), j.shape)
        raise ValueError(f"reciprocity violated at cell ({i + 1},{k + 1})")


def to_preference(j: np.ndarray) -> np.ndarray:
    """Map every on-scale entry through the 17-knot table (1/9 -> 0.1, ..., 9 -> 0.9).

    Off-scale entries are rejected with the offending cell named (1-based).
    """
    j = _check_square(j, "judgment matrix")
    diffs = np.abs(j[..., None] - SAATY_VALUES)
    idx = diffs.argmin(axis=-1)
    off = np.take_along_axis(diffs, idx[..., None], axis=-1)[..., 0] > _SCALE_TOL
    if off.any():
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


class _ChainPlan(NamedTuple):
    left: np.ndarray       # index into ext of the first factor of every chain, cell by cell
    right: np.ndarray      # index into ext of its second factor
    starts: np.ndarray     # offset of each cell's first chain: m numerator cells, then m denominator cells
    exponents: list[float]  # 1/(j-i-1) for the m numerators, then again for the m denominators
    upper: np.ndarray      # flat index of each cell (i, j), j >= i+2, in row-major order
    lower: np.ndarray      # flat index of its mirror (j, i)


@functools.cache
def _chain_plan(n: int) -> _ChainPlan:
    """Gather indices of every chain of an order-n relation (none below order 3).

    `ext` is [p.ravel(), (1 - p).ravel()]: the first half of `left`/`right`
    gathers the numerator chains p_it * p_tj of each cell, the second half the
    denominator chains (1 - p_it) * (1 - p_tj), with no padding between cells.
    """
    i, j = np.triu_indices(n, 2)  # row-major: an error names the first bad cell in row order
    width = j - i - 1  # chains of each cell
    cell, starts = np.repeat(np.arange(len(i)), width), np.cumsum(width) - width
    t = i[cell] + 1 + np.arange(len(cell)) - starts[cell]
    left, right = i[cell] * n + t, t * n + j[cell]
    left, right = np.concatenate((left, left + n * n)), np.concatenate((right, right + n * n))
    starts = np.concatenate((starts, starts + len(t)))
    upper, lower = i * n + j, j * n + i
    for a in (left, right, starts, upper, lower):
        a.flags.writeable = False
    return _ChainPlan(left, right, starts, (1.0 / width).tolist() * 2, upper, lower)


def _references(p: np.ndarray) -> tuple[np.ndarray, list[ValueError | None]]:
    """Consistent references of a (k, n, n) stack of relations, and for each the
    zero-product error that stops it, or None. Chain factors are multiplied left
    to right (`reduceat`) and rooted with libm `pow` (`math.pow`): the bits of
    rebuilding each cell alone with `np.prod` and a scalar power, which the
    repair loop needs, as it feeds its output back into itself."""
    k, n, _ = p.shape
    errors: list[ValueError | None] = [None] * k
    plan = _chain_plan(n)
    ext = np.concatenate((p, 1.0 - p), axis=1).reshape(k, -1)  # [p.ravel(), (1 - p).ravel()] per relation
    prods = np.multiply.reduceat(ext[:, plan.left] * ext[:, plan.right], plan.starts, axis=1)
    m = len(plan.upper)
    if not prods.all():
        bad = (prods[:, :m] == 0.0) | (prods[:, m:] == 0.0)
        for r in np.flatnonzero(bad.any(axis=1)).tolist():
            i, j = divmod(int(plan.upper[np.argmax(bad[r])]), n)
            errors[r] = ValueError(f"degenerate chain for cell ({i + 1},{j + 1}): zero product")
        prods[prods == 0.0] = 1.0  # the stopped relations' rows, kept finite
    roots = np.fromiter(map(math.pow, prods.ravel().tolist(), plan.exponents * k), float, prods.size)
    a, b = roots.reshape(k, 2, m).transpose(1, 0, 2)
    v = a / (a + b)
    out = p.copy()
    flat = out.reshape(k, -1)  # a view: the copy is C-contiguous
    flat[:, plan.upper] = v
    flat[:, plan.lower] = 1.0 - v
    return out, errors


def consistent_reference(p: np.ndarray) -> np.ndarray:
    """Consistent reference relation from geometric chains.

    For j > i+1 the entry is rebuilt from the normalized geometric mean of the
    chains p_it * p_tj over intermediate t; entries with j <= i+1 are copied
    and the lower triangle follows by complementarity. Orders <= 2 pass through.
    """
    p = _check_square(p, "preference relation")
    out, errors = _references(p[None])
    if errors[0]:
        raise errors[0]
    return out[0]


def _distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum((np.abs(p - q) ** 2).reshape(len(p), -1), axis=1))


def preference_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Frobenius distance sqrt(sum |p_ij - q_ij|^2) over all cells."""
    p = _check_square(p, "preference relation")
    q = _check_square(q, "preference relation")
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    return float(_distances(p[None], q[None])[0])


def _pull(p: np.ndarray, pbar: np.ndarray, sigma: float) -> np.ndarray:
    num = p ** (1.0 - sigma) * pbar**sigma
    den = (1.0 - p) ** (1.0 - sigma) * (1.0 - pbar) ** sigma
    return num / (num + den)


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
    return _pull(p, pbar, sigma)


def weigh_judgments(matrices, cfg: RepairConfig | None = None) -> list[tuple | ValueError | RepairError]:
    """Per matrix, in input order, (repaired matrix, weights, trace) or the error
    `auto_correct` raises for it alone, with the bits of a one-matrix call.

    Each matrix is checked once. Those of one order are repaired in lockstep:
    each sweep builds the references of all still repairing in one pass, and a
    matrix leaves once its distance is under tau or max_iter steps are spent.
    One stacked power iteration per order gives lambda_max and the weights."""
    cfg = cfg or RepairConfig()
    out: list = [None] * len(matrices)
    traces = [RepairTrace() for _ in matrices]
    groups: dict[int, dict[int, np.ndarray]] = {}
    for k, j in enumerate(matrices):
        try:
            validate_judgment(j)
            p = to_preference(j)
        except ValueError as e:
            out[k] = e
        else:
            groups.setdefault(len(p), {})[k] = p
    for n, members in groups.items():
        done: dict[int, np.ndarray] = {}
        live, p = np.array(list(members)), np.stack(list(members.values()))
        while live.size:
            ref, errors = _references(p)
            keep = []
            for r, (k, d, error) in enumerate(zip(live.tolist(), _distances(p, ref).tolist(), errors)):
                traces[k].distances.append(d)
                if error:
                    out[k] = error
                elif d < cfg.tau:
                    done[k] = p[r]
                elif traces[k].iterations == cfg.max_iter:
                    out[k] = RepairError(f"repair did not reach d < {cfg.tau} within {cfg.max_iter} "
                                         f"iterations (last d = {d:.4f})", traces[k])
                else:
                    keep.append(r)
            live, p = live[keep], _pull(p[keep], ref[keep], cfg.sigma)
        if not done:
            continue
        # repaired relations can drift past the 0.9 knot; clamp back onto the
        # table's domain (bounds symmetric around 0.5, so complementarity holds)
        repaired = np.stack([from_preference(np.clip(q, 0.1, 0.9)) if traces[k].iterations
                             else np.asarray(matrices[k], dtype=float) for k, q in done.items()])
        weights, lam = _power_iteration(repaired)
        for k, a, w, lk in zip(done, repaired, weights, lam.tolist()):
            cr = traces[k].final_cr = _ratios(lk, n)[2]
            out[k] = ((a, w, traces[k]) if cr < 0.1 else
                      RepairError(f"repaired matrix still fails the CR test (CR = {cr:.4f})", traces[k]))
    return out


def auto_correct(j: np.ndarray, cfg: RepairConfig | None = None) -> tuple[np.ndarray, RepairTrace]:
    """Repair a judgment matrix until the reference distance drops under tau.

    Loops preference transform -> consistent reference -> distance test ->
    repair step, then reverse-transforms and verifies CR < 0.1. Raises
    RepairError (carrying the trace) if max_iter is exhausted. When the
    original matrix already passes (zero repair steps) it is returned as-is.
    """
    got = weigh_judgments([j], cfg)[0]
    if isinstance(got, Exception):
        raise got
    return got[0], got[2]


def principal_weights(j: np.ndarray, ids=None) -> WeightVector:
    """Normalized dominant eigenvector of a positive reciprocal matrix.

    Power iteration; the Perron eigenpair of a positive matrix is simple, so
    convergence is guaranteed. `ids` labels the components (defaults i1..in).
    """
    validate_judgment(j)
    w, _ = _power_iteration(np.asarray(j, dtype=float)[None])
    if ids is None:
        ids = tuple(f"i{k + 1}" for k in range(w.shape[1]))
    return WeightVector(tuple(ids), w[0])


def _power_iteration(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 10_000
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Normalized dominant eigenvectors and lambda_max of a (k, n, n) stack. Each
    matrix stops at its own sweep, so it gets the bits a stack of one would."""
    k, n, _ = a.shape
    v, live = np.full((k, n), 1.0 / n), np.arange(k)
    for _ in range(max_sweeps):
        av = (a[live] @ v[live, :, None])[..., 0]
        nxt = av / av.sum(axis=1, keepdims=True)
        moving = ~(np.abs(nxt - v[live]).max(axis=1) < tol)
        v[live] = nxt
        live = live[moving]
        if not live.size:
            break
    else:
        raise RuntimeError("power iteration did not converge")
    av = (a @ v[..., None])[..., 0]
    return v / v.sum(axis=1, keepdims=True), np.mean(av / v, axis=1)


def _ratios(lam: float, n: int) -> tuple[float, float, float]:
    ci = (lam - n) / (n - 1)
    ri = RANDOM_INDEX[n]
    return lam, ci, 0.0 if ri == 0 else ci / ri


def consistency_ratio(j: np.ndarray) -> tuple[float, float, float]:
    """(lambda_max, CI, CR) with the standard random-index table; CR = 0 when RI = 0."""
    validate_judgment(j)
    a = np.asarray(j, dtype=float)
    _, lam = _power_iteration(a[None])
    return _ratios(float(lam[0]), a.shape[0])


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
