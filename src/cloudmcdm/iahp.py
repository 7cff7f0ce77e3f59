"""Subjective weighting via AHP with automatic judgment-matrix repair.

A reciprocal judgment matrix on the 1/9..9 scale is mapped to a complementary
preference relation on the 0.1..0.9 scale and pulled toward its multiplicatively
transitive reference (Tanino 1984; Chiclana et al. 2009), logit r_i - r_j with r
the row means of logit p: the mean of the chains logit p_it + logit p_tj over
every item t. Each pull moves logit p linearly toward it and keeps its row means,
so the reference is built once. The pulls stop once the Frobenius distance drops
under a threshold; the relation is mapped back to the 1/9..9 scale and the usual
CR test applied. Relisting the items relists the result. A checked relation has
|logit p_ij| <= logit 0.9, so the reference and every iterate stay under twice it.
`weigh_judgments` repairs the matrices of one order in lockstep, with private
kernels over stacks of upper triangles and one power iteration per matrix for
its CR and weights. Every row of a stack is computed on its own, so a matrix that
stops is frozen by a mask, never sliced out, and has the bits of a stack of one;
`auto_correct`, `consistency_ratio` and `principal_weights` are one-matrix calls.
"""

from __future__ import annotations

import re
from collections import namedtuple
from pathlib import Path

import numpy as np

from .dataprep import CheckedRecord, read_csv_rows
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


# sigma: pull strength toward the consistent reference; tau: acceptance threshold on the distance metric
class RepairConfig(CheckedRecord, namedtuple("RepairConfig", "sigma tau max_iter", defaults=(0.8, 0.1, 20))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.sigma < 1.0:
            raise ValueError(f"sigma must lie in (0,1), got {self.sigma}")
        if not self.tau > 0:  # NaN fails too
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.tau == float("inf"):  # every distance is under it, so no matrix would be repaired
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        return self


class RepairTrace:
    """One matrix's distance before each repair step, then its CR once repaired."""

    __slots__ = ("distances", "final_cr")

    def __init__(self):
        self.distances: list[float] = []
        self.final_cr: float | None = None

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
    """Check finite entries, an order in [1, 15], positive entries, unit diagonal
    and reciprocity r_ij * r_ji = 1."""
    j = _check_square(j, "judgment matrix")
    if not np.isfinite(j).all():
        i, k = np.argwhere(~np.isfinite(j))[0]
        raise ValueError(f"non-finite entry {float(j[i, k])} at cell ({i + 1},{k + 1})")
    n = j.shape[0]
    if not (1 <= n <= 15):
        raise ValueError(f"judgment matrix order must be in [1, 15], got {n}")
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
    nearest = np.abs(j[..., None] - SAATY_VALUES).argmin(axis=-1)
    # the same bits as the distance at the argmin, so one reduction decides both
    off = np.abs(j - SAATY_VALUES[nearest]) > _SCALE_TOL
    if off.any():
        i, k = np.argwhere(off)[0]
        raise ValueError(
            f"entry {float(j[i, k])} at cell ({i + 1},{k + 1}) is not on the 1/9..9 scale"
        )
    return PREFERENCE_VALUES[nearest]


def _saaty(upper: np.ndarray, n: int) -> np.ndarray:
    """Order-n reciprocal matrices on the 1/9..9 scale from (..., m) upper triangles of
    preferences in [0.1, 0.9], in row-major order. Each p is mapped through max(p, 1 - p),
    interpolated between adjacent knots of 0.5..0.9 -> 1..9, and inverted where p < 0.5,
    so p and 1 - p map to reciprocals (1 - p is exact on the knots below 0.5). The lower
    triangle is rebuilt exactly via r_ji = 1 / r_ij so reciprocity holds."""
    i, k = _upper(n)
    r = np.interp(np.maximum(upper, 1.0 - upper), PREFERENCE_VALUES[8:], SAATY_VALUES[8:])
    r = np.where(upper < 0.5, 1.0 / r, r)
    j = np.ones((*r.shape[:-1], n, n))
    j[..., i, k] = r
    j[..., k, i] = 1.0 / r
    return j


def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the cells above the diagonal, in row-major order."""
    return np.nonzero(np.less.outer(np.arange(n), np.arange(n)))


def _references(x: np.ndarray, n: int) -> np.ndarray:
    """Log-odds of the consistent references of a (k, m) stack of order-n relations,
    each given as its upper-triangle log-odds x_ij, i < j, in row-major order:
    r_i - r_j, with r_i the mean of row i of the antisymmetric matrix of x."""
    i, j = _upper(n)
    full = np.zeros((len(x), n, n))
    full[:, i, j], full[:, j, i] = x, -x
    r = full.sum(axis=2) / n
    return r[:, i] - r[:, j]


def _probabilities(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Frobenius distances between relations given as (k, m) upper triangles; their
    lower triangles, 1 - p and 1 - q, add as much again. Fancy indexing leaves the
    stacks column-major; each row is summed contiguous, as a stack of one is."""
    return np.sqrt(2.0 * np.sum(np.ascontiguousarray(p - q) ** 2, axis=1))


def _pull(x: np.ndarray, xbar: np.ndarray, sigma: float) -> np.ndarray:
    """One repair step toward the reference, linear in log-odds."""
    return (1.0 - sigma) * x + sigma * xbar


def weigh_judgments(matrices, cfg: RepairConfig | None = None) -> list[tuple | ValueError | RepairError]:
    """Per matrix, in input order, (repaired matrix, weights, trace) or the error
    `auto_correct` raises for it alone, with the bits of a one-matrix call.

    Each matrix is checked once. Those of one order are repaired in lockstep:
    their references are built once, and each sweep measures and pulls the whole
    stack in one pass. Rows are computed alone, so a matrix whose distance is under
    tau, or that has spent max_iter steps, leaves the `live` mask and is frozen, not
    sliced out. One stacked `_saaty` and one stacked power iteration per order give
    the repaired matrices, lambda_max and the weights."""
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
        i, j = _upper(n)
        ks = np.array(list(members))
        p = np.stack(list(members.values()))[:, i, j]  # upper triangles: each lower one is 1 - its upper
        x = np.log(p / (1.0 - p))
        xbar = _references(x, n)
        pbar = _probabilities(xbar)
        live = np.ones(len(ks), dtype=bool)
        for sweep in range(cfg.max_iter + 1):
            d = _distances(p, pbar)
            for k, dk in zip(ks[live].tolist(), d[live].tolist()):
                traces[k].distances.append(dk)
            live &= ~(d < cfg.tau)
            if sweep == cfg.max_iter or not live.any():
                break
            x = np.where(live[:, None], _pull(x, xbar, cfg.sigma), x)
            p = _probabilities(x)
        for k in ks[live].tolist():  # still live after max_iter steps
            out[k] = RepairError(f"repair did not reach d < {cfg.tau} within {cfg.max_iter} "
                                 f"iterations (last d = {traces[k].distances[-1]:.4f})", traces[k])
        moved = np.array([traces[k].iterations > 0 for k in ks])[:, None, None]
        given = np.stack([np.asarray(matrices[k], dtype=float) for k in ks])
        # iterates can pass the 0.9 knot; clamp them back onto the table's domain
        repaired = np.where(moved, _saaty(np.clip(p, 0.1, 0.9), n), given)[~live]
        weights, lam = _power_iteration(repaired)
        for k, a, w, lk in zip(ks[~live].tolist(), repaired, weights, lam.tolist()):
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
    """Normalized dominant eigenvectors and lambda_max of a (k, n, n) stack. `@` solves
    each matrix alone, and one that stops leaves the `live` mask and is frozen, so it
    gets the bits a stack of one would."""
    k, n, _ = a.shape
    v, live = np.full((k, n), 1.0 / n), np.ones(k, dtype=bool)
    for _ in range(max_sweeps):
        av = (a @ v[..., None])[..., 0]
        nxt = av / av.sum(axis=1, keepdims=True)
        moving = ~(np.abs(nxt - v).max(axis=1) < tol)
        v = np.where(live[:, None], nxt, v)
        live &= moving
        if not live.any():
            break
    else:
        raise RuntimeError("power iteration did not converge")
    av = (a @ v[..., None])[..., 0]
    return v / v.sum(axis=1, keepdims=True), np.mean(av / v, axis=1)


def _ratios(lam: float, n: int) -> tuple[float, float, float]:
    ci = (lam - n) / (n - 1) if n > 1 else 0.0
    ri = RANDOM_INDEX[n]
    return lam, ci, 0.0 if ri == 0 else ci / ri


def consistency_ratio(j: np.ndarray) -> tuple[float, float, float]:
    """(lambda_max, CI, CR) with the standard random-index table; CR = 0 when RI = 0."""
    validate_judgment(j)
    a = np.asarray(j, dtype=float)
    _, lam = _power_iteration(a[None])
    return _ratios(float(lam[0]), a.shape[0])


def parse_scale_value(token: str) -> float:
    """A judgment entry: a decimal as float() reads it, or a fraction a/b of integers (digits with
    single underscores, a sign on a only, spaces around '/') by correctly rounded int division."""
    token = token.strip()
    fraction = re.fullmatch(r"([-+]?\d+(?:_\d+)*)\s*/\s*(\d+(?:_\d+)*)", token) if "/" in token else None
    try:
        return int(fraction[1]) / int(fraction[2]) if fraction else float(token)
    except (ValueError, ZeroDivisionError, OverflowError):  # OverflowError: a quotient too large for a float
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
