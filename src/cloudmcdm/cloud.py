"""Normal cloud model: forward/backward generators, grade clouds, weighted
aggregation, droplet-based similarity, and maximum-similarity grade assignment.

A qualitative concept is the triple (Ex, En, He): expected value, entropy
(breadth of the concept) and hyper-entropy (dispersion of the breadth, the
cloud's "thickness"). All randomness flows through numpy's PCG64 generator
seeded explicitly, so a droplet stream is a pure function of (params, n, seed).
Droplets are built from a generator's standard normals, so clouds that read the
same stream share its draws: one evaluation draws the two streams of each grade
band once and scores every cloud on them. These are the common random numbers
each cloud would read if graded alone, so a cloud's similarity table does not
depend on which other clouds are graded with it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class CloudParams:
    ex: float
    en: float
    he: float

    def __post_init__(self):
        if not np.isfinite(self.ex):
            raise ValueError("Ex must be finite")
        if self.en < 0 or self.he < 0:
            raise ValueError("En and He must be nonnegative")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.ex, self.en, self.he)


@dataclass(frozen=True)
class DropletSet:
    x: np.ndarray
    mu: np.ndarray
    seed: int
    source: CloudParams
    en_prime: np.ndarray | None = None  # per-droplet entropy draws, for diagnostics


@dataclass(frozen=True)
class BackwardResult:
    params: CloudParams
    he_clamped: bool  # True when S^2 < En^2 forced the He estimate to 0


@dataclass(frozen=True)
class GradeScheme:
    """Ordered grade bands covering [0,100] without gaps or overlaps."""

    bands: tuple[tuple[str, float, float], ...]
    he_ratio: float = 0.1

    def __post_init__(self):
        if self.he_ratio <= 0:
            raise ValueError("he_ratio must be positive")
        if not self.bands:
            raise ValueError("scheme needs at least one band")
        prev_hi = 0.0
        for label, lo, hi in self.bands:
            if lo >= hi:
                raise ValueError(f"band {label!r}: lower {lo} must be below upper {hi}")
            if abs(lo - prev_hi) > 1e-12:
                raise ValueError(f"band {label!r} starts at {lo}, expected {prev_hi} (gap/overlap)")
            prev_hi = hi
        if abs(prev_hi - 100.0) > 1e-12:
            raise ValueError(f"bands must cover up to 100, last ends at {prev_hi}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _, _ in self.bands)

    def midpoints(self) -> np.ndarray:
        return np.array([(lo + hi) / 2.0 for _, lo, hi in self.bands])

    def clouds(self) -> list[tuple[str, CloudParams]]:
        return [(label, grade_cloud((lo, hi), self.he_ratio)) for label, lo, hi in self.bands]


DEFAULT_SCHEME = GradeScheme(
    bands=(("poor", 0.0, 60.0), ("fair", 60.0, 75.0), ("good", 75.0, 85.0), ("excellent", 85.0, 100.0)),
)


def load_scheme(path: str | Path) -> GradeScheme:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    bands = tuple((str(b["label"]), float(b["lower"]), float(b["upper"])) for b in doc["bands"])
    return GradeScheme(bands=bands, he_ratio=float(doc.get("he_ratio", 0.1)))


def _rng(seed: int, *stream: int) -> np.random.Generator:
    """Generator for (seed, sub-stream); distinct streams never overlap."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, stream)]))


class _Normals:
    """Standard normals of one generator in draw order, drawn on demand and kept.

    numpy's `normal(loc, scale)` is `loc + scale * standard_normal()` per draw, so
    droplets built from these values are those drawn with `normal` itself, and
    every cloud that reads the same generator reads the same values.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._z = np.empty(0)

    def upto(self, stop: int) -> np.ndarray:
        """The stream's first `stop` values (possibly more), extending it if needed."""
        if stop > self._z.size:
            more = self._rng.standard_normal(stop - self._z.size)
            self._z = np.concatenate((self._z, more)) if self._z.size else more
        return self._z


def _droplets(c: CloudParams, n: int, z: _Normals) -> tuple[np.ndarray, np.ndarray | None]:
    """Droplet positions x and entropy draws En' (None when En = 0) read from z.

    z is read in order: n values for En' = En + He*z (skipped when He = 0), one
    more per non-positive En' to resample it, then n for x = Ex + En'*z.
    """
    if n < 1:
        raise ValueError("droplet count must be at least 1")
    if c.en == 0 and c.he > 0:
        raise ValueError("En = 0 with He > 0: entropy draws centered at 0 are ill-defined")
    if c.en == 0:
        return np.full(n, c.ex), None
    if c.he == 0:
        enp, used = np.full(n, c.en), 0
    else:
        enp, used = c.en + c.he * z.upto(2 * n)[:n], n
        while True:  # resample (not abs) to keep truncated-normal semantics
            bad = enp <= 0
            if not bad.any():
                break
            count = int(bad.sum())
            enp[bad] = c.en + c.he * z.upto(used + count)[used:used + count]
            used += count
    return c.ex + enp * z.upto(used + n)[used:used + n], enp


def forward_cloud(c: CloudParams, n: int, seed: int) -> DropletSet:
    """Generate n droplets (x, mu) from a cloud.

    Per droplet: En' ~ Normal(En, He^2) resampled until positive, then
    x ~ Normal(Ex, En'^2) and mu = exp(-(x-Ex)^2 / (2 En'^2)). Degenerate
    cases: He = 0 fixes En' = En; En = He = 0 yields n copies of (Ex, 1).
    Fully determined by (params, n, seed).
    """
    x, enp = _droplets(c, n, _Normals(_rng(seed)))
    mu = np.ones(n) if enp is None else np.exp(-((x - c.ex) ** 2) / (2.0 * enp**2))
    return DropletSet(x=x, mu=mu, seed=int(seed), source=c, en_prime=enp)


def backward_cloud(samples: np.ndarray) -> BackwardResult:
    """Moment-based parameter estimation from raw samples (no memberships).

    Ex^ = mean, En^ = sqrt(pi/2) * mean|x - Ex^|, He^ = sqrt(max(0, S^2 - En^2))
    with S^2 the unbiased sample variance. The clamp at 0 is flagged.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 10:
        raise ValueError(f"backward generator needs at least 10 samples, got {x.size}")
    ex = float(x.mean())
    en = float(np.sqrt(np.pi / 2.0) * np.abs(x - ex).mean())
    s2 = float(x.var(ddof=1))
    gap = s2 - en**2
    clamped = gap < 0
    he = float(np.sqrt(max(0.0, gap)))
    return BackwardResult(params=CloudParams(ex, en, he), he_clamped=clamped)


def indicator_cloud(ratings: np.ndarray) -> CloudParams:
    """Cloud parameters of one indicator from its 0-100 rating samples."""
    return backward_cloud(ratings).params


def grade_cloud(band: tuple[float, float], he_ratio: float = 0.1) -> CloudParams:
    """Standard cloud of a score band: Ex = midpoint, En = width/6, He = he_ratio * En."""
    lo, hi = band
    if lo >= hi:
        raise ValueError(f"band lower bound {lo} must be below upper bound {hi}")
    en = (hi - lo) / 6.0
    return CloudParams(ex=(lo + hi) / 2.0, en=en, he=he_ratio * en)


def aggregate_clouds(children: list[CloudParams], w, strategy: str = "linear") -> CloudParams:
    """Weighted aggregation of child clouds into a parent cloud.

    linear (default): weighted mean of each parameter. quadratic: weighted
    mean of Ex, root-sum-square of weighted En and He.
    """
    weights = np.asarray(getattr(w, "weights", w), dtype=float)
    if len(children) != weights.size:
        raise ValueError(f"{len(children)} clouds but {weights.size} weights")
    if abs(weights.sum() - 1.0) > 1e-9 or (weights < 0).any():
        raise ValueError("aggregation weights must be a simplex vector")
    ex = np.array([c.ex for c in children])
    en = np.array([c.en for c in children])
    he = np.array([c.he for c in children])
    if strategy == "linear":
        return CloudParams(float(weights @ ex), float(weights @ en), float(weights @ he))
    if strategy == "quadratic":
        return CloudParams(
            float(weights @ ex),
            float(np.sqrt(np.sum(weights**2 * en**2))),
            float(np.sqrt(np.sum(weights**2 * he**2))),
        )
    raise ValueError(f"unknown aggregation strategy {strategy!r}")


def _mean_membership(x: np.ndarray, b: CloudParams) -> float:
    """Mean membership of droplets x under b's expectation curve."""
    return float(np.mean(np.exp(-((x - b.ex) ** 2) / (2.0 * b.en**2))))


def cloud_similarity(a: CloudParams, b: CloudParams, n: int = 20_000, seed: int = 0) -> float:
    """Droplet-membership similarity in [0,1].

    Droplets generated from a are scored under b's expectation curve
    mu_b(x) = exp(-(x - Ex_b)^2 / (2 En_b^2)); when both clouds have positive
    entropy the two directions are averaged (symmetrized form). Deterministic
    for a fixed (n, seed).
    """
    if n < 1000:
        raise ValueError("similarity needs at least 1000 droplets")
    if b.en == 0:
        if a == b:
            return 1.0
        raise ValueError("reference cloud has En = 0; its expectation curve is degenerate")
    forward = _mean_membership(_droplets(a, n, _Normals(_rng(seed, 0)))[0], b)
    if a.en == 0:
        return forward
    backward = _mean_membership(_droplets(b, n, _Normals(_rng(seed, 1)))[0], a)
    return 0.5 * (forward + backward)


def grade_clouds(clouds: list[CloudParams], scheme: GradeScheme = DEFAULT_SCHEME,
                 n: int = 20_000, seed: int = 0) -> list[tuple[str, dict[str, float]]]:
    """Grade every cloud of one evaluation: per cloud, in order, the label of the
    most similar grade cloud and the full similarity table.

    The similarity to band k averages two directions: the graded cloud's
    droplets from stream (seed, 2, k) under the grade cloud's curve, and the
    grade cloud's droplets from stream (seed, 3, k) under the graded cloud's
    curve (left out when the graded cloud has En = 0). Each band's two streams
    are drawn once and every cloud is scored on them, one band at a time. These
    are the same common random numbers for every cloud, so a cloud's table does
    not depend on which other clouds are graded with it. Exact ties are broken
    toward the higher band.
    """
    tables: list[dict[str, float]] = [{} for _ in clouds]
    for k, (label, gc) in enumerate(scheme.clouds()):
        forward = _Normals(_rng(seed, 2, k))
        gx, _ = _droplets(gc, n, _Normals(_rng(seed, 3, k)))
        for c, table in zip(clouds, tables):
            sim = _mean_membership(_droplets(c, n, forward)[0], gc)
            table[label] = 0.5 * (sim + _mean_membership(gx, c)) if c.en > 0 else sim
    return [(_best_label(table), table) for table in tables]


def _best_label(table: dict[str, float]) -> str:
    best_label, best = None, -1.0
    for label, sim in table.items():
        if sim >= best:  # scanning low -> high, so equal similarity promotes
            best_label, best = label, sim
    return best_label


def assign_grade(c: CloudParams, scheme: GradeScheme = DEFAULT_SCHEME, n: int = 20_000,
                 seed: int = 0) -> tuple[str, dict[str, float]]:
    """Label of the most similar grade cloud, plus the full similarity table.

    `grade_clouds` for one cloud: the table equals that cloud's table in any
    batch graded with the same scheme, n and seed.
    """
    return grade_clouds([c], scheme, n, seed)[0]
