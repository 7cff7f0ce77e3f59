"""Normal cloud model: forward generator, backward generator over every rating
column in one pass, grade clouds, weighted aggregation, similarity, and
maximum-similarity grade assignment.

A qualitative concept is the triple (Ex, En, He): expected value, entropy
(breadth of the concept) and hyper-entropy (dispersion of the breadth, the
cloud's "thickness"). Droplets draw from numpy's PCG64 generator seeded
explicitly, so a droplet stream is a pure function of (params, n, seed).
Grading draws no droplets: each similarity to a grade cloud is the exact
expectation of the droplet-membership similarity, taken by Gauss-Legendre
quadrature, so grades and tables depend on neither a seed nor a droplet count.
`cloud_similarity` is the droplet (Monte Carlo) estimate of the same quantity.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataprep import CheckedRecord, column_blocks, json_float, json_list, json_str, json_value, read_json

# Fewest droplets per direction that a similarity estimate, and fewest rows that an
# evaluation's droplets.csv, may rest on.
MIN_DROPLETS = 1000

# Fewest rating samples that the backward generator estimates a cloud from.
MIN_SAMPLES = 10


class CloudParams(CheckedRecord, namedtuple("CloudParams", "ex en he")):
    __slots__ = ()

    def __new__(cls, ex: float, en: float, he: float):
        ex, en, he = float(ex), float(en), float(he)  # floats, so an En = 0 cloud's droplets are float64 too
        if not (math.isfinite(ex) and math.isfinite(en) and math.isfinite(he)):
            name, value = next((n, v) for n, v in zip(("Ex", "En", "He"), (ex, en, he)) if not math.isfinite(v))
            raise ValueError(f"{name} must be finite, got {value}")
        if en < 0 or he < 0:
            raise ValueError("En and He must be nonnegative")
        if en == 0 and he > 0:
            raise ValueError("En = 0 with He > 0: entropy draws centered at 0 are ill-defined")
        return tuple.__new__(cls, (ex, en, he))


class DropletSet(NamedTuple):
    x: np.ndarray
    mu: np.ndarray


class GradeScheme(CheckedRecord, namedtuple("GradeScheme", "bands he_ratio", defaults=(0.1,))):
    """Ordered, uniquely labelled grade bands covering [0,100] without gaps or overlaps."""

    __slots__ = ()
    MAX_HE_RATIO = 10  # a band cloud's He is he_ratio * En; far larger ratios overflow its droplets

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.he_ratio > 0:  # NaN fails too
            raise ValueError("he_ratio must be positive")
        if self.he_ratio > self.MAX_HE_RATIO:
            raise ValueError(f"he_ratio must be at most {self.MAX_HE_RATIO}, got {self.he_ratio}")
        if not self.bands:
            raise ValueError("scheme needs at least one band")
        prev_hi = 0.0
        for k, (label, lo, hi) in enumerate(self.bands):
            if label in self.labels[:k]:
                raise ValueError(f"band label {label!r} is repeated; labels must be unique")
            if lo >= hi:
                raise ValueError(f"band {label!r}: lower {lo} must be below upper {hi}")
            if abs(lo - prev_hi) > 1e-12:
                raise ValueError(f"band {label!r} starts at {lo}, expected {prev_hi} (gap/overlap)")
            prev_hi = hi
        if abs(prev_hi - 100.0) > 1e-12:
            raise ValueError(f"bands must cover up to 100, last ends at {prev_hi}")
        return self

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _, _ in self.bands)

    def midpoints(self) -> np.ndarray:
        return np.array([(lo + hi) / 2.0 for _, lo, hi in self.bands])

    def clouds(self) -> list[tuple[str, CloudParams]]:
        """Standard cloud of each band: Ex = midpoint, En = width / 6, He = he_ratio * En."""
        ens = [(hi - lo) / 6.0 for _, lo, hi in self.bands]
        return [(label, CloudParams((lo + hi) / 2.0, en, self.he_ratio * en))
                for (label, lo, hi), en in zip(self.bands, ens)]


DEFAULT_SCHEME = GradeScheme(
    bands=(("poor", 0.0, 60.0), ("fair", 60.0, 75.0), ("good", 75.0, 85.0), ("excellent", 85.0, 100.0)),
)


def load_scheme(path: str | Path) -> GradeScheme:
    """Read a scheme JSON; a syntax error, a missing or mistyped value and an
    invalid scheme are ValueErrors naming the file."""
    doc = read_json(path)
    bands = tuple(tuple(json_value(path, band, key, convert, where=f"bands[{k}]")
                        for key, convert in (("label", json_str), ("lower", json_float), ("upper", json_float)))
                  for k, band in enumerate(json_value(path, doc, "bands", json_list)))
    he_ratio = json_value(path, doc, "he_ratio", json_float, GradeScheme._field_defaults["he_ratio"])
    try:
        return GradeScheme(bands=bands, he_ratio=he_ratio)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _rng(seed: int, *stream: int) -> np.random.Generator:
    """Generator for (seed, sub-stream); distinct streams never overlap."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, stream)]))


def _droplets(c: CloudParams, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray | None]:
    """Droplet positions x and entropy draws En' (None when En = 0) drawn from rng.

    numpy's `normal(loc, scale)` is `loc + scale * standard_normal()` per draw, so
    these are the bits of `rng.normal`, without its per-element broadcasting over
    the array of En' scales.
    """
    if n < 1:
        raise ValueError("droplet count must be at least 1")
    if c.en == 0:
        return np.full(n, c.ex), None
    if c.he == 0:
        enp = np.full(n, c.en)
    else:
        enp = c.en + c.he * rng.standard_normal(n)
        while True:  # resample (not abs) to keep truncated-normal semantics
            bad = enp <= 0
            if not bad.any():
                break
            enp[bad] = c.en + c.he * rng.standard_normal(int(bad.sum()))
    return c.ex + enp * rng.standard_normal(n), enp


def forward_cloud(c: CloudParams, n: int, seed: int) -> DropletSet:
    """Generate n droplets (x, mu) from a cloud.

    Per droplet: En' ~ Normal(En, He^2) resampled until positive, then
    x ~ Normal(Ex, En'^2) and mu = exp(-(x-Ex)^2 / (2 En'^2)). Degenerate
    cases: He = 0 fixes En' = En; En = He = 0 yields n copies of (Ex, 1).
    Fully determined by (params, n, seed).
    """
    x, enp = _droplets(c, n, _rng(seed))
    mu = np.ones(n) if enp is None else np.exp(-((x - c.ex) ** 2) / (2.0 * enp**2))
    return DropletSet(x=x, mu=mu)


def indicator_cloud(ratings: np.ndarray) -> list[CloudParams]:
    """Cloud of each column of a samples x indicators rating matrix (a 1-D array is
    one column) from moments: Ex^ = mean, En^ = sqrt(pi/2) * mean|x - Ex^| and
    He^ = sqrt(max(0, S^2 - En^2)), S^2 the unbiased sample variance.

    This stage owns the layout its sums depend on: it reads the columns in runs
    through one small F-order buffer (`column_blocks`), so each cloud has the bits
    of its column estimated alone whatever the layout of `ratings`."""
    x = np.asarray(ratings, dtype=float).reshape(len(ratings), -1)
    n = len(x)
    if n < MIN_SAMPLES:
        raise ValueError(f"backward generator needs at least {MIN_SAMPLES} samples, got {n}")
    ex, en, s2 = np.empty((3, x.shape[1]))
    for j, dev in column_blocks(x):
        run = slice(j, j + dev.shape[1])
        ex[run] = dev.sum(axis=0) / n
        np.subtract(dev, ex[run], out=dev)
        np.abs(dev, out=dev)
        en[run] = np.sqrt(np.pi / 2.0) * (dev.sum(axis=0) / n)
        np.multiply(dev, dev, out=dev)  # |d| * |d| has the bits of d * d
        s2[run] = dev.sum(axis=0) / (n - 1)
    return [CloudParams(e, s, math.sqrt(max(0.0, v - s**2)))
            for e, s, v in zip(ex.tolist(), en.tolist(), s2.tolist())]


AGGREGATIONS = ("linear", "quadratic")


def aggregate_clouds(children: list[CloudParams], w, strategy: str = "linear") -> CloudParams:
    """Weighted aggregation of child clouds into a parent cloud.

    linear (default): weighted mean of each parameter. quadratic: weighted
    mean of Ex, root-sum-square of weighted En and He.
    """
    if strategy not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation strategy {strategy!r}")
    weights = np.asarray(getattr(w, "weights", w), dtype=float)
    if len(children) != weights.size:
        raise ValueError(f"{len(children)} clouds but {weights.size} weights")
    if abs(weights.sum() - 1.0) > 1e-9 or (weights < 0).any():
        raise ValueError("aggregation weights must be a simplex vector")
    ex, en, he = np.array([*zip(*children)])  # one contiguous row per field: a strided one dots other bits
    # a child's He > 0 implies its En > 0, but a tiny weight can round its En term to 0
    # and not its He term; dropping that He term keeps the parent's En = 0 => He = 0
    if strategy == "linear":
        he = np.where(weights * en > 0, he, 0.0)
        return CloudParams(float(weights @ ex), float(weights @ en), float(weights @ he))
    en2 = weights**2 * en**2
    return CloudParams(
        float(weights @ ex),
        float(np.sqrt(np.sum(en2))),
        float(np.sqrt(np.sum(np.where(en2 > 0, weights**2 * he**2, 0.0)))),
    )


@functools.cache  # built on first use, once per process, so importing costs nothing
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], n even: Newton's method in
    t = arccos x on P_n(cos t) = sum_j a_j a_(n-j) cos((n - 2j) t), a_j = C(2j, j) / 4^j
    (Swarztrauber 2002), with weights 2 / (dP_n/dt)^2. Elementwise numpy only, so no
    BLAS thread starts; at n = 128 it matches the Golub-Welsch eigenvalue rule to 2e-15.
    """
    half = n // 2
    a = np.cumprod(np.concatenate(([1.0], 1.0 - 0.5 / np.arange(1.0, n + 1))))
    j = np.arange(half + 1)
    coef = np.where(j < half, 2.0, 1.0) * a[j] * a[n - j]  # P_n is even: fold j with n - j
    freq = n - 2.0 * j
    t = np.pi * (4.0 * np.arange(1, half + 1) - 1.0) / (4.0 * n + 2.0)  # Tricomi's guesses, x > 0
    for _ in range(4):  # three steps converge; the fourth takes the slope at the roots
        phase = np.multiply.outer(t, freq)
        slope = -(np.sin(phase) * (coef * freq)).sum(axis=1)
        t = t - (np.cos(phase) * coef).sum(axis=1) / slope
    x, w = np.cos(t), 2.0 / slope**2
    return np.concatenate((-x, x[::-1])), np.concatenate((w, w[::-1]))


_SPAN = 12.0  # half-width of the integration window in standard deviations of En'


def _expected_membership(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Expected membership of droplets of clouds a under the curves of clouds b, each
    (Ex, En, He) along the last axis; where b has En = 0 the result is meaningless.

    Given the droplet entropy En', x ~ N(Ex_a, En'^2) has expected membership
    En_b / s * exp(-(Ex_a - Ex_b)^2 / (2 s^2)), s^2 = En_b^2 + En'^2. That is averaged
    over En' ~ N(En_a, He_a^2) truncated to (0, inf), as droplets resample En' <= 0,
    by 128-node Gauss-Legendre over +-12 He_a clipped at 0 and divided by the
    quadrature of the density; with He_a = 0 it is the closed form at En_a. Against
    400 nodes: within 2e-14 under DEFAULT_SCHEME, heavy truncation such as
    (60, 0.5, 5) and (10, 0.01, 3) included, but only 4e-7 for (99, 20, 19) under
    he_ratio 3 with bands 0-1 / 1-99 / 99-100.
    """
    nodes, weights = _gauss_legendre(128)
    ex_a, en_a, he_a = (a[..., k, None] for k in range(3))
    ex_b, en_b = b[..., 0, None], b[..., 1, None]
    lo = np.maximum(0.0, en_a - _SPAN * he_a)
    hi = en_a + _SPAN * he_a
    enp = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    density = weights * np.exp(-0.5 * ((enp - en_a) / np.where(he_a > 0, he_a, 1.0)) ** 2)
    # He_a = 0: all weight on one node, which reads the closed form exactly
    w = np.where(he_a > 0, density / density.sum(axis=-1, keepdims=True), np.arange(nodes.size) == 0)
    s2 = en_b**2 + enp**2
    return (w * (en_b / np.sqrt(s2) * np.exp(-((ex_a - ex_b) ** 2) / (2.0 * s2)))).sum(axis=-1)


def _symmetrized(en, forward, backward):
    """Similarity from the graded cloud's droplets under the reference curve (forward)
    and the reference's droplets under the graded cloud's curve (backward): their
    mean, or forward alone where the graded cloud has En = 0 and so no curve."""
    return np.where(en > 0, 0.5 * (forward + backward), forward)


def _mean_membership(x: np.ndarray, b: CloudParams) -> float:
    """Mean membership of droplets x under b's expectation curve."""
    return float(np.mean(np.exp(-((x - b.ex) ** 2) / (2.0 * b.en**2))))


def cloud_similarity(a: CloudParams, b: CloudParams, n: int = 20_000, seed: int = 0) -> float:
    """Droplet-membership similarity in [0,1], estimated from droplets.

    Droplets generated from a are scored under b's expectation curve
    mu_b(x) = exp(-(x - Ex_b)^2 / (2 En_b^2)); when a has positive entropy the
    two directions are averaged (symmetrized form). Deterministic for a fixed
    (n, seed); n must be at least MIN_DROPLETS. `grade_clouds` is exact.
    """
    if n < MIN_DROPLETS:
        raise ValueError(f"similarity needs at least {MIN_DROPLETS} droplets, got {n}")
    if b.en == 0:
        if a != b:
            raise ValueError("reference cloud has En = 0; its expectation curve is degenerate")
        return 1.0
    forward = _mean_membership(_droplets(a, n, _rng(seed, 0))[0], b)
    backward = _mean_membership(_droplets(b, n, _rng(seed, 1))[0], a) if a.en > 0 else np.nan
    return float(_symmetrized(a.en, forward, backward))


def grade_clouds(clouds: list[CloudParams], scheme: GradeScheme = DEFAULT_SCHEME
                 ) -> list[tuple[str, dict[str, float]]]:
    """Grade every cloud of one evaluation: per cloud, in order, the label of the
    most similar grade cloud and the full similarity table.

    Each similarity is the exact expectation of `cloud_similarity`'s estimate.
    Every cloud, band and direction is evaluated in one numpy pass and no droplet
    is drawn, so a table depends only on its cloud and the scheme. The label is the
    first maximum scanning from the top band down, so an exact tie goes to the
    higher band.
    """
    labels, bands = zip(*scheme.clouds())
    graded = np.array(clouds, dtype=float).reshape(-1, 1, 3)
    pairs = np.stack(np.broadcast_arrays(graded, np.array(bands, dtype=float)))  # (graded, band), (band, graded)
    forward, backward = _expected_membership(pairs, pairs[::-1])
    sims = _symmetrized(graded[:, :, 1], forward, backward)
    best = len(labels) - 1 - sims[:, ::-1].argmax(axis=1)
    return [(labels[b], dict(zip(labels, row))) for b, row in zip(best.tolist(), sims.tolist())]


def assign_grade(c: CloudParams, scheme: GradeScheme = DEFAULT_SCHEME) -> tuple[str, dict[str, float]]:
    """Label of the most similar grade cloud, plus the full similarity table:
    `grade_clouds` for one cloud."""
    return grade_clouds([c], scheme)[0]
