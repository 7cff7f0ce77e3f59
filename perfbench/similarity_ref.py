"""Deterministic reference for the droplet-membership similarities in a report.

`cloud.assign_grade` estimates, per grade band, the mean membership of one
cloud's droplets under the other cloud's expectation curve, in both
directions, by Monte Carlo. The same expectation has a closed form over x:

    E_x[exp(-(x - Ex_b)^2 / (2 En_b^2)) | En'] = En_b / s * exp(-(Ex_a - Ex_b)^2 / (2 s^2)),
    s^2 = En_b^2 + En'^2,

for x ~ N(Ex_a, En'^2). What remains is one integral over the droplet
entropy En' ~ N(En_a, He_a^2) truncated to (0, inf), because the generator
resamples non-positive draws instead of reflecting them. That integral is
taken by Gauss-Legendre quadrature over +-12 standard deviations (clipped at
0) and divided by the quadrature of the density itself, so the truncation is
normalised exactly. Its error is below 1e-12, far below the ~1e-3 Monte
Carlo error of 20 000 droplets that it measures.
"""

from __future__ import annotations

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(400)
_SPAN = 12.0  # half-width of the integration window in standard deviations of En'


def directed(a: tuple[float, float, float], b: tuple[float, float, float]) -> float:
    """Expected membership of droplets of cloud a = (Ex, En, He) under b's expectation curve."""
    ex_a, en_a, he_a = a
    ex_b, en_b, _ = b
    if en_b <= 0:
        raise ValueError("reference cloud needs En > 0")

    def given(enp):
        s2 = en_b**2 + enp**2
        return en_b / np.sqrt(s2) * np.exp(-((ex_a - ex_b) ** 2) / (2.0 * s2))

    if he_a == 0:
        return float(given(en_a))
    if en_a <= 0:
        raise ValueError("En = 0 with He > 0 has no droplet distribution")
    lo, hi = max(0.0, en_a - _SPAN * he_a), en_a + _SPAN * he_a
    e = 0.5 * (hi - lo) * _NODES + 0.5 * (hi + lo)
    density = _WEIGHTS * np.exp(-0.5 * ((e - en_a) / he_a) ** 2)
    return float(density @ given(e) / density.sum())


def similarity(a: tuple[float, float, float], b: tuple[float, float, float]) -> float:
    """Symmetrised similarity as `assign_grade` defines it: the mean of both directions,
    or the forward direction alone when a has zero entropy."""
    if a[1] == 0:
        return directed(a, b)
    return 0.5 * (directed(a, b) + directed(b, a))


def standard_error(a: tuple[float, float, float], b: tuple[float, float, float], n: int) -> float:
    """Standard deviation of `assign_grade`'s n-droplet estimate of similarity(a, b).

    Each direction is the mean of n independent memberships mu_b(x); its second
    moment E[mu_b(x)^2] is the expected membership under b's curve with En_b
    divided by sqrt(2). The two directions use independent droplets.
    """
    def variance(p, q):
        sharper = (q[0], q[1] / np.sqrt(2.0), q[2])
        return max(directed(p, sharper) - directed(p, q) ** 2, 0.0) / n

    if a[1] == 0:
        return float(np.sqrt(variance(a, b)))
    return float(0.5 * np.sqrt(variance(a, b) + variance(b, a)))


def grade_clouds(scheme: dict) -> list[tuple[str, tuple[float, float, float]]]:
    """Grade clouds of a report's scheme: Ex = midpoint, En = width / 6, He = he_ratio * En."""
    out = []
    for band in scheme["bands"]:
        en = (band["upper"] - band["lower"]) / 6.0
        out.append((band["label"], ((band["lower"] + band["upper"]) / 2.0, en, scheme["he_ratio"] * en)))
    return out


def reference_table(cloud: dict, scheme: dict) -> dict[str, float]:
    """Reference similarity of a report cloud {"ex", "en", "he"} to every grade band."""
    c = (cloud["ex"], cloud["en"], cloud["he"])
    return {label: similarity(c, g) for label, g in grade_clouds(scheme)}


def reference_grade(table: dict[str, float]) -> tuple[str, float]:
    """Arg-max band of a table in band order, ties to the higher band, and its margin
    over the runner-up."""
    best = None
    for label, sim in table.items():
        if best is None or sim >= table[best]:
            best = label
    others = [sim for label, sim in table.items() if label != best]
    return best, table[best] - max(others, default=0.0)
