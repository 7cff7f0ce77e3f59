"""A fixed piece of work that does not touch cloudmcdm, timed to measure how fast the host is."""

from __future__ import annotations

import time

import numpy


def probe_time() -> float:
    """Wall seconds of a fixed piece of work that does not touch cloudmcdm.

    It mixes the kinds of work the operations do: interpreted arithmetic,
    numpy normal draws and exponentials over 20 000-element arrays, and float
    formatting. Run right before and right after an operation, it measures how
    fast the host is while the operation runs. The host's speed changes by up
    to 1.6x within seconds as other tenants load it, so `op_norm` divides each
    operation's wall time by the mean of its two probes: on this host that
    ratio is four to eight times steadier across runs than the wall time.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i
    rng = numpy.random.default_rng(0)
    for _ in range(3):
        x = rng.normal(50.0, 5.0, 20_000)
        float(numpy.exp(-((x - 50.0) ** 2) / 50.0).mean())
    ",".join(repr(i * 0.37) for i in range(4_000))
    return time.perf_counter() - t0
