"""Tests of the benchmark's own parts: generator, similarity reference, self times."""

from __future__ import annotations

import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import scaled_inputs  # noqa: E402
import similarity_ref  # noqa: E402
import spans  # noqa: E402
from cloudmcdm.cloud import CloudParams, cloud_similarity  # noqa: E402


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_same_seed_same_bytes(tmp_path):
    first = scaled_inputs.generate(7, tmp_path / "a")
    second = scaled_inputs.generate(7, tmp_path / "b")
    assert first == second
    a = _tree_bytes(tmp_path / "a")
    assert a == _tree_bytes(tmp_path / "b")
    assert len(list((tmp_path / "a" / "judgment").glob("*.csv"))) == first["matrices"] == 16
    assert first["leaves"] == 225 and first["objects"] == 1000 and first["samples"] == 2000
    assert first["repair_steps"] >= first["matrices"]  # every matrix needs at least one step
    scaled_inputs.generate(8, tmp_path / "c")
    c = _tree_bytes(tmp_path / "c")
    assert c.keys() == a.keys()
    assert c["ratings.csv"] != a["ratings.csv"]
    assert c["judgment/criteria.csv"] != a["judgment/criteria.csv"]


def test_reference_self_similarity_of_a_sharp_cloud():
    for cloud in [(50.0, 5.0, 0.0), (80.0, 1.5, 0.0)]:
        assert similarity_ref.similarity(cloud, cloud) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    # the quadrature path tends to the same limit as He -> 0
    assert similarity_ref.similarity((50.0, 5.0, 1e-7), (50.0, 5.0, 1e-7)) == pytest.approx(
        1 / math.sqrt(2), abs=1e-12)


def test_reference_quadrature_has_converged(monkeypatch):
    pairs = [((80.3, 6.4, 2.7), (80.0, 10 / 6, 1 / 6)),   # truncation at En' = 0 matters here
             ((67.5, 2.5, 0.25), (80.3, 6.4, 2.7)),
             ((30.0, 4.0, 3.9), (30.0, 10.0, 1.0))]
    coarse = [similarity_ref.directed(a, b) for a, b in pairs]
    nodes, weights = np.polynomial.legendre.leggauss(1600)
    monkeypatch.setattr(similarity_ref, "_NODES", nodes)
    monkeypatch.setattr(similarity_ref, "_WEIGHTS", weights)
    monkeypatch.setattr(similarity_ref, "_SPAN", 16.0)
    fine = [similarity_ref.directed(a, b) for a, b in pairs]
    assert np.abs(np.array(coarse) - np.array(fine)).max() < 1e-12


def test_reference_matches_monte_carlo():
    a, b = (80.3, 6.4, 2.7), (80.0, 10 / 6, 1 / 6)
    mc = cloud_similarity(CloudParams(*a), CloudParams(*b), n=400_000, seed=5)
    # two directions of 400 000 droplets: standard error below 5e-4
    assert similarity_ref.similarity(a, b) == pytest.approx(mc, abs=2.5e-3)


def test_standard_error_matches_the_monte_carlo_spread():
    a, b = (80.3, 6.4, 2.7), (80.0, 10 / 6, 1 / 6)
    sims = [cloud_similarity(CloudParams(*a), CloudParams(*b), n=1000, seed=s) for s in range(200)]
    # the sample standard deviation of 200 estimates is within ~5 % of the true one
    assert np.std(sims, ddof=1) == pytest.approx(similarity_ref.standard_error(a, b, 1000), rel=0.2)


def test_reference_grade_ties_go_to_the_higher_band():
    assert similarity_ref.reference_grade({"poor": 0.2, "fair": 0.5, "good": 0.5}) == ("good", 0.0)
    assert similarity_ref.reference_grade({"poor": 0.2, "fair": 0.6, "good": 0.5}) == (
        "fair", pytest.approx(0.1))


def test_self_times_subtract_child_coverage():
    s = [spans.Span("root", 0.0, 10.0, -1),
         spans.Span("a", 1.0, 4.0, 0),
         spans.Span("b", 5.0, 7.0, 0),
         spans.Span("c", 2.0, 3.0, 1),
         spans.Span("a", 8.0, 9.0, 0)]
    got = spans.self_times(s)
    assert got == {"root": 4.0, "a": 3.0, "b": 2.0, "c": 1.0}
    assert sum(got.values()) == 10.0


def test_tracer_self_times_add_up_and_names_are_restored():
    class Owner:
        @staticmethod
        def leaf(x):
            return sum(range(x))

        @staticmethod
        def middle(x):
            return Owner.leaf(x) + Owner.leaf(x)

    original = Owner.__dict__["leaf"]
    tracer = spans.Tracer()
    tracer.install([(Owner, "leaf", "leaf", lambda r: {"leaf.calls": 1})])
    try:
        root = tracer.span("root", Owner.middle)
        root(20_000)
        root(20_000)
    finally:
        tracer.uninstall()
    assert Owner.__dict__["leaf"] is original
    assert tracer.counts["leaf.calls"] == 4
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, -1, 3, 3]
    self_s = spans.self_times(tracer.spans)
    total = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    assert sum(self_s.values()) == pytest.approx(total, rel=1e-9)
