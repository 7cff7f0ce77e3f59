import numpy as np
import pytest

from cloudmcdm.cloud import DEFAULT_SCHEME, GradeScheme
from cloudmcdm.ewm import WeightVector
from cloudmcdm.fce import fce_score, membership_matrix

from helpers import triangular_memberships

MIDS = DEFAULT_SCHEME.midpoints()  # 30, 67.5, 80, 92.5


def wv(weights):
    weights = np.asarray(weights, dtype=float)
    return WeightVector(tuple(f"c{j}" for j in range(len(weights))), weights)


def row(score):
    return membership_matrix([score], DEFAULT_SCHEME)[0]


def test_band_midpoint_is_apex():
    np.testing.assert_allclose(row(80.0), [0, 0, 1, 0])


def test_halfway_between_midpoints_splits_evenly():
    np.testing.assert_allclose(row((67.5 + 80.0) / 2), [0, 0.5, 0.5, 0])


def test_scale_ends_clamp_to_extreme_bands():
    np.testing.assert_allclose(row(0.0), [1, 0, 0, 0])
    np.testing.assert_allclose(row(100.0), [0, 0, 0, 1])


def test_out_of_range_score_rejected():
    with pytest.raises(ValueError, match=r"^score 101\.0 outside \[0, 100\]$"):
        membership_matrix([101.0], DEFAULT_SCHEME)


@pytest.mark.parametrize("scores, first", [
    ([50.0, 101.0, -1.0, 102.0], "101.0"),
    ([50.0, -0.5, 101.0], "-0.5"),
    ([80.0, float("nan")], "nan"),
])
def test_out_of_range_names_the_first_score(scores, first):
    # the text the per-score rows raised for the first score they could not place
    with pytest.raises(ValueError, match=rf"^score {first} outside \[0, 100\]$"):
        membership_matrix(scores, DEFAULT_SCHEME)
    with pytest.raises(ValueError, match=rf"^score {first} outside \[0, 100\]$"):
        [triangular_memberships(float(s), DEFAULT_SCHEME) for s in scores]


SCHEMES = {
    "default": DEFAULT_SCHEME,
    "one band": GradeScheme(bands=(("all", 0.0, 100.0),)),
    "two bands": GradeScheme(bands=(("low", 0.0, 37.5), ("high", 37.5, 100.0))),
}


@pytest.mark.parametrize("scheme", SCHEMES.values(), ids=SCHEMES.keys())
def test_matrix_has_the_bits_of_the_per_score_rows(scheme):
    # 5000 random scores, every band midpoint, the scale ends and the band edges
    rng = np.random.default_rng(33)
    edges = [v for _, lo, hi in scheme.bands for v in (lo, hi)]
    scores = np.concatenate([rng.uniform(0, 100, 5000), scheme.midpoints(), [0.0, 100.0], edges])
    want = np.vstack([triangular_memberships(float(s), scheme) for s in scores])
    got = membership_matrix(scores, scheme)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    # the same bits from a list of Python floats, as run_pipeline passes them
    assert membership_matrix(scores.tolist(), scheme).tobytes() == want.tobytes()


def test_rows_sum_to_one():
    scores = np.linspace(0, 100, 33)
    m = membership_matrix(scores, DEFAULT_SCHEME)
    np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)


def test_one_hot_weight_returns_that_indicator():
    m = membership_matrix([40.0, 80.0, 90.0], DEFAULT_SCHEME)
    s = fce_score(m, wv([0, 1, 0]), DEFAULT_SCHEME)
    assert s == pytest.approx(80.0, abs=1e-12)


def test_all_at_good_midpoint_scores_80():
    m = membership_matrix([80.0] * 5, DEFAULT_SCHEME)
    s = fce_score(m, wv(np.full(5, 0.2)), DEFAULT_SCHEME)
    assert s == pytest.approx(80.0, abs=1e-12)


def test_matches_matrix_product_oracle():
    rng = np.random.default_rng(30)
    scores = rng.uniform(0, 100, 5)
    w = rng.dirichlet(np.ones(5))
    m = membership_matrix(scores, DEFAULT_SCHEME)
    expected = 0.0
    for k in range(len(MIDS)):
        agg = sum(w[i] * m[i, k] for i in range(5))
        expected += agg * MIDS[k]
    assert fce_score(m, wv(w), DEFAULT_SCHEME) == pytest.approx(expected, abs=1e-12)


def test_monotone_in_each_score():
    rng = np.random.default_rng(31)
    scores = rng.uniform(5, 95, 4)
    w = rng.dirichlet(np.ones(4))
    base = fce_score(membership_matrix(scores, DEFAULT_SCHEME), wv(w), DEFAULT_SCHEME)
    for i in range(4):
        bumped = scores.copy()
        bumped[i] = min(100.0, bumped[i] + 3.0)
        s = fce_score(membership_matrix(bumped, DEFAULT_SCHEME), wv(w), DEFAULT_SCHEME)
        assert s >= base - 1e-12


def test_output_bounded_by_extreme_midpoints():
    rng = np.random.default_rng(32)
    scores = rng.uniform(0, 100, 6)
    w = rng.dirichlet(np.ones(6))
    s = fce_score(membership_matrix(scores, DEFAULT_SCHEME), wv(w), DEFAULT_SCHEME)
    assert MIDS[0] <= s <= MIDS[-1]


def test_dimension_mismatch():
    m = membership_matrix([50.0, 60.0], DEFAULT_SCHEME)
    with pytest.raises(ValueError, match="match"):
        fce_score(m, wv([1.0]), DEFAULT_SCHEME)


def test_rows_must_sum_to_one():
    with pytest.raises(ValueError, match="^each membership row must sum to 1$"):
        fce_score(np.full((2, len(MIDS)), 0.8 / len(MIDS)), wv([0.5, 0.5]), DEFAULT_SCHEME)
