import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import REPO, best_label

from cloudmcdm.cloud import (
    AGGREGATIONS,
    CloudParams,
    DEFAULT_SCHEME,
    MIN_SAMPLES,
    GradeScheme,
    aggregate_clouds,
    assign_grade,
    cloud_similarity,
    forward_cloud,
    grade_clouds,
    indicator_cloud,
)
from cloudmcdm.cloud import _droplets, _rng

sys.path.insert(0, str(REPO / "perfbench"))
import similarity_ref  # noqa: E402  (the quadrature reference of perfbench/run.py)


# -- reference: one generator per draw and one grading pass per cloud ----------
# Droplets drawn with `rng.normal` and Monte Carlo grading: `forward_cloud` and
# `cloud_similarity` must match them bit for bit, and `grade_clouds` is their expectation.

def reference_generate(c, n, rng):
    if n < 1:
        raise ValueError("droplet count must be at least 1")
    if c.en == 0 and c.he > 0:
        raise ValueError("En = 0 with He > 0: entropy draws centered at 0 are ill-defined")
    if c.en == 0:
        return np.full(n, c.ex), None
    if c.he == 0:
        enp = np.full(n, c.en)
    else:
        enp = rng.normal(c.en, c.he, n)
        while True:  # resample (not abs) to keep truncated-normal semantics
            bad = enp <= 0
            if not bad.any():
                break
            enp[bad] = rng.normal(c.en, c.he, int(bad.sum()))
    return rng.normal(c.ex, enp), enp


def reference_directed_similarity(a, b, n, rng):
    x, _ = reference_generate(a, n, rng)
    return float(np.mean(np.exp(-((x - b.ex) ** 2) / (2.0 * b.en**2))))


def reference_cloud_similarity(a, b, n, seed):
    forward = reference_directed_similarity(a, b, n, _rng(seed, 0))
    if a.en == 0:
        return forward
    backward = reference_directed_similarity(b, a, n, _rng(seed, 1))
    return 0.5 * (forward + backward)


def reference_assign_grade(c, scheme, n, seed):
    table = {}
    best_label, best = None, -1.0
    for k, (label, gc) in enumerate(scheme.clouds()):
        fwd = reference_directed_similarity(c, gc, n, _rng(seed, 2, k))
        if c.en > 0:
            bwd = reference_directed_similarity(gc, c, n, _rng(seed, 3, k))
            sim = 0.5 * (fwd + bwd)
        else:
            sim = fwd
        table[label] = sim
        if sim >= best:  # scanning low -> high, so equal similarity promotes
            best_label, best = label, sim
    return best_label, table


# En = 0, He = 0, He >> En (resampling reads past 2n normals), heavy truncation,
# a demo-like comprehensive cloud and a grade cloud
ORACLE_CLOUDS = [CloudParams(70, 0, 0), CloudParams(70, 4, 0), CloudParams(60, 0.5, 5),
                 CloudParams(50, 1, 3), CloudParams(83.118, 6.931, 3.08), dict(DEFAULT_SCHEME.clouds())["good"]]
# plus near-total truncation at En' > 0 and a cloud whose He is close to its En
HARD_CLOUDS = ORACLE_CLOUDS + [CloudParams(10, 0.01, 3), CloudParams(99, 20, 19)]
# wide, thick grade clouds: the quadrature's hardest case
EXTREME_SCHEME = GradeScheme(bands=(("low", 0.0, 1.0), ("mid", 1.0, 99.0), ("top", 99.0, 100.0)),
                             he_ratio=3.0)


# -- forward generator -------------------------------------------------------

def test_degenerate_cloud_yields_constant_droplets():
    d = forward_cloud(CloudParams(85, 0, 0), 5, seed=1)
    np.testing.assert_array_equal(d.x, 85.0)
    np.testing.assert_array_equal(d.mu, 1.0)


def test_forward_moments():
    d = forward_cloud(CloudParams(85, 5, 0), 100_000, seed=99)
    assert d.x.mean() == pytest.approx(85.0, abs=0.05)
    assert d.x.std() == pytest.approx(5.0, abs=0.05)


def test_forward_deterministic():
    a = forward_cloud(CloudParams(85, 5, 0.5), 1000, seed=7)
    b = forward_cloud(CloudParams(85, 5, 0.5), 1000, seed=7)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.mu, b.mu)


def test_membership_bounds():
    d = forward_cloud(CloudParams(50, 10, 2), 50_000, seed=3)
    assert (d.mu > 0).all() and (d.mu <= 1).all()
    at_peak = d.mu == 1.0
    np.testing.assert_array_equal(d.x[at_peak], 50.0)


def test_zero_entropy_with_hyper_entropy_rejected():
    with pytest.raises(ValueError, match="En = 0"):
        forward_cloud(CloudParams(85, 0, 1), 10, seed=0)


def test_forward_needs_a_droplet():
    with pytest.raises(ValueError, match="^droplet count must be at least 1$"):
        forward_cloud(CloudParams(85, 5, 0.5), 0, 0)


@pytest.mark.parametrize("field", ["en", "he"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_entropy_rejected(field, value):
    params = {"ex": 70.0, "en": 4.0, "he": 1.0, field: value}
    with pytest.raises(ValueError, match=f"{field.capitalize()} must be finite"):
        CloudParams(**params)


def test_checked_records_check_a_replaced_field():
    # _replace builds through the same checks and conversions as the constructor
    c = CloudParams(70, 4, 1)
    assert c._replace(ex=71) == (71.0, 4.0, 1.0) and type(c._replace(ex=71).ex) is float
    with pytest.raises(ValueError, match="En and He must be nonnegative"):
        c._replace(he=-1)
    with pytest.raises(ValueError, match="he_ratio must be positive"):
        DEFAULT_SCHEME._replace(he_ratio=0)


def test_entropy_draws_positive():
    _, enp = _droplets(CloudParams(50, 1, 3), 10_000, _rng(5))  # heavy truncation
    assert (enp > 0).all()


# -- backward generator ------------------------------------------------------

def backward_cloud_per_column(samples):
    # cloud.backward_cloud before the one-pass indicator_cloud, verbatim, returning
    # its (params, he_clamped) pair: the oracle of each column of indicator_cloud
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < MIN_SAMPLES:
        raise ValueError(f"backward generator needs at least {MIN_SAMPLES} samples, got {x.size}")
    ex = float(x.mean())
    en = float(np.sqrt(np.pi / 2.0) * np.abs(x - ex).mean())
    s2 = float(x.var(ddof=1))
    gap = s2 - en**2
    clamped = gap < 0
    he = float(np.sqrt(max(0.0, gap)))
    return CloudParams(ex, en, he), clamped


# two-point ratings: S^2 = 2000/19 lies below En^2 = 50 pi, so He clamps to 0
CLAMPED = np.array([40.0, 60.0] * 10)


def _ratings(n, m, seed, digits):
    # each column with its own centre and spread, clipped to the rating scale
    rng = np.random.default_rng(seed)
    x = np.clip(rng.normal(rng.uniform(20, 95, m), rng.uniform(0.5, 15, m), (n, m)), 0.0, 100.0)
    return x if digits is None else np.round(x, digits)


@settings(max_examples=150, deadline=None)
@given(st.integers(10, 300), st.integers(1, 20), st.integers(0, 2**32 - 1), st.sampled_from("CF"),
       st.sampled_from([None, 0, 1, 4]), st.booleans())
def test_one_pass_backward_matches_per_column_oracle(n, m, seed, order, digits, clamp):
    x = _ratings(n, m, seed, digits)
    if clamp:
        x[:, m // 2] = np.resize(CLAMPED, n)
    want = [backward_cloud_per_column(x[:, k]) for k in range(m)]
    assert indicator_cloud(np.asarray(x, order=order)) == [params for params, _ in want]
    if clamp:
        assert want[m // 2][1] and want[m // 2][0].he == 0.0


def test_one_pass_backward_clamps_he():
    steady = np.linspace(60.0, 90.0, CLAMPED.size)
    (clamped, flag), (other, _) = map(backward_cloud_per_column, (CLAMPED, steady))
    assert flag and clamped.he == 0.0
    assert indicator_cloud(np.column_stack([CLAMPED, steady])) == [clamped, other]
    assert indicator_cloud(CLAMPED) == [clamped]  # a 1-D array is one column


def test_backward_constant_samples():
    assert indicator_cloud(np.full(20, 85.0)) == [CloudParams(85, 0, 0)]
    assert indicator_cloud(np.full((20, 2), 85.0)) == [CloudParams(85, 0, 0)] * 2


def test_backward_needs_ten_samples():
    for short in (np.arange(9.0), np.ones((9, 3))):
        with pytest.raises(ValueError, match="at least 10 samples, got 9"):
            indicator_cloud(short)


def test_round_trip_recovery():
    d = forward_cloud(CloudParams(85, 5, 0.5), 100_000, seed=12345)
    [r] = indicator_cloud(d.x)
    assert r.ex == pytest.approx(85.0, abs=0.1)
    assert r.en == pytest.approx(5.0, abs=0.15)
    assert r.he == pytest.approx(0.5, abs=0.15)


def test_pure_gaussian_he_near_zero():
    d = forward_cloud(CloudParams(70, 4, 0), 100_000, seed=8)
    [r] = indicator_cloud(d.x)
    assert r.he <= 0.15 * 4.0


def test_indicator_cloud_from_ratings():
    assert indicator_cloud(np.full(20, 90.0)) == [CloudParams(90, 0, 0)]
    d = forward_cloud(CloudParams(82, 5, 1), 100_000, seed=6)
    [p] = indicator_cloud(d.x)
    assert p.ex == pytest.approx(82, abs=0.1)
    assert p.en == pytest.approx(5, abs=0.15)
    assert p.he == pytest.approx(1, abs=0.15)


def test_bimodal_ratings_inflate_entropy():
    rng = np.random.default_rng(9)
    cluster = rng.normal(70, 1.5, 100)
    split = np.concatenate([rng.normal(60, 1.5, 100), rng.normal(80, 1.5, 100)])
    assert indicator_cloud(split)[0].en > indicator_cloud(cluster)[0].en


# -- grade clouds and schemes ------------------------------------------------

def test_grade_cloud_construction():
    scheme = GradeScheme(bands=(("low", 0.0, 80.0), ("mid", 80.0, 90.0), ("top", 90.0, 100.0)), he_ratio=0.1)
    assert [label for label, _ in scheme.clouds()] == ["low", "mid", "top"]
    c = dict(scheme.clouds())["mid"]
    assert c.ex == 85.0
    assert c.en == pytest.approx(10 / 6, abs=1e-4)
    assert c.he == pytest.approx(1 / 6, abs=1e-4)
    assert c.he == 0.1 * c.en  # He from the En just computed, bit for bit
    poor = dict(DEFAULT_SCHEME.clouds())["poor"]
    assert poor.ex == 30.0 and poor.en == 10.0


def test_default_scheme_monotone_centers():
    ex = [c.ex for _, c in DEFAULT_SCHEME.clouds()]
    assert ex == sorted(ex)
    assert len(ex) == 4


def test_scheme_rejects_gaps_and_overlaps():
    with pytest.raises(ValueError, match="gap"):
        GradeScheme(bands=(("a", 0.0, 50.0), ("b", 55.0, 100.0)))
    with pytest.raises(ValueError, match="cover up to 100"):
        GradeScheme(bands=(("a", 0.0, 90.0),))


def test_scheme_bounds_he_ratio():
    assert DEFAULT_SCHEME._replace(he_ratio=GradeScheme.MAX_HE_RATIO).he_ratio == 10
    with pytest.raises(ValueError, match=r"he_ratio must be at most 10, got 1e\+300"):
        DEFAULT_SCHEME._replace(he_ratio=1e300)
    with pytest.raises(ValueError, match="he_ratio must be positive"):
        DEFAULT_SCHEME._replace(he_ratio=float("nan"))


def test_scheme_rejects_repeated_label():
    # a repeated label would let the later band's similarity overwrite the earlier one's
    with pytest.raises(ValueError, match="'low' is repeated"):
        GradeScheme(bands=(("low", 0.0, 50.0), ("low", 50.0, 100.0)))


# -- aggregation -------------------------------------------------------------

def test_single_child_identity():
    c = CloudParams(80, 5, 1)
    assert aggregate_clouds([c], np.array([1.0])) == c


def test_identical_children_fixed_point():
    c = CloudParams(70, 4, 0.5)
    out = aggregate_clouds([c, c], np.array([0.3, 0.7]))
    assert out.ex == pytest.approx(70) and out.en == pytest.approx(4) and out.he == pytest.approx(0.5)


def test_unknown_aggregation_strategy_is_rejected():
    c = CloudParams(80, 5, 1)
    with pytest.raises(ValueError, match="unknown aggregation strategy 'bogus'"):
        aggregate_clouds([c], np.array([1.0]), strategy="bogus")


def test_linear_aggregation_containment():
    rng = np.random.default_rng(10)
    children = [CloudParams(rng.uniform(70, 90), rng.uniform(4.666, 8.0), rng.uniform(1, 3))
                for _ in range(7)]
    w = rng.dirichlet(np.ones(7))
    out = aggregate_clouds(children, w)
    ens = [c.en for c in children]
    assert min(ens) <= out.en <= max(ens)


def test_linear_aggregation_is_affine_in_parameters():
    a = [CloudParams(60, 3, 0.5), CloudParams(90, 6, 1.5)]
    b = [CloudParams(70, 5, 1.0), CloudParams(80, 4, 2.0)]
    w = np.array([0.4, 0.6])
    alpha = 0.3
    mixed = [CloudParams(alpha * x.ex + (1 - alpha) * y.ex,
                         alpha * x.en + (1 - alpha) * y.en,
                         alpha * x.he + (1 - alpha) * y.he) for x, y in zip(a, b)]
    out = aggregate_clouds(mixed, w)
    oa, ob = aggregate_clouds(a, w), aggregate_clouds(b, w)
    assert out.ex == pytest.approx(alpha * oa.ex + (1 - alpha) * ob.ex, abs=1e-12)
    assert out.en == pytest.approx(alpha * oa.en + (1 - alpha) * ob.en, abs=1e-12)
    assert out.he == pytest.approx(alpha * oa.he + (1 - alpha) * ob.he, abs=1e-12)


def test_quadratic_strategy():
    out = aggregate_clouds([CloudParams(80, 3, 1), CloudParams(80, 4, 2)],
                           np.array([0.5, 0.5]), strategy="quadratic")
    assert out.en == pytest.approx(np.hypot(1.5, 2.0), abs=1e-12)


def test_aggregation_length_mismatch():
    with pytest.raises(ValueError, match="weights"):
        aggregate_clouds([CloudParams(1, 1, 0)], np.array([0.5, 0.5]))


@pytest.mark.parametrize("w", [[0.7, 0.7], [1.5, -0.5]], ids=["sum", "negative"])
def test_aggregation_weights_must_be_a_simplex(w):
    c = CloudParams(70, 5, 0.5)
    with pytest.raises(ValueError, match="^aggregation weights must be a simplex vector$"):
        aggregate_clouds([c, c], w)


CLOUDS = st.one_of(
    st.builds(CloudParams, ex=st.floats(-50, 150), en=st.floats(1e-6, 50), he=st.floats(0, 20)),
    st.builds(CloudParams, ex=st.floats(-50, 150), en=st.just(0.0), he=st.just(0.0)),
)


def simplex(n: int):
    """Nonnegative weights over n entries, normalized to sum to 1."""
    return st.lists(st.floats(0, 1), min_size=n, max_size=n).filter(lambda w: sum(w) > 0).map(
        lambda w: np.array(w) / np.sum(w))


@settings(max_examples=200, deadline=None)
@given(st.lists(CLOUDS, min_size=1, max_size=15).flatmap(lambda cs: st.tuples(st.just(cs), simplex(len(cs)))),
       st.sampled_from(AGGREGATIONS))
# a weight so small that the child's En term rounds to 0 and its He term does not
@example(([CloudParams(0.0, 0.001953125, 1.0), CloudParams(0.0, 0.0, 0.0)], np.array([4.45433691e-160, 1.0])),
         "quadratic")
@example(([CloudParams(0.0, 1e-6, 20.0), CloudParams(0.0, 0.0, 0.0)], np.array([5e-324, 1.0])), "linear")
def test_aggregated_ex_lies_within_children_range(case, strategy):
    children, w = case
    ex = [c.ex for c in children]
    tol = 1e-12 * (1.0 + max(map(abs, ex)))  # the weights sum to 1 within rounding
    assert min(ex) - tol <= aggregate_clouds(children, w, strategy=strategy).ex <= max(ex) + tol


def _aggregate_per_field(children, w, strategy):
    """`aggregate_clouds` read one field at a time into its own contiguous array."""
    ex, en, he = (np.array([getattr(c, f) for c in children]) for f in ("ex", "en", "he"))
    if strategy == "linear":
        he = np.where(w * en > 0, he, 0.0)
        return CloudParams(float(w @ ex), float(w @ en), float(w @ he))
    en2 = w**2 * en**2
    return CloudParams(float(w @ ex), float(np.sqrt(np.sum(en2))),
                       float(np.sqrt(np.sum(np.where(en2 > 0, w**2 * he**2, 0.0)))))


@settings(max_examples=200, deadline=None)
@given(st.lists(CLOUDS, min_size=1, max_size=15).flatmap(lambda cs: st.tuples(st.just(cs), simplex(len(cs)))),
       st.sampled_from(AGGREGATIONS))
def test_aggregation_matches_the_per_field_oracle_bit_for_bit(case, strategy):
    # the records are read as one array; a dot product over a strided field reads other bits
    children, w = case
    got, want = aggregate_clouds(children, w, strategy=strategy), _aggregate_per_field(children, w, strategy)
    assert [v.hex() for v in got] == [v.hex() for v in want]


# -- similarity and grading --------------------------------------------------

def test_self_similarity_analytic():
    # E[exp(-Z^2/2)] for Z ~ N(0,1) is 1/sqrt(2)
    s = cloud_similarity(CloudParams(70, 4, 0), CloudParams(70, 4, 0), n=100_000, seed=1)
    assert s == pytest.approx(1 / np.sqrt(2), abs=0.01)


def test_distant_clouds_dissimilar():
    s = cloud_similarity(CloudParams(90, 2, 0), CloudParams(50, 2, 0), n=10_000, seed=2)
    assert s < 1e-6


def test_similarity_deterministic():
    a, b = CloudParams(75, 5, 1), CloudParams(80, 4, 0.5)
    assert cloud_similarity(a, b, n=5000, seed=11) == cloud_similarity(a, b, n=5000, seed=11)


def test_similarity_symmetrized():
    a, b = CloudParams(75, 5, 0.5), CloudParams(80, 4, 0.4)
    sab = cloud_similarity(a, b, n=50_000, seed=3)
    sba = cloud_similarity(b, a, n=50_000, seed=4)
    # both estimate the same symmetrized quantity; allow 2 MC standard errors
    assert abs(sab - sba) < 2 * 0.5 / np.sqrt(50_000)


def test_degenerate_reference_rejected():
    with pytest.raises(ValueError, match="En = 0"):
        cloud_similarity(CloudParams(70, 4, 0), CloudParams(70, 0, 0), n=2000, seed=0)
    assert cloud_similarity(CloudParams(70, 0, 0), CloudParams(70, 0, 0), n=2000, seed=0) == 1.0


def test_each_grade_cloud_identifies_itself():
    for label, gc in DEFAULT_SCHEME.clouds():
        got, table = assign_grade(gc, DEFAULT_SCHEME)
        assert got == label
        assert table[label] == max(table.values())


@st.composite
def schemes(draw):
    """1-7 contiguous bands over [0, 100], cut anywhere, with any he_ratio up to 10."""
    cuts = sorted(draw(st.lists(st.floats(0.5, 99.5), unique=True, max_size=6)))
    edges = [0.0, *cuts, 100.0]
    return GradeScheme(tuple((f"g{k}", lo, hi) for k, (lo, hi) in enumerate(zip(edges, edges[1:]))),
                       he_ratio=draw(st.floats(1e-3, 10)))


@settings(max_examples=200, deadline=None)
@given(schemes(), st.lists(CLOUDS, max_size=5))
def test_grade_tables_lie_in_unit_interval_and_grade_clouds_grade_as_themselves(scheme, clouds):
    references = scheme.clouds()
    graded = grade_clouds([g for _, g in references] + clouds, scheme)
    for (label, _), (got, _) in zip(references, graded):
        assert got == label
    for _, table in graded:
        assert list(table) == list(scheme.labels)
        assert all(0.0 <= v <= 1.0 for v in table.values()), table


def test_boundary_tie_promotes_higher_band():
    scheme = GradeScheme(bands=(("low", 0.0, 50.0), ("high", 50.0, 100.0)))
    # a point concept on the boundary is equidistant from both band centers
    label, table = assign_grade(CloudParams(50, 0, 0), scheme)
    assert table["low"] == table["high"]
    assert label == "high"


@st.composite
def boundary_ties(draw):
    """A scheme of equal-width bands and clouds, some centred on a random band boundary:
    such a cloud is equally similar to the two bands around it, and more to them than
    to any other band, to the last bit."""
    count = draw(st.sampled_from([2, 4, 5, 10, 20]))
    width = 100 // count
    scheme = GradeScheme(tuple((f"g{k}", float(k * width), float((k + 1) * width)) for k in range(count)),
                         he_ratio=draw(st.floats(1e-3, 10)))
    tied = st.builds(CloudParams, ex=st.integers(1, count - 1).map(lambda k: float(k * width)),
                     en=st.floats(1e-3, 30), he=st.floats(0, 20))
    return scheme, width, draw(st.lists(st.one_of(tied, CLOUDS), min_size=1, max_size=8))


@settings(max_examples=150, deadline=None)
@given(boundary_ties())
def test_grade_clouds_labels_as_the_scan_oracle_and_ties_promote(case):
    scheme, width, clouds = case
    for c, (label, table) in zip(clouds, grade_clouds(clouds, scheme)):
        assert label == best_label(table)
        upper, rest = divmod(c.ex, width)
        if rest == 0 and 0 < upper < len(scheme.bands):
            lower_label, upper_label = scheme.labels[int(upper) - 1], scheme.labels[int(upper)]
            assert table[lower_label] == table[upper_label] == max(table.values()), table
            assert label == upper_label


# -- exact grading against the references ---------------------------------------

def _scheme_doc(scheme):
    return {"he_ratio": scheme.he_ratio,
            "bands": [{"label": l, "lower": lo, "upper": hi} for l, lo, hi in scheme.bands]}


@pytest.mark.parametrize("scheme, tol", [(DEFAULT_SCHEME, 1e-13), (EXTREME_SCHEME, 1e-6)])
def test_grade_clouds_match_quadrature_reference(scheme, tol):
    # perfbench's 400-node reference; 128 nodes lose accuracy only on thick, wide grade clouds
    for c, (grade, table) in zip(HARD_CLOUDS, grade_clouds(HARD_CLOUDS, scheme)):
        ref = similarity_ref.reference_table({"ex": c.ex, "en": c.en, "he": c.he}, _scheme_doc(scheme))
        assert table.keys() == ref.keys()
        assert max(abs(table[k] - ref[k]) for k in ref) <= tol, c
        assert grade == similarity_ref.reference_grade(ref)[0]


@pytest.mark.parametrize("n", [1000, 20_000, 200_000])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_grade_clouds_match_reference(seed, n):
    # The exact tables are the expectation of the n-droplet Monte Carlo grading. Each
    # directed estimate is a mean of n memberships in [0, 1], so Hoeffding's bound
    # holds at any n and whatever the skew: off by more than `hoeffding` with
    # probability at most 1e-9. For a far band or He >> En a membership is a rare
    # large value, so the estimate is skewed and 4 standard errors hold only at
    # large n: at 20 000 droplets seed 6 is 9.4 off, and at 200 000 seeds 0-39 reach
    # 4.75 (seed 34, the grade cloud against "poor"). The seeds are those of the
    # other reference tests. The 1e-12 covers pairs whose estimate has no spread
    # (En = He = 0).
    hoeffding = np.sqrt(np.log(2 / 1e-9) / (2 * n))
    for c, (_, table) in zip(HARD_CLOUDS, grade_clouds(HARD_CLOUDS, DEFAULT_SCHEME)):
        _, mc = reference_assign_grade(c, DEFAULT_SCHEME, n, seed)
        for label, gc in DEFAULT_SCHEME.clouds():
            assert abs(table[label] - mc[label]) <= hoeffding, (c, label)
            if n >= 200_000:
                se = similarity_ref.standard_error((c.ex, c.en, c.he), (gc.ex, gc.en, gc.he), n)
                assert abs(table[label] - mc[label]) <= 4 * se + 1e-12, (c, label)


@pytest.mark.parametrize("seed", [0, 7])
def test_cloud_graded_alone_equals_cloud_in_batch(seed):
    batch = grade_clouds(HARD_CLOUDS, DEFAULT_SCHEME)
    for c, in_batch in zip(HARD_CLOUDS, batch):
        assert assign_grade(c, DEFAULT_SCHEME) == in_batch
    order = np.random.default_rng(seed).permutation(len(HARD_CLOUDS))[:5]
    assert grade_clouds([HARD_CLOUDS[k] for k in order], DEFAULT_SCHEME) == [batch[k] for k in order]


@pytest.mark.parametrize("n", [1000, 20_000])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_forward_cloud_matches_reference(seed, n):
    for c in ORACLE_CLOUDS:
        d = forward_cloud(c, n, seed)
        x, enp = reference_generate(c, n, _rng(seed))
        np.testing.assert_array_equal(d.x, x, strict=True)
        got_x, got_enp = _droplets(c, n, _rng(seed))
        np.testing.assert_array_equal(got_x, x, strict=True)
        if enp is None:
            assert got_enp is None
        else:
            np.testing.assert_array_equal(got_enp, enp, strict=True)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_cloud_similarity_matches_reference(seed):
    for a in ORACLE_CLOUDS:
        for b in ORACLE_CLOUDS[1:]:
            assert cloud_similarity(a, b, n=1000, seed=seed) == reference_cloud_similarity(a, b, 1000, seed)


def test_grading_zero_entropy_with_hyper_entropy_rejected():
    with pytest.raises(ValueError, match="En = 0"):
        grade_clouds([CloudParams(70, 4, 1), CloudParams(85, 0, 1)], DEFAULT_SCHEME)
    with pytest.raises(ValueError, match="En = 0"):
        assign_grade(CloudParams(85, 0, 1), DEFAULT_SCHEME)


def test_grading_needs_the_droplet_minimum():
    c = CloudParams(70, 4, 1)
    with pytest.raises(ValueError, match="at least 1000 droplets, got 999"):
        cloud_similarity(c, c, n=999)
    assert assign_grade(c, DEFAULT_SCHEME)[0] == "fair"  # grading draws no droplets
    assert forward_cloud(c, 10, seed=0).x.size == 10  # drawing droplets has no minimum
