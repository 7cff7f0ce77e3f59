import numpy as np
import pytest

from cloudmcdm.cloud import (
    CloudParams,
    DEFAULT_SCHEME,
    GradeScheme,
    aggregate_clouds,
    assign_grade,
    backward_cloud,
    cloud_similarity,
    forward_cloud,
    grade_cloud,
    grade_clouds,
    indicator_cloud,
)
from cloudmcdm.cloud import _Normals, _droplets, _rng


# -- reference: one generator per draw and one grading pass per cloud ----------
# The droplet and grading code before the band's draws were shared, kept verbatim.

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
                 CloudParams(50, 1, 3), CloudParams(83.118, 6.931, 3.08), grade_cloud((75, 85))]


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


def test_entropy_draws_positive():
    d = forward_cloud(CloudParams(50, 1, 3), 10_000, seed=5)  # heavy truncation
    assert (d.en_prime > 0).all()


# -- backward generator ------------------------------------------------------

def test_backward_constant_samples():
    r = backward_cloud(np.full(20, 85.0))
    assert r.params == CloudParams(85, 0, 0)


def test_backward_needs_ten_samples():
    with pytest.raises(ValueError, match="10 samples"):
        backward_cloud(np.arange(9))


def test_round_trip_recovery():
    d = forward_cloud(CloudParams(85, 5, 0.5), 100_000, seed=12345)
    r = backward_cloud(d.x)
    assert r.params.ex == pytest.approx(85.0, abs=0.1)
    assert r.params.en == pytest.approx(5.0, abs=0.15)
    assert r.params.he == pytest.approx(0.5, abs=0.15)


def test_pure_gaussian_he_near_zero():
    d = forward_cloud(CloudParams(70, 4, 0), 100_000, seed=8)
    r = backward_cloud(d.x)
    assert r.params.he <= 0.15 * 4.0


def test_indicator_cloud_from_ratings():
    assert indicator_cloud(np.full(20, 90.0)) == CloudParams(90, 0, 0)
    d = forward_cloud(CloudParams(82, 5, 1), 100_000, seed=6)
    p = indicator_cloud(d.x)
    assert p.ex == pytest.approx(82, abs=0.1)
    assert p.en == pytest.approx(5, abs=0.15)
    assert p.he == pytest.approx(1, abs=0.15)


def test_bimodal_ratings_inflate_entropy():
    rng = np.random.default_rng(9)
    cluster = rng.normal(70, 1.5, 100)
    split = np.concatenate([rng.normal(60, 1.5, 100), rng.normal(80, 1.5, 100)])
    assert indicator_cloud(split).en > indicator_cloud(cluster).en


# -- grade clouds and schemes ------------------------------------------------

def test_grade_cloud_construction():
    c = grade_cloud((80, 90), 0.1)
    assert c.ex == 85.0
    assert c.en == pytest.approx(10 / 6, abs=1e-4)
    assert c.he == pytest.approx(1 / 6, abs=1e-4)
    assert grade_cloud((0, 60)).ex == 30.0 and grade_cloud((0, 60)).en == 10.0


def test_default_scheme_monotone_centers():
    ex = [c.ex for _, c in DEFAULT_SCHEME.clouds()]
    assert ex == sorted(ex)
    assert len(ex) == 4


def test_scheme_rejects_gaps_and_overlaps():
    with pytest.raises(ValueError, match="gap"):
        GradeScheme(bands=(("a", 0.0, 50.0), ("b", 55.0, 100.0)))
    with pytest.raises(ValueError, match="cover up to 100"):
        GradeScheme(bands=(("a", 0.0, 90.0),))


# -- aggregation -------------------------------------------------------------

def test_single_child_identity():
    c = CloudParams(80, 5, 1)
    assert aggregate_clouds([c], np.array([1.0])) == c


def test_identical_children_fixed_point():
    c = CloudParams(70, 4, 0.5)
    out = aggregate_clouds([c, c], np.array([0.3, 0.7]))
    assert out.ex == pytest.approx(70) and out.en == pytest.approx(4) and out.he == pytest.approx(0.5)


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
        got, table = assign_grade(gc, DEFAULT_SCHEME, n=20_000, seed=5)
        assert got == label
        assert table[label] == max(table.values())


def test_boundary_tie_promotes_higher_band():
    scheme = GradeScheme(bands=(("low", 0.0, 50.0), ("high", 50.0, 100.0)))
    # a point concept on the boundary is equidistant from both band centers
    label, table = assign_grade(CloudParams(50, 0, 0), scheme, n=2000, seed=0)
    assert table["low"] == table["high"]
    assert label == "high"


def test_grade_stable_in_droplet_count():
    c = CloudParams(83.118, 6.931, 3.08)
    g1, _ = assign_grade(c, DEFAULT_SCHEME, n=10_000, seed=6)
    g2, _ = assign_grade(c, DEFAULT_SCHEME, n=100_000, seed=7)
    assert g1 == g2


# -- shared draws against the reference ----------------------------------------

@pytest.mark.parametrize("n", [1000, 20_000])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_grade_clouds_match_reference(seed, n):
    graded = grade_clouds(ORACLE_CLOUDS, DEFAULT_SCHEME, n=n, seed=seed)
    assert graded == [reference_assign_grade(c, DEFAULT_SCHEME, n, seed) for c in ORACLE_CLOUDS]


@pytest.mark.parametrize("seed", [0, 7])
def test_cloud_graded_alone_equals_cloud_in_batch(seed):
    batch = grade_clouds(ORACLE_CLOUDS, DEFAULT_SCHEME, n=2000, seed=seed)
    for c, in_batch in zip(ORACLE_CLOUDS, batch):
        assert assign_grade(c, DEFAULT_SCHEME, n=2000, seed=seed) == in_batch
    assert grade_clouds(ORACLE_CLOUDS[::-1], DEFAULT_SCHEME, n=2000, seed=seed) == batch[::-1]


@pytest.mark.parametrize("n", [1000, 20_000])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_forward_cloud_matches_reference(seed, n):
    for c in ORACLE_CLOUDS:
        d = forward_cloud(c, n, seed)
        x, enp = reference_generate(c, n, _rng(seed))
        np.testing.assert_array_equal(d.x, x, strict=True)
        if enp is None:
            assert d.en_prime is None
        else:
            np.testing.assert_array_equal(d.en_prime, enp, strict=True)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_cloud_similarity_matches_reference(seed):
    for a in ORACLE_CLOUDS:
        for b in ORACLE_CLOUDS[1:]:
            assert cloud_similarity(a, b, n=1000, seed=seed) == reference_cloud_similarity(a, b, 1000, seed)


def test_heavy_resampling_extends_the_stream():
    z = _Normals(_rng(1, 2, 0))
    _droplets(CloudParams(60, 0.5, 5), 1000, z)
    assert z.upto(0).size > 2000


def test_grading_zero_entropy_with_hyper_entropy_rejected():
    with pytest.raises(ValueError, match="En = 0"):
        grade_clouds([CloudParams(70, 4, 1), CloudParams(85, 0, 1)], DEFAULT_SCHEME, n=1000)
    with pytest.raises(ValueError, match="En = 0"):
        assign_grade(CloudParams(85, 0, 1), DEFAULT_SCHEME, n=1000)
