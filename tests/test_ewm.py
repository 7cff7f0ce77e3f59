import tracemalloc

import numpy as np
import pytest

from cloudmcdm.dataprep import _BLOCK, DataMatrix
from cloudmcdm.ewm import WeightVector, entropy_weights


def matrix(values):
    values = np.asarray(values, dtype=float)
    m, n = values.shape
    return DataMatrix(tuple(f"o{i}" for i in range(m)), tuple(f"c{j}" for j in range(n)), values)


def reference_entropy_weights(v):
    """Direct-formula recomputation, independent of the library path."""
    m, n = v.shape
    e = np.zeros(n)
    for j in range(n):
        col = v[:, j]
        p = col / col.sum()
        s = 0.0
        for pi in p:
            if pi > 0:
                s += pi * np.log(pi)
        e[j] = -s / np.log(m)
    d = np.clip(1.0 - e, 0.0, None)
    w = np.full(n, 1.0 / n) if d.sum() == 0 else d / d.sum()
    return w, e


def test_constant_column_gets_zero_weight():
    z = matrix([[0.5, 0.1], [0.5, 0.9], [0.5, 0.4]])
    w, e = entropy_weights(z)
    assert w.weights[0] == 0.0
    assert e[0] == pytest.approx(1.0, abs=1e-12)


def test_identical_columns_share_weight():
    z = matrix([[0.1, 0.1], [0.9, 0.9], [0.4, 0.4]])
    w, _ = entropy_weights(z)
    assert w.weights[0] == pytest.approx(w.weights[1], abs=1e-12)


def test_hand_computed_two_column_case():
    # column 1: p = (1, 0) so e = 0; column 2 constant so e = 1
    w, e = entropy_weights(matrix([[1.0, 0.5], [0.0, 0.5]]))
    np.testing.assert_allclose(w.weights, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(e, [0.0, 1.0], atol=1e-12)


def test_matches_direct_recomputation():
    rng = np.random.default_rng(10)
    for _ in range(20):
        v = rng.uniform(0, 1, (5, 6))
        v[:, 2] = 0.5  # keep one degenerate column in play
        w, e = entropy_weights(matrix(v))
        w_ref, e_ref = reference_entropy_weights(v)
        np.testing.assert_allclose(w.weights, w_ref, atol=1e-12)
        np.testing.assert_allclose(e, e_ref, atol=1e-12)


def test_scale_invariance_of_proportions():
    rng = np.random.default_rng(11)
    v = rng.uniform(0.05, 1, (6, 4))
    w1, _ = entropy_weights(matrix(v))
    scaled = v.copy()
    scaled[:, 1] *= 0.37  # proportions of that column unchanged
    w2, _ = entropy_weights(matrix(scaled))
    np.testing.assert_allclose(w1.weights, w2.weights, atol=1e-12)


def test_permutation_equivariance():
    rng = np.random.default_rng(12)
    v = rng.uniform(0, 1, (5, 4))
    w, _ = entropy_weights(matrix(v))
    wp, _ = entropy_weights(matrix(v[::-1, ::-1]))
    np.testing.assert_allclose(wp.weights, w.weights[::-1], atol=1e-12)


def test_entropy_bounds():
    rng = np.random.default_rng(13)
    _, e = entropy_weights(matrix(rng.uniform(0, 1, (7, 5))))
    assert (e >= 0).all() and (e <= 1 + 1e-12).all()


def test_single_object_rejected():
    with pytest.raises(ValueError, match="at least 2"):
        entropy_weights(matrix([[0.3, 0.7]]))


def test_out_of_range_rejected():
    with pytest.raises(ValueError, match="normalize"):
        entropy_weights(matrix([[1.5, 0.2], [0.1, 0.3]]))


@pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
def test_non_finite_cell_rejected(cell):
    # a NaN fails both extremes; it must not go on to weigh its column
    with pytest.raises(ValueError, match=r"^entropy weighting expects values in \[0,1\]; normalize first$"):
        entropy_weights(matrix([[0, 0.2, 0.5], [1, cell, 0.1], [0.5, 0.7, 0.9]]))


def test_zero_column_is_named_in_a_later_run():
    v = np.random.default_rng(5).uniform(0.1, 1.0, (2000, 12))
    v[:, 10] = 0.0
    assert _BLOCK // (2 * 2000) == 8  # runs of 8 columns: c10 is the third column of the second run
    with pytest.raises(ValueError, match=r"^column 'c10' sums to 0; cannot form proportions$"):
        entropy_weights(matrix(v))


def test_all_constant_falls_back_to_uniform():
    w, _ = entropy_weights(matrix([[0.5, 0.5], [0.5, 0.5]]))
    np.testing.assert_allclose(w.weights, [0.5, 0.5])


def test_weight_vector_invariants():
    with pytest.raises(ValueError) as e:
        WeightVector(("a", "b"), np.array([0.7, 0.7]))
    assert str(e.value) == "weights must sum to 1, got 1.4"  # a Python float on every numpy version
    with pytest.raises(ValueError):
        WeightVector(("a", "b"), np.array([1.2, -0.2]))


def test_weight_count_must_match_the_ids():
    with pytest.raises(ValueError, match="^weight count does not match indicator count$"):
        WeightVector(("a", "b"), [1.0])


def test_entropy_holds_one_buffer_beside_the_proportions():
    z = matrix(np.random.default_rng(0).uniform(0, 1, (2000, 225)))
    z.values[:10] = 0.0  # some p = 0 cells take the 0 ln 0 := 0 path
    tracemalloc.start()
    try:
        entropy_weights(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * z.values.nbytes, peak / z.values.nbytes
