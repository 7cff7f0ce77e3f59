import numpy as np
import pytest

from cloudmcdm.combiner import combine_weights
from cloudmcdm.dataprep import DataMatrix
from cloudmcdm.ewm import WeightVector

from helpers import deviation_matrix


def matrix(values):
    values = np.asarray(values, dtype=float)
    m, n = values.shape
    return DataMatrix(tuple(f"o{i}" for i in range(m)), tuple(f"c{j}" for j in range(n)), values)


def wv(weights):
    weights = np.asarray(weights, dtype=float)
    return WeightVector(tuple(f"c{j}" for j in range(len(weights))), weights)


def objective(res, m2):
    # the deviation square sum the fused weights attain: theta' M theta, M = W' B W
    theta = np.array(res.theta)
    return float(theta @ m2 @ theta)


def brute_force_deviation(v):
    n = v.shape[1]
    b = np.zeros((n, n))
    for i in range(v.shape[0]):
        for l in range(v.shape[0]):
            d = v[i] - v[l]
            b += np.outer(d, d)
    return b


def grid_best(m2, points=10_001):
    ang = np.linspace(0.0, np.pi / 2.0, points)
    th = np.stack([np.cos(ang), np.sin(ang)])
    return float(np.einsum("it,ij,jt->t", th, m2, th).max())


def test_single_object_gives_zero_matrix():
    np.testing.assert_array_equal(deviation_matrix(matrix([[0.2, 0.8, 0.5]])), 0.0)


def test_two_object_closed_form():
    b = deviation_matrix(matrix([[1.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_allclose(b, 2.0 * np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-12)


def test_matches_brute_force():
    rng = np.random.default_rng(20)
    v = rng.uniform(0, 1, (3, 4))
    np.testing.assert_allclose(deviation_matrix(matrix(v)), brute_force_deviation(v), atol=1e-10)


def test_psd_and_symmetric():
    rng = np.random.default_rng(21)
    b = deviation_matrix(matrix(rng.uniform(0, 1, (6, 5))))
    np.testing.assert_allclose(b, b.T, atol=1e-12)
    assert np.linalg.eigvalsh(b).min() > -1e-10


def test_equal_sources_reproduce_themselves():
    rng = np.random.default_rng(22)
    w = rng.dirichlet(np.ones(4))
    res = combine_weights(wv(w), wv(w), matrix(rng.uniform(0, 1, (3, 4))))
    np.testing.assert_allclose(res.combined.weights, w, atol=1e-9)


def test_degenerate_data_falls_back_to_even_mix():
    ws, wo = wv([0.7, 0.2, 0.1]), wv([0.2, 0.3, 0.5])
    res = combine_weights(ws, wo, matrix([[0.4, 0.6, 0.5]]))
    assert res.theta[0] == pytest.approx(res.theta[1])
    expect = (ws.weights + wo.weights) / 2.0
    np.testing.assert_allclose(res.combined.weights, expect / expect.sum(), atol=1e-12)


def test_degenerate_data_mixes_at_unit_norm():
    res = combine_weights(wv([0.7, 0.2, 0.1]), wv([0.2, 0.3, 0.5]), matrix([[0.4, 0.6, 0.5]] * 3))
    np.testing.assert_allclose(res.theta, [1.0 / np.sqrt(2.0)] * 2, rtol=0, atol=1e-15)


def test_matches_grid_search():
    rng = np.random.default_rng(23)
    for _ in range(20):
        z = matrix(rng.uniform(0, 1, (3, 4)))
        ws = wv(rng.dirichlet(np.ones(4)))
        wo = wv(rng.dirichlet(np.ones(4)))
        res = combine_weights(ws, wo, z)
        m2 = np.column_stack([ws.weights, wo.weights]).T @ deviation_matrix(z) @ \
            np.column_stack([ws.weights, wo.weights])
        best = grid_best(m2)
        assert objective(res, m2) >= best * (1 - 1e-4) - 1e-12
        assert (res.combined.weights >= 0).all()
        assert res.combined.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_never_loses_to_pure_weightings():
    rng = np.random.default_rng(24)
    for _ in range(20):
        z = matrix(rng.uniform(0, 1, (4, 5)))
        ws = wv(rng.dirichlet(np.ones(5)))
        wo = wv(rng.dirichlet(np.ones(5)))
        res = combine_weights(ws, wo, z)
        b = deviation_matrix(z)
        endpoints = max(float(ws.weights @ b @ ws.weights), float(wo.weights @ b @ wo.weights))
        w = np.column_stack([ws.weights, wo.weights])
        assert objective(res, w.T @ b @ w) >= endpoints - 1e-9


def test_theta_constraints():
    rng = np.random.default_rng(25)
    z = matrix(rng.uniform(0, 1, (4, 3)))
    res = combine_weights(wv(rng.dirichlet(np.ones(3))),
                          wv(rng.dirichlet(np.ones(3))), z)
    t = np.array(res.theta)
    assert (t >= 0).all()
    assert t @ t == pytest.approx(1.0, abs=1e-9)


def test_permutation_equivariance():
    rng = np.random.default_rng(26)
    v = rng.uniform(0, 1, (3, 4))
    ws, wo = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
    res = combine_weights(wv(ws), wv(wo), matrix(v))
    perm = np.array([2, 0, 3, 1])
    res_p = combine_weights(wv(ws[perm]), wv(wo[perm]),
                            matrix(v[:, perm]))
    np.testing.assert_allclose(res_p.combined.weights, res.combined.weights[perm], atol=1e-9)


def test_length_mismatch():
    with pytest.raises(ValueError, match="indicator order"):
        combine_weights(wv([0.5, 0.5]), wv([0.3, 0.3, 0.4]),
                        matrix(np.random.default_rng(0).uniform(0, 1, (2, 3))))


def test_data_column_count_mismatch():
    with pytest.raises(ValueError, match="^data has 3 indicator columns but weights have 2$"):
        combine_weights(wv([0.5, 0.5]), wv([0.3, 0.7]), matrix(np.random.default_rng(0).uniform(0, 1, (2, 3))))
