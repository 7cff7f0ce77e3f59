import csv

import numpy as np
import pytest

from cloudmcdm.iahp import (
    PREFERENCE_VALUES,
    RepairConfig,
    RepairError,
    SAATY_VALUES,
    auto_correct,
    consistency_ratio,
    consistent_reference,
    from_preference,
    load_judgment_csv,
    parse_scale_value,
    preference_distance,
    principal_weights,
    repair_step,
    to_preference,
)

from helpers import consistent_judgment, perturbed_judgment

CYCLIC_3 = np.array([[1, 3, 1 / 5], [1 / 3, 1, 7], [5, 1 / 7, 1]])


def pref_of(j):
    return to_preference(np.asarray(j, dtype=float))


# -- scale transform ---------------------------------------------------------

def test_table_mapping_all_17_values_exact():
    for r, p in zip(SAATY_VALUES, PREFERENCE_VALUES):
        m = np.array([[1.0, r], [1.0 / r, 1.0]])
        assert to_preference(m)[0, 1] == p
        back = from_preference(np.array([[0.5, p], [1.0 - p, 0.5]]))
        assert back[0, 1] == r


def test_to_preference_off_scale_names_cell():
    m = np.array([[1.0, 2.5], [0.4, 1.0]])
    with pytest.raises(ValueError, match=r"\(1,2\)"):
        to_preference(m)


def test_from_preference_interpolates_between_knots():
    # midpoint of knots 0.55 -> 2 and 0.6 -> 3
    j = from_preference(np.array([[0.5, 0.575], [0.425, 0.5]]))
    assert j[0, 1] == pytest.approx(2.5, abs=1e-12)
    assert j[1, 0] == pytest.approx(1 / 2.5, abs=1e-12)


def test_from_preference_matches_per_cell_reference():
    # the same interpolation, cell by cell; off-knot values exercise the interpolation
    rng = np.random.default_rng(11)
    for n in (2, 5, 15):
        p = rng.uniform(0.1, 0.9, (n, n))
        p = np.triu(p, 1) + np.tril(1.0 - p.T, -1) + 0.5 * np.eye(n)
        want = np.ones((n, n))
        for i in range(n):
            for k in range(i + 1, n):
                want[i, k] = np.interp(p[i, k], PREFERENCE_VALUES, SAATY_VALUES)
                want[k, i] = 1.0 / want[i, k]
        np.testing.assert_array_equal(from_preference(p), want)


def test_from_preference_range_check():
    with pytest.raises(ValueError, match="outside"):
        from_preference(np.array([[0.5, 0.95], [0.05, 0.5]]))


def test_round_trip_exact_on_scale_matrices():
    rng = np.random.default_rng(3)
    for _ in range(20):
        j = perturbed_judgment(6, rng)
        np.testing.assert_array_equal(from_preference(to_preference(j)), j)


# -- consistent reference ----------------------------------------------------

def test_reference_identity_for_order_2():
    p = pref_of([[1, 3], [1 / 3, 1]])
    np.testing.assert_array_equal(consistent_reference(p), p)


def _reference_per_cell(p):
    # the chain loop the vectorized reference replaced, kept as its oracle
    n = p.shape[0]
    out = p.copy()
    for i in range(n):
        for j in range(i + 2, n):
            ts = np.arange(i + 1, j)
            num = np.prod(p[i, ts] * p[ts, j])
            den = np.prod((1.0 - p[i, ts]) * (1.0 - p[ts, j]))
            if num == 0.0 or den == 0.0:
                raise ValueError(f"degenerate chain for cell ({i + 1},{j + 1}): zero product")
            k = 1.0 / (j - i - 1)
            a, b = num**k, den**k
            out[i, j] = a / (a + b)
            out[j, i] = 1.0 - out[i, j]
    return out


def _random_relation(n, rng, knots):
    u = rng.choice(PREFERENCE_VALUES, (n, n)) if knots else rng.uniform(0.01, 0.99, (n, n))
    return np.triu(u, 1) + np.tril(1.0 - u.T, -1) + 0.5 * np.eye(n)


@pytest.mark.parametrize("knots", [True, False])
def test_reference_matches_per_cell_chain_loop(knots):
    rng = np.random.default_rng(5)
    for n in range(3, 16):
        for _ in range(8):
            p = _random_relation(n, rng, knots)
            np.testing.assert_array_equal(consistent_reference(p), _reference_per_cell(p))


def test_reference_zero_product_names_first_cell_like_loop():
    rng = np.random.default_rng(8)
    for n in (5, 9, 15):
        p = _random_relation(n, rng, knots=False)
        # a zero p and a zero 1 - p, each in several chains; the loop stops at the first
        for a, b, v in ((2, 3, 0.0), (n - 2, n - 1, 1.0)):
            p[a, b], p[b, a] = v, 1.0 - v
        with pytest.raises(ValueError) as want:
            _reference_per_cell(p)
        with pytest.raises(ValueError, match="zero product") as got:
            consistent_reference(p)
        assert str(got.value) == str(want.value)


def test_reference_reaches_fixed_point():
    j = consistent_judgment(np.array([0.6, 0.3, 0.1]))  # ratios 2, 3, 6: all on scale
    ref = consistent_reference(pref_of(j))
    np.testing.assert_allclose(consistent_reference(ref), ref, atol=1e-9)


def test_reference_ignores_corrupted_long_range_cell():
    p = pref_of(CYCLIC_3)
    q = p.copy()
    q[0, 2], q[2, 0] = 1.0 - q[0, 2], 1.0 - q[2, 0]  # corrupt the (1,3) chain target
    assert consistent_reference(p)[0, 2] == consistent_reference(q)[0, 2]


def test_reference_preserves_complementarity():
    rng = np.random.default_rng(4)
    p = pref_of(perturbed_judgment(7, rng))
    ref = consistent_reference(p)
    np.testing.assert_allclose(ref + ref.T, 1.0, atol=1e-9)


# -- distance ----------------------------------------------------------------

def test_distance_identity():
    p = pref_of(CYCLIC_3)
    assert preference_distance(p, p) == 0.0


def test_distance_two_cell_pair():
    p = pref_of(consistent_judgment(np.array([0.6, 0.3, 0.1])))
    q = p.copy()
    q[0, 1] += 0.1
    q[1, 0] -= 0.1
    assert preference_distance(p, q) == pytest.approx(np.sqrt(0.02), abs=1e-12)


def test_distance_matches_brute_force():
    rng = np.random.default_rng(5)
    p = pref_of(perturbed_judgment(4, rng))
    q = pref_of(perturbed_judgment(4, rng))
    acc = 0.0
    for i in range(4):
        for j in range(4):
            acc += abs(p[i, j] - q[i, j]) ** 2
    assert preference_distance(p, q) == pytest.approx(np.sqrt(acc), abs=1e-14)


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        preference_distance(pref_of(CYCLIC_3), pref_of([[1, 2], [1 / 2, 1]]))


# -- repair step -------------------------------------------------------------

def test_repair_sigma_endpoints():
    p = pref_of(CYCLIC_3)
    pbar = consistent_reference(p)
    np.testing.assert_allclose(repair_step(p, pbar, 0.0), p, atol=1e-12)
    np.testing.assert_allclose(repair_step(p, pbar, 1.0), pbar, atol=1e-12)


def test_repair_fixed_point_when_agreeing():
    p = np.array([[0.5, 0.7], [0.3, 0.5]])
    np.testing.assert_allclose(repair_step(p, p, 0.5), p, atol=1e-12)


def test_repair_stays_between_inputs():
    rng = np.random.default_rng(6)
    p = pref_of(perturbed_judgment(6, rng))
    pbar = consistent_reference(p)
    out = repair_step(p, pbar, 0.8)
    lo, hi = np.minimum(p, pbar), np.maximum(p, pbar)
    differs = np.abs(p - pbar) > 1e-12
    assert (out[differs] > lo[differs]).all() and (out[differs] < hi[differs]).all()
    np.testing.assert_allclose(out + out.T, 1.0, atol=1e-9)


# -- auto_correct ------------------------------------------------------------

def test_already_consistent_passes_through():
    j = np.ones((4, 4))
    out, trace = auto_correct(j)
    assert trace.iterations == 0
    np.testing.assert_array_equal(out, j)


def test_cyclic_matrix_is_repaired():
    out, trace = auto_correct(CYCLIC_3, RepairConfig(sigma=0.8, tau=0.1))
    assert trace.distances[-1] < 0.1
    _, _, cr = consistency_ratio(out)
    assert cr < 0.1
    assert trace.final_cr == cr


def test_exhausted_budget_raises_with_trace():
    with pytest.raises(RepairError) as exc:
        auto_correct(CYCLIC_3, RepairConfig(sigma=0.8, tau=1e-4, max_iter=2))
    assert len(exc.value.trace.distances) == 3


def test_random_corpus_converges():
    rng = np.random.default_rng(7)
    for _ in range(30):
        j = perturbed_judgment(7, rng)
        _, _, cr = consistency_ratio(j)
        if cr <= 0.1:
            continue
        out, trace = auto_correct(j)
        assert trace.distances[-1] < 0.1
        deltas = np.diff(trace.distances)
        assert (deltas < 0).all()
        assert consistency_ratio(out)[2] < 0.1


# -- weights and CR ----------------------------------------------------------

def test_uniform_weights_for_all_ones():
    w = principal_weights(np.ones((5, 5)))
    np.testing.assert_allclose(w.weights, 0.2, atol=1e-12)
    lam, _, cr = consistency_ratio(np.ones((5, 5)))
    assert lam == pytest.approx(5.0, abs=1e-9) and cr == pytest.approx(0.0, abs=1e-9)


def test_two_by_two_closed_form():
    w = principal_weights(np.array([[1.0, 3.0], [1 / 3, 1.0]]))
    np.testing.assert_allclose(w.weights, [0.75, 0.25], atol=1e-12)


def test_consistent_matrix_recovers_weights():
    w = np.array([0.6, 0.3, 0.1])
    got = principal_weights(consistent_judgment(w))
    np.testing.assert_allclose(got.weights, w, atol=1e-9)


def test_weight_permutation_equivariance():
    rng = np.random.default_rng(8)
    j = perturbed_judgment(5, rng, wobble=1)
    perm = rng.permutation(5)
    w = principal_weights(j).weights
    wp = principal_weights(j[np.ix_(perm, perm)]).weights
    np.testing.assert_allclose(wp, w[perm], atol=1e-9)


def test_weights_on_simplex():
    rng = np.random.default_rng(9)
    w = principal_weights(perturbed_judgment(8, rng)).weights
    assert (w > 0).all()
    assert w.sum() == pytest.approx(1.0, abs=1e-9)


def test_multiplicatively_consistent_cr_zero():
    j = np.array([[1, 2, 4], [1 / 2, 1, 2], [1 / 4, 1 / 2, 1]])
    _, _, cr = consistency_ratio(j)
    assert cr == pytest.approx(0.0, abs=1e-9)


def test_cyclic_cr_matches_eig_oracle():
    lam, _, cr = consistency_ratio(CYCLIC_3)
    lam_oracle = float(np.max(np.linalg.eigvals(CYCLIC_3).real))
    assert lam == pytest.approx(lam_oracle, abs=1e-9)
    assert cr > 0.1


# -- parsing -----------------------------------------------------------------

def test_fraction_tokens():
    assert parse_scale_value("1/7") == 1 / 7
    assert parse_scale_value("3") == 3.0
    with pytest.raises(ValueError):
        parse_scale_value("x/y")


def test_judgment_csv_round_trip(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,3,1/5\n1/3,1,7\n5,1/7,1\n")
    np.testing.assert_allclose(load_judgment_csv(path), CYCLIC_3)


def _judgment_per_cell_reference(path):
    """The loader before token memoization: every cell parsed on its own."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = [r for r in csv.reader(f) if r and any(c.strip() for c in r)]
    n = len(rows)
    m = np.empty((n, n))
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"{path}: row {i + 1} has {len(row)} entries, expected {n}")
        for k, cell in enumerate(row):
            try:
                m[i, k] = parse_scale_value(cell)
            except ValueError as e:
                raise ValueError(f"{path}: cell ({i + 1},{k + 1}): {e}") from None
    return m


def _outcome(load, path):
    try:
        m = load(path)
    except ValueError as e:
        return str(e)
    return m.shape, m.tobytes()


def test_judgment_csv_matches_per_cell_reference(tmp_path):
    rng = np.random.default_rng(5)
    good = ["1", " 1", "3", "3 ", "1/3", "1/5", "0.2", "7"]
    path = tmp_path / "m.csv"
    for _ in range(200):
        n = int(rng.integers(0, 6))
        pool = good + ["1/0", "x", ""] if rng.random() < 0.3 else good
        width = n + 1 if rng.random() < 0.1 else n
        rows = [",".join(rng.choice(pool, width)) for _ in range(n)]
        path.write_text("\n".join(rows) + "\n")
        assert _outcome(load_judgment_csv, path) == _outcome(_judgment_per_cell_reference, path)


def test_judgment_csv_names_first_bad_cell_in_row_major_order(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,3,1/5\n1/3,1,x\nx,y,1\n")
    with pytest.raises(ValueError, match=r"cell \(2,3\): cannot parse judgment entry 'x'"):
        load_judgment_csv(path)
