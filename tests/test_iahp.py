import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudmcdm.iahp import (
    PREFERENCE_VALUES,
    RANDOM_INDEX,
    RepairConfig,
    RepairError,
    RepairTrace,
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
    validate_judgment,
    weigh_judgments,
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
    for n in range(1, 16):
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


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 15), st.integers(0, 2**32 - 1), st.booleans())
def test_reference_complementarity_is_exact_and_repairs_are_valid_judgments(n, seed, knots):
    rng = np.random.default_rng(seed)
    p = _random_relation(n, rng, knots)
    ref = consistent_reference(p)
    i, j = np.triu_indices(n, 1)
    assert np.array_equal(ref[j, i], 1.0 - ref[i, j])
    assert np.array_equal(np.diag(ref), np.diag(p))
    if knots and n >= 2:
        try:
            out, _ = auto_correct(from_preference(p))
        except RepairError:
            return
        validate_judgment(out)


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


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 15), st.integers(0, 2**32 - 1), st.integers(0, 8), st.integers(1, 30))
def test_repair_converges_within_budget_or_raises_with_its_trace(n, seed, wobble, max_iter):
    cfg = RepairConfig(max_iter=max_iter)
    try:
        out, trace = auto_correct(perturbed_judgment(n, np.random.default_rng(seed), wobble), cfg)
    except RepairError as e:
        if e.trace.final_cr is None:  # the budget ran out before the distance fell under tau
            assert len(e.trace.distances) == max_iter + 1 and min(e.trace.distances) >= cfg.tau
        else:
            assert e.trace.final_cr >= 0.1
        return
    assert len(trace.distances) == trace.iterations + 1 <= max_iter + 1
    assert trace.distances[-1] < cfg.tau and trace.final_cr < 0.1
    validate_judgment(out)


def _reference_per_call_indices(p):
    # consistent_reference before the per-order chain plan, verbatim: it built its
    # index arrays on every call; kept as the oracle of the repair loop below
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    if n <= 2:
        return p.copy()
    i, j = np.triu_indices(n, 2)
    t = i[:, None] + 1 + np.arange(n - 2)
    inside = t < j[:, None]
    t = np.where(inside, t, 0)
    q = 1.0 - p
    num = np.where(inside, p[i[:, None], t] * p[t, j[:, None]], 1.0).prod(axis=1)
    den = np.where(inside, q[i[:, None], t] * q[t, j[:, None]], 1.0).prod(axis=1)
    bad = (num == 0.0) | (den == 0.0)
    if bad.any():
        c = int(np.argmax(bad))
        raise ValueError(f"degenerate chain for cell ({i[c] + 1},{j[c] + 1}): zero product")
    k = (1.0 / (j - i - 1)).tolist()
    a = np.array([math.pow(v, e) for v, e in zip(num.tolist(), k)])
    b = np.array([math.pow(v, e) for v, e in zip(den.tolist(), k)])
    out = p.copy()
    out[i, j] = a / (a + b)
    out[j, i] = 1.0 - out[i, j]
    return out


def _power_iteration_one(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 10_000
                         ) -> tuple[np.ndarray, float]:
    # iahp._power_iteration before the stacked sweeps, verbatim: one matrix, one vector
    n = a.shape[0]
    v = np.full(n, 1.0 / n)
    for _ in range(max_sweeps):
        av = a @ v
        nxt = av / av.sum()
        if np.abs(nxt - v).max() < tol:
            v = nxt
            break
        v = nxt
    else:
        raise RuntimeError("power iteration did not converge")
    av = a @ v
    lam = float(np.mean(av / v))
    return v / v.sum(), lam


def _consistency_ratio_one(j):
    # consistency_ratio before weigh_judgments, verbatim, on the power iteration above
    validate_judgment(j)
    n = j.shape[0]
    _, lam = _power_iteration_one(np.asarray(j, dtype=float))
    ci = (lam - n) / (n - 1)
    ri = RANDOM_INDEX[n]
    cr = 0.0 if ri == 0 else ci / ri
    return lam, ci, cr


def _auto_correct_per_call_indices(j, cfg):
    # auto_correct's one-matrix loop before weigh_judgments, verbatim, on the reference
    # above, with that time's distance and repair step written out and its CR test
    # on the one-matrix power iteration
    validate_judgment(j)
    trace = RepairTrace()
    p = to_preference(j)
    while True:
        pbar = _reference_per_call_indices(p)
        trace.distances.append(float(np.sqrt(np.sum(np.abs(p - pbar) ** 2))))
        if trace.distances[-1] < cfg.tau:
            break
        if trace.iterations == cfg.max_iter:
            raise RepairError(
                f"repair did not reach d < {cfg.tau} within {cfg.max_iter} iterations "
                f"(last d = {trace.distances[-1]:.4f})",
                trace,
            )
        num = p ** (1.0 - cfg.sigma) * pbar**cfg.sigma
        den = (1.0 - p) ** (1.0 - cfg.sigma) * (1.0 - pbar) ** cfg.sigma
        p = num / (num + den)
    if trace.iterations == 0:
        repaired = np.asarray(j, dtype=float).copy()
    else:
        repaired = from_preference(np.clip(p, 0.1, 0.9))
    _, _, cr = _consistency_ratio_one(repaired)
    trace.final_cr = cr
    if cr >= 0.1:
        raise RepairError(f"repaired matrix still fails the CR test (CR = {cr:.4f})", trace)
    return repaired, trace


def _repair_outcome(correct, j, cfg):
    try:
        out, trace = correct(j, cfg)
    except RepairError as e:
        return str(e), None, e.trace.distances, e.trace.final_cr
    except ValueError as e:
        return str(e), None, None, None
    return "ok", out, trace.distances, trace.final_cr


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 15), st.integers(0, 2**32 - 1), st.sampled_from(["knots", "perturbed", "continuous"]),
       st.floats(0.05, 0.95), st.floats(0.01, 0.5), st.integers(1, 30))
def test_auto_correct_matches_the_per_call_index_loop(n, seed, kind, sigma, tau, max_iter):
    rng = np.random.default_rng(seed)
    cfg = RepairConfig(sigma=sigma, tau=tau, max_iter=max_iter)
    if kind == "perturbed":
        j = perturbed_judgment(n, rng, int(rng.integers(0, 9)))
    else:
        p = _random_relation(n, rng, kind == "knots")
        j = from_preference(np.clip(p, 0.1, 0.9))
    if kind == "continuous":
        # off-knot judgments stop at the scale check, so walk the relation itself
        # through the loop's reference and repair steps
        for _ in range(max_iter):
            ref = consistent_reference(p)
            assert np.array_equal(ref, _reference_per_call_indices(p))
            p = repair_step(p, ref, sigma)
    got = _repair_outcome(auto_correct, j, cfg)
    want = _repair_outcome(_auto_correct_per_call_indices, j, cfg)
    assert got[0] == want[0] and got[2:] == want[2:]
    assert (got[1] is None and want[1] is None) or np.array_equal(got[1], want[1])


def _judgment_of(n, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "ones":  # consistent: needs no repair step
        return np.ones((n, n))
    if kind == "ninths":  # every later item 9 times the earlier: repaired, yet fails the CR test
        return np.triu(np.full((n, n), 1 / 9), 1) + np.tril(np.full((n, n), 9.0), -1) + np.eye(n)
    j = perturbed_judgment(n, rng, int(rng.integers(0, 9)))
    if kind == "off-scale":
        j[0, 1], j[1, 0] = 2.5, 0.4
    elif kind == "not-reciprocal":
        j[0, 1] = j[1, 0] = 3.0
    return j


def _weighed_outcome(got):
    if isinstance(got, RepairError):
        return "repair", str(got), got.trace.distances, got.trace.final_cr
    if isinstance(got, ValueError):
        return "invalid", str(got)
    repaired, weights, trace = got
    return "ok", repaired.tobytes(), weights.tobytes(), trace.distances, trace.final_cr


def _weighed_one_at_a_time(j, cfg):
    # the pipeline before weigh_judgments: auto_correct, then principal_weights on its result
    try:
        repaired, trace = _auto_correct_per_call_indices(j, cfg)
    except (RepairError, ValueError) as e:
        return e
    validate_judgment(repaired)
    return repaired, _power_iteration_one(repaired)[0], trace


KINDS = ["perturbed", "ones", "ninths", "off-scale", "not-reciprocal"]
# one stack that holds every outcome: zero steps (order 2, ones), max_iter reached (the
# order-15 matrices), the CR test failed after repair (ninths), both input errors and successes
MIXED = [(2, 1, "perturbed"), (5, 0, "ones"), (15, 3, "perturbed"), (6, 0, "ninths"), (4, 2, "off-scale"),
         (7, 5, "perturbed"), (15, 8, "perturbed"), (3, 4, "not-reciprocal"), (7, 6, "perturbed"),
         (5, 7, "perturbed")]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(2, 15), st.integers(0, 2**32 - 1), st.sampled_from(KINDS)),
                min_size=1, max_size=10),
       st.floats(0.05, 0.95), st.floats(0.01, 0.5), st.integers(1, 30))
@example(MIXED, 0.8, 0.1, 3)
def test_weigh_judgments_matches_the_one_matrix_loop(specs, sigma, tau, max_iter):
    # mixed orders in one call: every matrix gets the repaired matrix, weights, CR and
    # distances bit for bit, and the error text, that it got when solved on its own
    cfg = RepairConfig(sigma=sigma, tau=tau, max_iter=max_iter)
    matrices = [_judgment_of(*spec) for spec in specs]
    got = [_weighed_outcome(w) for w in weigh_judgments(matrices, cfg)]
    want = [_weighed_outcome(_weighed_one_at_a_time(j, cfg)) for j in matrices]
    assert got == want


def test_the_mixed_stack_reaches_every_outcome():
    cfg = RepairConfig(max_iter=3)
    outcomes = [_weighed_outcome(w) for w in weigh_judgments([_judgment_of(*spec) for spec in MIXED], cfg)]
    kinds = {o[0] for o in outcomes}
    messages = " | ".join(o[1] for o in outcomes if o[0] != "ok")
    zero_steps = [o for o in outcomes if o[0] == "ok" and len(o[3]) == 1]
    assert kinds == {"ok", "repair", "invalid"} and len(zero_steps) == 2
    for text in ("within 3 iterations", "fails the CR test", "not on the 1/9..9 scale", "reciprocity violated"):
        assert text in messages


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
