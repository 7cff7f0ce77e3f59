import csv
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cloudmcdm.iahp import (
    PREFERENCE_VALUES,
    RepairConfig,
    RepairError,
    SAATY_VALUES,
    auto_correct,
    consistency_ratio,
    load_judgment_csv,
    parse_scale_value,
    principal_weights,
    to_preference,
    validate_judgment,
    weigh_judgments,
)
from cloudmcdm.iahp import _distances, _power_iteration, _probabilities, _pull, _references, _upper

from helpers import (auto_correct_per_call_indices, consistent_judgment, from_preference, perturbed_judgment,
                     power_iteration_one, reference_row_means)

CYCLIC_3 = np.array([[1, 3, 1 / 5], [1 / 3, 1, 7], [5, 1 / 7, 1]])


def pref_of(j):
    return to_preference(np.asarray(j, dtype=float))


def upper(p):
    # a relation's upper triangle in row-major order, as the kernels take it
    i, j = _upper(len(p))
    return np.asarray(p, dtype=float)[i, j]


def logits(p):
    u = upper(p)
    return np.log(u / (1.0 - u))


def relation(u, n):
    # the relation of an upper triangle: each lower cell exactly 1 - its mirror, diagonal 0.5
    i, j = _upper(n)
    p = np.full((n, n), 0.5)
    p[i, j], p[j, i] = u, 1.0 - u
    return p


def reference_of(p):
    # the consistent reference of one relation, from the stacked kernels weigh_judgments runs
    n = len(p)
    return relation(_probabilities(_references(logits(p)[None], n))[0], n)


def distance(p, q):
    return float(_distances(upper(p)[None], upper(q)[None])[0])


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


def test_judgment_must_be_square():
    with pytest.raises(ValueError, match=r"^judgment matrix must be square, got shape \(2, 3\)$"):
        validate_judgment(np.ones((2, 3)))


def test_power_iteration_out_of_sweeps_raises():
    a = np.array([[[1.0, 3.0, 5.0], [1 / 3, 1.0, 2.0], [1 / 5, 1 / 2, 1.0]]])
    with pytest.raises(RuntimeError, match="^power iteration did not converge$"):
        _power_iteration(a, max_sweeps=1)


def test_from_preference_interpolates_between_knots():
    # midpoint of knots 0.55 -> 2 and 0.6 -> 3
    j = from_preference(np.array([[0.5, 0.575], [0.425, 0.5]]))
    assert j[0, 1] == pytest.approx(2.5, abs=1e-12)
    assert j[1, 0] == pytest.approx(1 / 2.5, abs=1e-12)


def test_from_preference_matches_per_cell_reference():
    # cell by cell: at or above 0.5 the knots 0.5..0.9 interpolate 1..9, and below it
    # the reciprocal of 1 - p's value; off-knot values exercise the interpolation
    rng = np.random.default_rng(11)
    for n in (2, 5, 15):
        p = rng.uniform(0.1, 0.9, (n, n))
        p = np.triu(p, 1) + np.tril(1.0 - p.T, -1) + 0.5 * np.eye(n)
        want = np.ones((n, n))
        for i in range(n):
            for k in range(i + 1, n):
                if p[i, k] >= 0.5:
                    want[i, k] = np.interp(p[i, k], PREFERENCE_VALUES[8:], SAATY_VALUES[8:])
                else:
                    want[i, k] = 1.0 / np.interp(1.0 - p[i, k], PREFERENCE_VALUES[8:], SAATY_VALUES[8:])
                want[k, i] = 1.0 / want[i, k]
        np.testing.assert_array_equal(from_preference(p), want)
        np.testing.assert_array_equal(from_preference(np.stack([p, p.T])),
                                      np.stack([want, from_preference(p.T)]))


@settings(max_examples=100, deadline=None)
@given(st.floats(0.1, 0.9))
def test_from_preference_maps_complements_to_reciprocals(p):
    # relisting two items swaps p and 1 - p, and must swap r and 1/r with them
    a = from_preference(np.array([[0.5, p], [1.0 - p, 0.5]]))[0, 1]
    b = from_preference(np.array([[0.5, 1.0 - p], [p, 0.5]]))[0, 1]
    assert a * b == pytest.approx(1.0, rel=1e-12)


def test_from_preference_range_check():
    with pytest.raises(ValueError) as e:
        from_preference(np.array([[0.5, 0.95], [0.05, 0.5]]))
    assert str(e.value) == "preference value 0.95 at cell (1,2) outside [0.1, 0.9]"


def test_round_trip_exact_on_scale_matrices():
    rng = np.random.default_rng(3)
    for _ in range(20):
        j = perturbed_judgment(6, rng)
        np.testing.assert_array_equal(from_preference(to_preference(j)), j)


# -- consistent reference ----------------------------------------------------

def test_reference_identity_for_order_2():
    x = logits(pref_of([[1, 3], [1 / 3, 1]]))
    np.testing.assert_array_equal(_references(x[None], 2)[0], x)


def _reference_per_cell(p):
    # cell by cell, the geometric means of the chains p_it * p_tj and (1 - p_it) * (1 - p_tj)
    # through every item t (Tanino's multiplicative transitivity), as probabilities
    n = p.shape[0]
    out = p.copy()
    for i in range(n):
        for j in range(i + 1, n):
            num = np.prod([p[i, t] * p[t, j] for t in range(n)])
            den = np.prod([(1.0 - p[i, t]) * (1.0 - p[t, j]) for t in range(n)])
            a, b = num ** (1.0 / n), den ** (1.0 / n)
            out[i, j] = a / (a + b)
            out[j, i] = 1.0 - out[i, j]
    return out


def _random_relation(n, rng, knots):
    u = rng.choice(PREFERENCE_VALUES, (n, n)) if knots else rng.uniform(0.01, 0.99, (n, n))
    return np.triu(u, 1) + np.tril(1.0 - u.T, -1) + 0.5 * np.eye(n)


@pytest.mark.parametrize("knots", [True, False])
def test_reference_matches_per_cell_chain_loop(knots):
    # the row-mean loop's bits, and within 1e-14 the chains through every item
    rng = np.random.default_rng(5)
    for n in range(1, 16):
        for _ in range(8):
            p = _random_relation(n, rng, knots)
            x = logits(p)
            np.testing.assert_array_equal(_references(x[None], n)[0], reference_row_means(x, n))
            np.testing.assert_allclose(reference_of(p), _reference_per_cell(p), rtol=0, atol=1e-14)


def _smallest_chain_product(p):
    # the smallest numerator or denominator chain product of any cell, as the chain loop forms them
    n = p.shape[0]
    prods = [1.0]
    for i in range(n):
        for j in range(i + 1, n):
            prods += [np.prod([p[i, t] * p[t, j] for t in range(n)]),
                      np.prod([(1.0 - p[i, t]) * (1.0 - p[t, j]) for t in range(n)])]
    return min(prods)


def _on_scale_judgment(n, seed, kind):
    if kind == "nines":  # every earlier item 9 times the later
        return from_preference(np.triu(np.full((n, n), 0.9), 1) + np.tril(np.full((n, n), 0.1), -1)
                               + 0.5 * np.eye(n))
    if kind == "alternating":  # 1/9 and 9 in a checkerboard above the diagonal
        i, j = np.indices((n, n))
        u = np.where((i + j) % 2, 0.9, 0.1)
        return from_preference(np.triu(u, 1) + np.tril(1.0 - u.T, -1) + 0.5 * np.eye(n))
    return from_preference(_random_relation(n, np.random.default_rng(seed), knots=True))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 15), st.integers(0, 2**32 - 1), st.sampled_from(["knots", "nines", "alternating"]),
       st.floats(0.01, 0.999, exclude_min=True, exclude_max=True), st.integers(1, 60))
@example(15, 0, "nines", 0.999, 60)
@example(15, 0, "alternating", 0.5, 60)
def test_repair_iterates_keep_the_logit_bound_and_nonzero_chains(n, seed, kind, sigma, steps):
    # an on-scale relation has |logit p_ij| <= logit 0.9; its reference, r_i - r_j with
    # |r_i| < logit 0.9, and every iterate between them keep |logit p_ij| < 2 logit 0.9,
    # so no probability reaches 0 or 1 and no chain product reaches zero
    x = logits(to_preference(_on_scale_judgment(n, seed, kind)))
    xbar = _references(x[None], n)[0]
    iterates = [x, xbar]
    for _ in range(steps):
        iterates.append(_pull(iterates[-1], xbar, sigma))
    for v in iterates:
        assert (np.abs(v) < 2 * math.log(0.9 / 0.1)).all()
        p = relation(_probabilities(v), n)
        assert (p > 0).all() and (p < 1).all() and _smallest_chain_product(p) > 1e-300


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 15), st.integers(0, 2**32 - 1), st.booleans(),
       st.floats(0.01, 0.99), st.integers(1, 5))
def test_the_pull_keeps_the_reference_fixed(n, seed, knots, sigma, steps):
    # the pull leaves the row means of logit p unchanged, so the reference built once
    # per matrix is the one each iterate would rebuild
    x = logits(_random_relation(n, np.random.default_rng(seed), knots))
    xbar = _references(x[None], n)[0]
    for _ in range(steps):
        x = _pull(x, xbar, sigma)
        np.testing.assert_allclose(_references(x[None], n)[0], xbar, rtol=0, atol=1e-14)


def test_reference_reaches_fixed_point():
    j = consistent_judgment(np.array([0.6, 0.3, 0.1]))  # ratios 2, 3, 6: all on scale
    ref = reference_of(pref_of(j))
    np.testing.assert_allclose(reference_of(ref), ref, atol=1e-9)


def test_reference_counts_the_long_range_cell():
    # every cell enters the row means: the reference's logit of (1,3) is
    # (x_12 + 2 x_13 + x_23) / 3, so flipping x_13 moves it by -4/3 x_13
    p = pref_of(CYCLIC_3)
    q = p.copy()
    q[0, 2], q[2, 0] = q[2, 0], q[0, 2]  # corrupt the (1,3) chain target
    x = logits(p)
    moved = _references(logits(q)[None], 3)[0] - _references(x[None], 3)[0]
    assert moved[1] == pytest.approx(-4 / 3 * x[1], rel=1e-12)


def test_reference_preserves_complementarity():
    rng = np.random.default_rng(4)
    p = pref_of(perturbed_judgment(7, rng))
    ref = reference_of(p)
    np.testing.assert_allclose(ref + ref.T, 1.0, atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 15), st.integers(0, 2**32 - 1), st.booleans())
def test_reference_complementarity_is_exact_and_repairs_are_valid_judgments(n, seed, knots):
    rng = np.random.default_rng(seed)
    p = _random_relation(n, rng, knots)
    ref = reference_of(p)
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
    assert distance(p, p) == 0.0


def test_distance_two_cell_pair():
    p = pref_of(consistent_judgment(np.array([0.6, 0.3, 0.1])))
    q = p.copy()
    q[0, 1] += 0.1
    q[1, 0] -= 0.1
    assert distance(p, q) == pytest.approx(np.sqrt(0.02), abs=1e-12)


def test_distance_matches_brute_force():
    rng = np.random.default_rng(5)
    p = pref_of(perturbed_judgment(4, rng))
    q = pref_of(perturbed_judgment(4, rng))
    acc = 0.0
    for i in range(4):
        for j in range(4):
            acc += abs(p[i, j] - q[i, j]) ** 2
    assert distance(p, q) == pytest.approx(np.sqrt(acc), abs=1e-14)


# -- repair step -------------------------------------------------------------

@pytest.mark.parametrize("key, value, message", [
    ("sigma", float("nan"), "sigma must lie in (0,1), got nan"),
    ("sigma", 1.0, "sigma must lie in (0,1), got 1.0"),
    ("tau", float("nan"), "tau must be positive, got nan"),
    ("tau", 0.0, "tau must be positive, got 0.0"),
    ("tau", float("inf"), "tau must be positive and finite, got inf"),
    ("max_iter", 0, "max_iter must be at least 1"),
])
def test_repair_config_rejects_values_out_of_range(key, value, message):
    with pytest.raises(ValueError) as e:
        RepairConfig(**{key: value})
    assert str(e.value) == message


def test_repair_sigma_endpoints():
    x = logits(pref_of(CYCLIC_3))
    xbar = _references(x[None], 3)[0]
    np.testing.assert_allclose(_pull(x, xbar, 0.0), x, atol=1e-12)
    np.testing.assert_allclose(_pull(x, xbar, 1.0), xbar, atol=1e-12)


def test_repair_fixed_point_when_agreeing():
    x = logits(np.array([[0.5, 0.7], [0.3, 0.5]]))
    np.testing.assert_allclose(_pull(x, x, 0.5), x, atol=1e-12)


def test_repair_stays_between_inputs():
    rng = np.random.default_rng(6)
    x = logits(pref_of(perturbed_judgment(6, rng)))
    xbar = _references(x[None], 6)[0]
    out, p, pbar = _probabilities(_pull(x, xbar, 0.8)), _probabilities(x), _probabilities(xbar)
    lo, hi = np.minimum(p, pbar), np.maximum(p, pbar)
    differs = np.abs(p - pbar) > 1e-12
    assert (out[differs] > lo[differs]).all() and (out[differs] < hi[differs]).all()
    full = relation(out, 6)
    np.testing.assert_allclose(full + full.T, 1.0, atol=1e-9)


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
        # off-knot judgments stop at the scale check, so walk the relation's log-odds
        # through the kernels' reference and repair steps
        x = logits(p)
        for _ in range(max_iter):
            xbar = _references(x[None], n)[0]
            assert np.array_equal(xbar, reference_row_means(x, n))
            x = _pull(x, xbar, sigma)
    got = _repair_outcome(auto_correct, j, cfg)
    want = _repair_outcome(auto_correct_per_call_indices, j, cfg)
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
        repaired, trace = auto_correct_per_call_indices(j, cfg)
    except (RepairError, ValueError) as e:
        return e
    validate_judgment(repaired)
    return repaired, power_iteration_one(repaired)[0], trace


KINDS = ["perturbed", "ones", "ninths", "off-scale", "not-reciprocal"]
# one stack that holds every outcome under max_iter = 2: zero steps (order 2, ones), max_iter
# reached (the order-15 matrices), the CR test failed after repair (ninths), both input
# errors and successes
MIXED = [(2, 1, "perturbed"), (5, 0, "ones"), (15, 3, "perturbed"), (6, 0, "ninths"), (4, 2, "off-scale"),
         (7, 5, "perturbed"), (15, 8, "perturbed"), (3, 4, "not-reciprocal"), (7, 6, "perturbed"),
         (5, 7, "perturbed")]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(2, 15), st.integers(0, 2**32 - 1), st.sampled_from(KINDS)),
                min_size=1, max_size=10),
       st.floats(0.05, 0.95), st.floats(0.01, 0.5), st.integers(1, 30))
@example(MIXED, 0.8, 0.1, 2)
def test_weigh_judgments_matches_the_one_matrix_loop(specs, sigma, tau, max_iter):
    # mixed orders in one call: every matrix gets the repaired matrix, weights, CR and
    # distances bit for bit, and the error text, that it got when solved on its own
    cfg = RepairConfig(sigma=sigma, tau=tau, max_iter=max_iter)
    matrices = [_judgment_of(*spec) for spec in specs]
    got = [_weighed_outcome(w) for w in weigh_judgments(matrices, cfg)]
    want = [_weighed_outcome(_weighed_one_at_a_time(j, cfg)) for j in matrices]
    assert got == want


def test_the_mixed_stack_reaches_every_outcome():
    cfg = RepairConfig(max_iter=2)
    outcomes = [_weighed_outcome(w) for w in weigh_judgments([_judgment_of(*spec) for spec in MIXED], cfg)]
    kinds = {o[0] for o in outcomes}
    messages = " | ".join(o[1] for o in outcomes if o[0] != "ok")
    zero_steps = [o for o in outcomes if o[0] == "ok" and len(o[3]) == 1]
    assert kinds == {"ok", "repair", "invalid"} and len(zero_steps) == 2
    for text in ("within 2 iterations", "fails the CR test", "not on the 1/9..9 scale", "reciprocity violated"):
        assert text in messages


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 15), st.integers(0, 2**32 - 1), st.sampled_from(["perturbed", "knots"]), st.data())
def test_relisting_the_items_relists_the_weights(n, seed, kind, data):
    # the reference, the pull and the scale map treat every item alike, so the matrix
    # with its items relisted is weighed to the relisted weights, or fails alike
    rng = np.random.default_rng(seed)
    j = perturbed_judgment(n, rng, int(rng.integers(0, 9))) if kind == "perturbed" else \
        _on_scale_judgment(n, seed, "knots")
    perm = np.array(data.draw(st.permutations(range(n))))
    got, relisted = weigh_judgments([j, j[np.ix_(perm, perm)]])
    assert type(relisted) is type(got)
    if isinstance(got, tuple):
        np.testing.assert_allclose(relisted[1], got[1][perm], rtol=0, atol=1e-12)


# -- weights and CR ----------------------------------------------------------

def test_uniform_weights_for_all_ones():
    w = principal_weights(np.ones((5, 5)))
    np.testing.assert_allclose(w.weights, 0.2, atol=1e-12)
    lam, _, cr = consistency_ratio(np.ones((5, 5)))
    assert lam == pytest.approx(5.0, abs=1e-9) and cr == pytest.approx(0.0, abs=1e-9)


def test_order_1_is_weighed_like_any_other():
    one = np.ones((1, 1))
    assert principal_weights(one).weights.tolist() == [1.0]
    assert consistency_ratio(one) == (1.0, 0.0, 0.0)
    out, trace = auto_correct(one)
    assert np.array_equal(out, one) and trace.iterations == 0 and trace.final_cr == 0.0
    with pytest.raises(ValueError, match="diagonal must be 1"):
        auto_correct(np.full((1, 1), 5.0))


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
    assert parse_scale_value(" -1_0 / 4 ") == -2.5  # spaces around '/' read as on Python 3.12+
    with pytest.raises(ValueError):
        parse_scale_value("x/y")
    # a quotient too large for a float is an unparsable entry, as 1e999 is a non-finite one
    with pytest.raises(ValueError, match="cannot parse judgment entry '10{400}/1'"):
        parse_scale_value("1" + "0" * 400 + "/1")


_SIGNED_FRACTIONS = st.builds(lambda sign, a, b, sep: f"{sign}{a:{sep}}/{b:{sep}}", st.sampled_from(["", "-", "+"]),
                              st.integers(0, 10**400), st.integers(0, 10**400), st.sampled_from(["", "_"]))


@settings(max_examples=300, deadline=None)
@example("1" + "0" * 400 + "/1")  # Fraction parses it, but its float overflows
@example("1/" + "1" + "0" * 400)  # underflows to 0.0
@example("-0/5")
@example("1__0/2")
@example("\u0663/\u0664")  # Arabic-Indic digits, which int() reads as Fraction does
@given(st.one_of(_SIGNED_FRACTIONS, st.text("0123456789_/+-.e \u0663", max_size=10).filter(lambda t: "/" in t)))
def test_fraction_tokens_read_as_fraction_reads_them(token):
    # the parser takes spaces around '/' and underscores between digits on every Python;
    # Fraction takes the spaces from 3.12 and the underscores from 3.11
    assume(not re.search(r"\s/|/\s", token.strip()))
    assume("_" not in token or sys.version_info >= (3, 11))
    try:
        want = float(Fraction(token))
    except (ValueError, ZeroDivisionError, OverflowError):
        with pytest.raises(ValueError, match="cannot parse judgment entry"):
            parse_scale_value(token)
    else:
        assert parse_scale_value(token) == want


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
