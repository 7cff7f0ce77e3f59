"""Ground truth for the backward generator: `indicator_cloud` run on droplets of a
known cloud, many repetitions at once.

Each case draws `REPS * n` droplets from `forward_cloud` in one call and reads
them as n samples x REPS repetitions, so one `indicator_cloud` call estimates
every repetition. The droplets are independent, so each column is a sample of n
ratings of that cloud.
"""

import math

import numpy as np
import pytest

from cloudmcdm.cloud import CloudParams, forward_cloud, indicator_cloud

# true cloud, rating samples, share of estimates with He clamped to 0, repetitions;
# the rates are those of README's "How many rating samples" table, measured over
# 2000 repetitions with other seeds
CASES = [
    ((80.0, 6.7, 2.3), 200, 0.009, 2000),
    ((80.0, 6.7, 0.67), 200, 0.39, 2000),
    ((80.0, 6.7, 0.67), 2000, 0.21, 1000),
    ((85.0, 4.6, 1.2), 200, 0.07, 2000),
    ((80.0, 5.0, 0.0), 200, 0.48, 2000),
    ((80.0, 5.0, 0.0), 2000, 0.51, 1000),
]
TABLE_REPS = 2000
Z = 4.0  # Monte Carlo standard errors


def estimates(cloud, n, reps, seed):
    """Ex^, En^, He^ of `reps` independent samples of n droplets, one row each."""
    x = forward_cloud(CloudParams(*cloud), n * reps, seed).x.reshape(reps, n).T
    return np.array(indicator_cloud(x))


def truncated_mean(en, he):
    """E[En'] for En' ~ N(En, He^2) resampled until positive, as droplets draw it."""
    if he == 0:
        return en
    a = en / he
    pdf = math.exp(-a * a / 2) / math.sqrt(2 * math.pi)
    return en + he * pdf / (0.5 * (1 + math.erf(a / math.sqrt(2))))


def case_id(k):
    (ex, en, he), n, _, _ = CASES[k]
    return f"{ex:g}-{en:g}-{he:g}-n{n}"


@pytest.fixture(scope="module", params=range(len(CASES)), ids=case_id)
def case(request):
    cloud, n, clamp_rate, reps = CASES[request.param]
    return cloud, n, clamp_rate, reps, estimates(cloud, n, reps, seed=request.param)


def mc_z(values, target):
    return (values.mean() - target) / (values.std(ddof=1) / math.sqrt(len(values)))


def test_ex_is_unbiased(case):
    (ex, _, _), _, _, _, est = case
    assert abs(mc_z(est[:, 0], ex)) < Z


def test_en_is_unbiased_up_to_its_sample_size_factor(case):
    # sqrt(pi/2) * mean |x - mean x| estimates sqrt((n - 1) / n) * E[En']: the
    # deviations from the sample mean are that much narrower (exactly so at He = 0),
    # and droplets resample En' <= 0, so E[En'] is a truncated mean. At 200 samples
    # the factor is -0.25 %. The He-dependent terms of order 1/n left out here shift
    # z by under one standard error: by about +0.6 on (80, 6.7, 2.3), over 20 seeds
    (_, en, he), n, _, _, est = case
    assert abs(mc_z(est[:, 1], math.sqrt((n - 1) / n) * truncated_mean(en, he))) < Z


@pytest.mark.parametrize("case", [k for k, (c, *_) in enumerate(CASES) if c[2] == 0], indirect=True,
                         ids=case_id)
def test_he_is_biased_upward_at_zero(case):
    # every estimate is >= 0, so sampling noise alone puts the mean above the truth
    *_, est = case
    assert mc_z(est[:, 2], 0.0) > Z
    assert est[:, 2].mean() > 0.2


def test_clamp_rate_matches_the_table(case):
    # the table's rate and this run's each carry binomial error; the table rounds
    # to the last digit shown
    _, _, rate, reps, est = case
    clamped = float(np.mean(est[:, 2] == 0.0))
    se = math.sqrt(rate * (1 - rate) * (1 / reps + 1 / TABLE_REPS))
    rounding = 0.0005 if rate < 0.01 else 0.005
    assert abs(clamped - rate) <= Z * se + rounding, (clamped, rate)
