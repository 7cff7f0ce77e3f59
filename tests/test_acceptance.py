"""Acceptance suite: one test per release criterion, each printing a verdict line."""

import time

import numpy as np

from cloudmcdm.cli import main as cli_main
from cloudmcdm.cloud import CloudParams, DEFAULT_SCHEME, assign_grade, forward_cloud, cloud_similarity, indicator_cloud
from cloudmcdm.combiner import combine_weights
from cloudmcdm.dataprep import DataMatrix
from cloudmcdm.ewm import WeightVector, entropy_weights
from cloudmcdm.iahp import (
    PREFERENCE_VALUES,
    RepairError,
    SAATY_VALUES,
    auto_correct,
    consistency_ratio,
    principal_weights,
    to_preference,
)
from cloudmcdm.pipeline import compare_scenarios

from helpers import DEMO, consistent_judgment, deviation_matrix, from_preference, perturbed_judgment


def verdict(num, name, ok, detail=""):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_scale_round_trip():
    # one 18x18 reciprocal matrix whose first row holds every scale value
    n = 18
    j = np.ones((n, n))
    j[0, 1:] = SAATY_VALUES
    j[1:, 0] = 1.0 / np.asarray(SAATY_VALUES)
    to_preference(j)  # warm up before timing
    t0 = time.perf_counter()
    p = to_preference(j)
    back = from_preference(p)
    p2 = to_preference(back)
    elapsed = time.perf_counter() - t0
    exact = (list(p[0, 1:]) == list(PREFERENCE_VALUES)
             and (back == j).all() and (p2 == p).all())
    verdict(1, "scale table round trip exact on all 17 values",
            exact and elapsed < 1e-3, f"elapsed {elapsed * 1e3:.3f} ms")


def test_criterion_02_repair_convergence_corpus():
    rng = np.random.default_rng(20250823)
    matrices = []
    while len(matrices) < 100:
        j = perturbed_judgment(7, rng)
        if consistency_ratio(j)[2] > 0.1:
            matrices.append(j)
    t0 = time.perf_counter()
    converged = 0
    monotone = True
    for j in matrices:
        try:
            out, trace = auto_correct(j)
        except RepairError:
            continue
        if trace.distances[-1] < 0.1 and consistency_ratio(out)[2] < 0.1:
            converged += 1
            monotone &= bool((np.diff(trace.distances) < 0).all())
    elapsed = time.perf_counter() - t0
    verdict(2, "repair corpus convergence",
            converged >= 95 and monotone and elapsed < 5.0,
            f"{converged}/100 converged, distances monotone={monotone}, {elapsed:.2f} s")


def test_criterion_03_eigenweight_oracle():
    rng = np.random.default_rng(11)
    worst_w, worst_cr = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(3, 9))
        w = rng.dirichlet(np.ones(n))
        got = principal_weights(consistent_judgment(w))
        worst_w = max(worst_w, float(np.abs(got.weights - w).max()))
        worst_cr = max(worst_cr, abs(consistency_ratio(consistent_judgment(w))[2]))
    verdict(3, "consistent-matrix weight recovery",
            worst_w <= 1e-9 and worst_cr <= 1e-9,
            f"max weight err {worst_w:.2e}, max CR {worst_cr:.2e}")


def test_criterion_04_ewm_hand_oracle():
    rng = np.random.default_rng(12)
    worst = 0.0
    zero_ok = True
    for _ in range(20):
        v = rng.uniform(0, 1, (5, 6))
        v[:, 3] = rng.uniform(0, 1)  # one constant column each time
        z = DataMatrix(tuple("abcde"), tuple(f"c{j}" for j in range(6)), v)
        w, e = entropy_weights(z)
        # independent direct recomputation
        m = 5
        e_ref = np.array([-(sum(pi * np.log(pi) for pi in v[:, j] / v[:, j].sum() if pi > 0))
                          / np.log(m) for j in range(6)])
        d_ref = np.clip(1 - e_ref, 0, None)
        w_ref = d_ref / d_ref.sum()
        worst = max(worst, float(np.abs(w.weights - w_ref).max()),
                    float(np.abs(e - e_ref).max()))
        zero_ok &= w.weights[3] == 0.0
    verdict(4, "entropy weights vs direct formula",
            worst <= 1e-12 and zero_ok, f"max err {worst:.2e}, constant cols zero={zero_ok}")


def test_criterion_05_combiner_vs_grid():
    rng = np.random.default_rng(13)
    worst_rel = 0.0
    simplex_ok = True
    for _ in range(50):
        m, n = int(rng.integers(2, 6)), int(rng.integers(3, 7))
        z = DataMatrix(tuple(f"o{i}" for i in range(m)), tuple(f"c{j}" for j in range(n)),
                       rng.uniform(0, 1, (m, n)))
        ws = WeightVector(z.indicator_ids, rng.dirichlet(np.ones(n)))
        wo = WeightVector(z.indicator_ids, rng.dirichlet(np.ones(n)))
        res = combine_weights(ws, wo, z)
        wmat = np.column_stack([ws.weights, wo.weights])
        m2 = wmat.T @ deviation_matrix(z) @ wmat
        ang = np.linspace(0, np.pi / 2, 10_001)
        th = np.stack([np.cos(ang), np.sin(ang)])
        best = float(np.einsum("it,ij,jt->t", th, m2, th).max())
        theta = np.array(res.theta)
        if best > 0:
            worst_rel = max(worst_rel, (best - float(theta @ m2 @ theta)) / best)
        simplex_ok &= bool((res.combined.weights >= 0).all())
        simplex_ok &= abs(res.combined.weights.sum() - 1.0) <= 1e-9
    verdict(5, "combiner optimality vs grid search",
            worst_rel <= 1e-4 and simplex_ok, f"worst relative gap {worst_rel:.2e}")


def test_criterion_06_cloud_round_trip():
    t0 = time.perf_counter()
    drops = forward_cloud(CloudParams(85, 5, 0.5), 100_000, seed=12345)
    [est] = indicator_cloud(drops.x)
    elapsed = time.perf_counter() - t0
    ok = (abs(est.ex - 85) <= 0.1 and abs(est.en - 5) <= 0.15
          and abs(est.he - 0.5) <= 0.15 and elapsed < 1.0)
    verdict(6, "forward/backward round trip",
            ok, f"({est.ex:.3f}, {est.en:.3f}, {est.he:.3f}), {elapsed:.3f} s")


def test_criterion_07_similarity_analytic():
    target = 1 / np.sqrt(2)
    worst = 0.0
    for k, c in enumerate([CloudParams(70, 4, 0), CloudParams(30, 9, 0), CloudParams(85, 1.5, 0)]):
        s = cloud_similarity(c, c, n=100_000, seed=100 + k)
        worst = max(worst, abs(s - target))
    verdict(7, "self-similarity equals 1/sqrt(2)", worst <= 0.01, f"max dev {worst:.4f}")


def test_criterion_08_grade_self_identity():
    hits = 0
    for label, gc in DEFAULT_SCHEME.clouds():
        got, table = assign_grade(gc, DEFAULT_SCHEME)
        if got == label and table[label] == max(table.values()):
            hits += 1
    verdict(8, "grade clouds identify themselves", hits == 4, f"{hits}/4 bands")


def test_criterion_09_directional_regression(report_before, report_after):
    t0 = time.perf_counter()
    cmp = compare_scenarios(report_before.to_dict(), report_after.to_dict())
    flags_ok = all(cmp["flags"].values())
    contain_ok = True
    for rep in (report_before, report_after):
        ex = [v["ex"] for v in rep.criterion_clouds.values()]
        contain_ok &= min(ex) <= rep.comprehensive_cloud["ex"] <= max(ex)
    elapsed = time.perf_counter() - t0
    verdict(9, "pre/post deltas directional + Ex containment",
            flags_ok and contain_ok and elapsed < 10.0,
            f"flags {cmp['flags']}, {elapsed:.2f} s")


def test_criterion_10_fce_gap(report_before, report_after):
    gaps = [abs(rep.fce["gap_vs_cloud_ex"]) for rep in (report_before, report_after)]
    verdict(10, "FCE vs cloud Ex gap <= 2.0", max(gaps) <= 2.0,
            f"gaps {gaps[0]:.3f}, {gaps[1]:.3f}")


def test_criterion_11_replay_determinism(tmp_path):
    cli_main(["evaluate", str(DEMO / "config_before.json"), "--out", str(tmp_path / "a")])
    cli_main(["evaluate", str(DEMO / "config_before.json"), "--out", str(tmp_path / "b")])
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("report.json", "droplets.csv")
    )
    verdict(11, "byte-identical replay of evaluate", same)
