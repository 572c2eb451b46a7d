"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with its headline numbers (run with -s to see them inline).

Criteria at a glance: fixed-point optimality, monotone norm descent,
finite convergence, oracle agreement, the max-cut identity, deflation
soundness, linear-kernel equivalence of the two iteration forms, L2
baseline correctness, the robustness direction of the corruption sweep,
detection-pipeline determinism, and L1/L2 runtime comparability.
"""

import time

import numpy as np
import numpy.testing as npt
import pytest

from conftest import deflation_chain
from l1kpca import (DegenerateComponent, FitOptions, KernelSpec, SynthConfig,
                    build_detector, enumerate_sign_vectors, fit, fit_component, gram,
                    l2_fit, l2_scores, maxcut_objective, pr_auc,
                    robustness_sweep, runtime_bench, standardize, synth_generate)

GOLDEN_DETECTION_AUC = 0.939922480620155  # frozen from the first verified run


def seeded_instances(count, n_range, d_range, master_seed=1234):
    """Deterministic mix of linear and gaussian instances with a random start."""
    rng = np.random.default_rng(master_seed)
    out = []
    for t in range(count):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        d = int(rng.integers(d_range[0], d_range[1] + 1))
        data = standardize(rng.standard_normal((n, d)))
        spec = KernelSpec("linear") if t % 2 == 0 else KernelSpec("gaussian", sigma=float(d))
        K = gram(spec, data)
        c0 = (rng.integers(0, 2, n) * 2 - 1).astype(float)
        out.append((data, K, c0))
    return out


@pytest.fixture(scope="module")
def solved_batch():
    """200 instances solved once; shared by criteria 1-3."""
    instances = seeded_instances(200, (5, 60), (2, 10))
    solved = []
    t0 = time.perf_counter()
    for data, K, c0 in instances:
        comp = None
        for retry in range(5):  # redraw on a degenerate random start
            try:
                comp = fit_component(K, c0)
                break
            except DegenerateComponent:
                flip = np.random.default_rng(retry).integers(0, 2, K.n) * 2 - 1
                c0 = (c0 * flip).astype(float)
        assert comp is not None
        solved.append((data, K, comp))
    elapsed = time.perf_counter() - t0
    return solved, elapsed


def test_criterion_01_fixed_point_optimality(solved_batch):
    solved, elapsed = solved_batch
    for data, K, comp in solved:
        v = K.entries @ comp.sign_vector
        tol = 1e-12 * K.n * np.abs(K.entries).max()
        strong = np.abs(v) > tol
        npt.assert_array_equal(np.sign(v[strong]), comp.sign_vector[strong])
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: fixed-point condition on 200/200 instances ({elapsed:.2f}s)")


def test_criterion_02_monotone_descent(solved_batch):
    solved, _ = solved_batch
    strict_checked = 0
    for data, K, comp in solved:
        trace = np.array(comp.report.norm_trace)
        assert np.all(np.diff(trace) <= 1e-12)
        if comp.report.zero_band_hits == 0 and len(trace) > 2:
            steps = -np.diff(trace)[:-1]  # every step before the final one
            assert np.all(steps > 1e-12 * trace[:-2])
            strict_checked += 1
    assert strict_checked > 0
    print(f"\nACCEPTANCE 2 PASS: norm trace nonincreasing on 200/200, "
          f"strictly decreasing on {strict_checked} zero-band-free instances")


def test_criterion_03_finite_convergence(solved_batch):
    solved, _ = solved_batch
    worst = 0
    for data, K, comp in solved:
        assert comp.report.terminated_by != "max_iter"
        assert comp.report.iterations <= 100
        worst = max(worst, comp.report.iterations)
    print(f"\nACCEPTANCE 3 PASS: all 200 instances terminated, max iterations {worst}")


def test_criterion_04_oracle_agreement():
    rng = np.random.default_rng(2024)
    attained = 0
    t0 = time.perf_counter()
    for t in range(50):
        n = int(rng.integers(5, 13))
        d = int(rng.integers(2, 7))
        data = standardize(rng.standard_normal((n, d)))
        spec = KernelSpec("linear") if t % 2 == 0 else KernelSpec("gaussian", sigma=float(d))
        K = gram(spec, data)
        best = enumerate_sign_vectors(K)
        model = fit(K, 1, FitOptions(starts=64, seed=t))
        if model.components[0].objective >= best.best_objective * (1 - 1e-9):
            attained += 1
        comp = fit_component(K, best.best_sign)
        assert comp.report.iterations == 1
        npt.assert_allclose(comp.objective, best.best_objective, rtol=1e-9)
    elapsed = time.perf_counter() - t0
    assert attained >= 45  # >= 90% of 50
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 4 PASS: optimum attained on {attained}/50, "
          f"immediate termination from the optimizer on 50/50 ({elapsed:.2f}s)")


def test_criterion_05_maxcut_identity():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 100:
        n = int(rng.integers(3, 15))
        d = int(rng.integers(2, 5))
        data = standardize(rng.standard_normal((n, d)))
        spec = KernelSpec("gaussian", sigma=1.0 + float(checked % 3)) if checked % 2 \
            else KernelSpec("linear")
        K = gram(spec, data)
        c = (rng.integers(0, 2, n) * 2 - 1).astype(float)
        direct = float(c @ K.entries @ c)
        if abs(direct) <= 1e-12 * n * n * np.abs(K.entries).max():
            continue  # c'Kc = 0 exactly (e.g. all-ones on a linear kernel):
                      # a relative bound is vacuous there, draw another pair
        assert abs(direct - maxcut_objective(K, c)) <= 1e-9 * abs(direct)
        checked += 1
    print("\nACCEPTANCE 5 PASS: max-cut identity on 100/100 random (K, c) pairs")


def test_criterion_06_deflation_soundness():
    rng = np.random.default_rng(88)
    models = 0
    for t in range(12):
        n = int(rng.integers(12, 30))
        d = int(rng.integers(5, 9))
        data = standardize(rng.standard_normal((n, d)))
        family = "linear" if t % 2 == 0 else "gaussian"
        spec = KernelSpec(family, sigma=float(d))
        K = gram(spec, data)
        model = fit(K, 4, FitOptions(starts=8, seed=t))
        chain = deflation_chain(K, model)
        scale = np.abs(K.entries).max()
        for j, comp in enumerate(model.components):
            Kn = chain[j + 1]
            assert abs(comp.sign_vector @ Kn @ comp.sign_vector) <= 1e-9 * comp.objective
            assert np.linalg.eigvalsh(Kn).min() >= -1e-8 * scale
        if family == "linear":
            A = data.values.copy()
            loadings = []
            for comp in model.components:
                u = A.T @ comp.sign_vector / np.sqrt(comp.objective)
                loadings.append(u)
                A = A - np.outer(A @ u, u)
            U = np.column_stack(loadings)
            npt.assert_allclose(U.T @ U, np.eye(4), atol=1e-8)
        models += 1
    print(f"\nACCEPTANCE 6 PASS: deflation annihilation, PSD preservation and "
          f"loading orthonormality on {models} multi-component models")


def test_criterion_07_linear_kernel_equivalence():
    for seed in range(50):
        rng = np.random.default_rng(9000 + seed)
        n = int(rng.integers(5, 30))
        d = int(rng.integers(2, 7))
        data = standardize(rng.standard_normal((n, d)))
        K = gram(KernelSpec("linear"), data).entries
        A = data.values
        tol = 1e-12 * n * np.abs(K).max()
        c_k = (rng.integers(0, 2, n) * 2 - 1).astype(float)
        c_i = c_k.copy()
        for _ in range(500):
            v = K @ c_k
            next_k = np.where(np.abs(v) <= tol, c_k, np.sign(v))
            proj = A @ (A.T @ c_i)
            next_i = np.where(np.abs(proj) <= tol, c_i, np.sign(proj))
            npt.assert_array_equal(next_k, next_i)
            done = np.array_equal(next_k, c_k)
            c_k, c_i = next_k, next_i
            if done:
                break
    print("\nACCEPTANCE 7 PASS: identical sign sequences on 50/50 linear instances")


def test_criterion_08_l2_baseline_correctness():
    rng = np.random.default_rng(99)
    for t in range(20):
        n = int(rng.integers(8, 25))
        d = int(rng.integers(3, 7))
        data = standardize(rng.standard_normal((n, d)))
        K = gram(KernelSpec("linear"), data)
        p = min(n, d) - 1
        model = l2_fit(K, p)
        mu, U = model.eigenvalues, model.coefficient_vectors
        for j in range(p):
            assert np.linalg.norm(K.entries @ U[:, j] - mu[j] * U[:, j]) <= 1e-8 * mu[0]
        npt.assert_allclose(U.T @ U, np.eye(p), atol=1e-8)

        Y = l2_scores(model, K.entries)
        _, svals, Vt = np.linalg.svd(data.values, full_matrices=False)
        classic = data.values @ Vt[:p].T
        for j in range(p):
            assert min(np.abs(Y[:, j] - classic[:, j]).max(),
                       np.abs(Y[:, j] + classic[:, j]).max()) <= 1e-8
    print("\nACCEPTANCE 8 PASS: L2 scores match covariance PCA and satisfy "
          "residual/orthogonality invariants on 20/20 fits")


def test_criterion_09_robustness_direction():
    t0 = time.perf_counter()
    rows = robustness_sweep([10.0, 15.0, 20.0, 25.0, 30.0], KernelSpec("linear"),
                            cfg=SynthConfig(n=200, d=20, rank=5, seed=0),
                            p=4, n_seeds=10)
    elapsed = time.perf_counter() - t0
    lines = []
    for row in rows:
        assert row["tev_l1"] > row["tev_l2"], f"direction violated at r={row['r_percent']}"
        lines.append(f"r={row['r_percent']:.0f}: L1={row['tev_l1']:.2f} L2={row['tev_l2']:.2f}")
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 9 PASS: L1 explained variation exceeds L2 at every r "
          f"({'; '.join(lines)}; {elapsed:.1f}s)")
    print("  (reported, not asserted: at 1000x50 scale the levels sit near "
          "95% vs 90% for L1 vs L2)")


def test_criterion_10_detection_pipeline():
    # perfectly separable corruption: AUC is exactly 1.0
    cfg = SynthConfig(n=100, d=6, rank=2, r_percent=8, noise_scale=60.0, seed=21)
    noisy, _, mask = synth_generate(cfg)
    K = gram(KernelSpec("linear"), noisy)
    model = fit(K, 6, FitOptions(starts=8, seed=21))
    det = build_detector(model)
    assert pr_auc(det.scores, mask).auc == 1.0

    # seeded end-to-end run reproduces the committed golden value
    cfg = SynthConfig(n=120, d=8, rank=3, r_percent=10, noise_scale=5.0, seed=11)
    noisy, _, mask = synth_generate(cfg)
    K = gram(KernelSpec("linear"), noisy)
    model = fit(K, 8, FitOptions(starts=8, seed=11))
    det = build_detector(model)
    auc = pr_auc(det.scores, mask).auc
    assert abs(auc - GOLDEN_DETECTION_AUC) <= 1e-12
    print(f"\nACCEPTANCE 10 PASS: separable case AUC = 1.0 exactly; "
          f"golden run reproduced AUC = {auc}")


def test_criterion_11_runtime_comparability():
    cfg = SynthConfig(n=1000, d=50, rank=10, r_percent=10, seed=42)
    noisy, _, _ = synth_generate(cfg)
    # Untimed warm-up, the same fit as the timed one: after the machine idles,
    # the first L1 fit in a process runs up to 2x slower at the default BLAS
    # thread count, while the L2 eigh does not; the ratio below is of warm fits.
    fit(gram(KernelSpec("linear"), noisy), min(cfg.n, cfg.d), FitOptions(starts=8))
    rows = runtime_bench("synth1000", noisy, [KernelSpec("linear")], starts=8)
    t_l1 = next(r["seconds"] for r in rows if r["method"] == "l1")
    t_l2 = next(r["seconds"] for r in rows if r["method"] == "l2")
    assert t_l1 < 60.0 and t_l2 < 60.0
    assert t_l1 <= 10.0 * t_l2
    print(f"\nACCEPTANCE 11 PASS: n=1000 full fits L1={t_l1:.2f}s, L2={t_l2:.2f}s "
          f"(ratio {t_l1 / t_l2:.1f}x <= 10x)")
