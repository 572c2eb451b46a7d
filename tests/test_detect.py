import numpy as np
import numpy.testing as npt
import pytest

from conftest import make_instance
from l1kpca import (DegenerateComponent, DetectionModel, FitOptions, InvalidData,
                    build_detector, classify, fit, l2_fit, outlier_scores, pr_auc,
                    select_alpha)


# ---------------------------------------------------------------- select_alpha

def test_select_alpha_single_component():
    assert select_alpha([1.0]) == 1.0


def test_select_alpha_hand_cumulative_sums():
    # total 10, need >= 8: cutoff 3 retains {5, 3} summing 8
    assert select_alpha([5.0, 3.0, 1.0, 1.0]) == 3.0
    # total 10, need >= 8: cutoff 4 retains {4, 4} summing 8
    assert select_alpha([4.0, 4.0, 2.0]) == 4.0


def test_select_alpha_is_largest_feasible_cutoff():
    rng = np.random.default_rng(0)
    for _ in range(20):
        lam = np.sort(rng.uniform(0, 5, size=8))[::-1]
        alpha = select_alpha(lam)
        total = lam.sum()
        assert lam[lam >= alpha].sum() >= 0.8 * total
        larger = lam[lam > alpha]
        if larger.size:  # the next larger distinct value must fail the rule
            assert lam[lam >= larger.min()].sum() < 0.8 * total
        assert alpha in lam


def test_select_alpha_rejects_degenerate_input():
    with pytest.raises(DegenerateComponent):
        select_alpha([0.0, 0.0])
    with pytest.raises(InvalidData):
        select_alpha([1.0, -0.5])
    with pytest.raises(InvalidData):
        select_alpha([])


# -------------------------------------------------------------- outlier_scores

def test_score_of_sqrt_variance_row_is_one():
    model = DetectionModel(score_matrix=np.array([[np.sqrt(3.0)]]),
                           variances=np.array([3.0]), alpha=3.0, retained=[0])
    npt.assert_allclose(outlier_scores(model), [1.0])


def test_zero_row_scores_zero():
    model = DetectionModel(score_matrix=np.array([[0.0, 0.0], [1.0, 1.0]]),
                           variances=np.array([1.0, 2.0]), alpha=1.0, retained=[0, 1])
    npt.assert_allclose(outlier_scores(model)[0], 0.0)


def test_scores_hand_example():
    model = DetectionModel(score_matrix=np.array([[1.0, 2.0], [3.0, 4.0]]),
                           variances=np.array([1.0, 2.0]), alpha=1.0, retained=[0, 1])
    npt.assert_allclose(outlier_scores(model), [3.0, 17.0])


def test_scores_invariant_under_column_sign_flips():
    rng = np.random.default_rng(1)
    Y = rng.standard_normal((6, 3))
    lam = np.array([2.0, 1.0, 0.5])
    base = DetectionModel(score_matrix=Y, variances=lam, alpha=0.5, retained=[0, 1, 2])
    flipped = DetectionModel(score_matrix=Y * np.array([-1.0, 1.0, -1.0]),
                             variances=lam, alpha=0.5, retained=[0, 1, 2])
    npt.assert_allclose(outlier_scores(flipped), outlier_scores(base))


def test_scores_reject_empty_retention():
    model = DetectionModel(score_matrix=np.ones((2, 1)), variances=np.array([1.0]),
                           alpha=1.0, retained=[])
    with pytest.raises(DegenerateComponent):
        outlier_scores(model)


# -------------------------------------------------------------------- classify

def test_classify_threshold_extremes():
    s = np.array([3.0, 17.0])
    npt.assert_array_equal(classify(s, -1.0), [1, 1])
    npt.assert_array_equal(classify(s, 17.0), [0, 0])  # strict inequality
    npt.assert_array_equal(classify(s, 10.0), [0, 1])


def test_classify_monotone_in_threshold():
    rng = np.random.default_rng(2)
    s = rng.uniform(0, 10, 30)
    prev = classify(s, -np.inf)
    for thr in np.sort(s):
        cur = classify(s, thr)
        assert np.all(cur <= prev)
        prev = cur


# ---------------------------------------------------------------------- pr_auc

def test_pr_auc_perfect_separation():
    scores = np.array([9.0, 8.0, 7.0, 1.0, 0.5, 0.2])
    labels = np.array([1, 1, 1, 0, 0, 0])
    assert pr_auc(scores, labels).auc == 1.0


def test_pr_auc_all_scores_equal_gives_prevalence():
    scores = np.full(8, 2.5)
    labels = np.array([1, 0, 0, 1, 0, 0, 0, 0])
    npt.assert_allclose(pr_auc(scores, labels).auc, 2.0 / 8.0)


def test_pr_auc_hand_swept_example():
    curve = pr_auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
    npt.assert_allclose(curve.auc, (1.0 + 2.0 / 3.0) / 2.0)
    # points run threshold-ascending, so recall is nonincreasing
    recalls = [r for r, _ in curve.points]
    assert all(a >= b for a, b in zip(recalls, recalls[1:]))
    assert curve.points[0] == (1.0, 0.5)
    assert curve.points[-1] == (0.5, 1.0)


def test_pr_auc_invariant_under_increasing_transform():
    rng = np.random.default_rng(3)
    scores = rng.uniform(0, 1, 40)
    labels = (rng.uniform(0, 1, 40) < 0.3).astype(int)
    labels[0] = 1
    base = pr_auc(scores, labels).auc
    assert pr_auc(np.exp(4 * scores), labels).auc == pytest.approx(base, abs=1e-15)
    assert pr_auc(scores**3 + 7, labels).auc == pytest.approx(base, abs=1e-15)


def test_pr_auc_requires_positives():
    with pytest.raises(InvalidData):
        pr_auc([1.0, 2.0], [0, 0])


# ------------------------------------------------------------- build_detector

def test_detector_variances_match_score_columns():
    data, K = make_instance(900, n=15, d=4)
    model = fit(K, 3, FitOptions(starts=8, seed=0), train=data)
    det = build_detector(model, data)
    npt.assert_allclose(det.variances, model.training_scores().var(axis=0), atol=0)
    assert det.retained  # nonempty by construction
    assert det.variances[det.retained].sum() >= 0.8 * det.variances.sum() - 1e-12


def test_detector_l2_linear_variances_equal_eigenvalue_over_n():
    data, K = make_instance(901, n=12, d=5)
    model = l2_fit(K, 5)
    det = build_detector(model, data)
    npt.assert_allclose(det.variances, model.eigenvalues / 12.0, atol=1e-8)


def test_detector_end_to_end_is_deterministic():
    from l1kpca import KernelSpec, SynthConfig, gram, synth_generate
    cfg = SynthConfig(n=80, d=6, rank=2, r_percent=10, seed=17)
    noisy, _, mask = synth_generate(cfg)
    aucs = []
    for _ in range(2):
        K = gram(KernelSpec("linear"), noisy)
        model = fit(K, 4, FitOptions(starts=8, seed=17), train=noisy)
        det = build_detector(model, noisy)
        aucs.append(pr_auc(outlier_scores(det), mask).auc)
    assert aucs[0] == aucs[1]
