import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import make_instance
from l1kpca import (DegenerateComponent, FitOptions, InvalidData, build_detector, classify,
                    fit, l2_fit, pr_auc, select_alpha)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_select_alpha_rejects_non_finite_variances(bad):
    with pytest.raises(InvalidData, match="finite nonnegative"):
        select_alpha([1.0, bad])


# ------------------------------------------------------ build_detector scores

class StubModel:
    """A fitted model as build_detector reads it: only training_scores()."""

    def __init__(self, Y):
        self.Y = np.asarray(Y, dtype=float)

    def training_scores(self):
        return self.Y


def test_score_of_sqrt_variance_row_is_one():
    # one column of population variance 3; both rows sit at sqrt(3)
    det = build_detector(StubModel([[np.sqrt(3.0)], [-np.sqrt(3.0)]]))
    npt.assert_allclose(det.variances, [3.0])
    npt.assert_allclose(det.scores, [1.0, 1.0])


def test_zero_row_scores_zero():
    det = build_detector(StubModel([[0.0, 0.0], [1.0, 1.0], [-1.0, -1.0]]))
    assert det.retained == [0, 1]
    npt.assert_allclose(det.scores[0], 0.0)


def test_scores_hand_example():
    # variances 5 and 2 (total 7, cutoff 2): both retained
    det = build_detector(StubModel([[1.0, 2.0], [-1.0, -2.0], [3.0, 0.0], [-3.0, 0.0]]))
    npt.assert_allclose(det.variances, [5.0, 2.0])
    assert (det.alpha, det.retained) == (2.0, [0, 1])
    npt.assert_allclose(det.scores, [1 / 5 + 4 / 2, 1 / 5 + 4 / 2, 9 / 5, 9 / 5])
    # variances 1 and 4 (cutoff 4): the first column is dropped and adds nothing
    det = build_detector(StubModel([[1.0, 2.0], [-1.0, -2.0]]))
    assert (det.alpha, det.retained) == (4.0, [1])
    npt.assert_allclose(det.scores, [1.0, 1.0])


def test_scores_invariant_under_column_sign_flips():
    rng = np.random.default_rng(1)
    Y = rng.standard_normal((6, 3))
    base = build_detector(StubModel(Y))
    flipped = build_detector(StubModel(Y * np.array([-1.0, 1.0, -1.0])))
    assert flipped.retained == base.retained
    npt.assert_allclose(flipped.scores, base.scores)


def retained_with_relative_floor(variances, alpha):
    """The retention rule before the variance floor was dropped: also lambda_j > 1e-12 max."""
    return np.flatnonzero((variances >= alpha) & (variances > 1e-12 * variances.max())).tolist()


# Exact zeros, subnormals, and magnitudes from about 1e-320 to 1e301.
VARIANCE = st.one_of(st.just(0.0), st.floats(0.0, 1e-300),
                     st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-320, 300)))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(variances=st.lists(VARIANCE, min_size=1, max_size=59))
def test_retention_by_alpha_alone_matches_the_relative_floor_rule(variances):
    # A column [a, -a] has population variance a^2.
    Y = np.sqrt(variances) * np.array([[1.0], [-1.0]])
    assume(Y.var(axis=0).sum() > 0)
    det = build_detector(StubModel(Y))
    assert det.retained == retained_with_relative_floor(det.variances, det.alpha)


def test_detector_refuses_score_columns_without_finite_variance():
    # A NaN score column has a NaN variance; all-zero columns retain nothing.
    with pytest.raises(InvalidData):
        build_detector(StubModel([[1.0, np.nan], [-1.0, 0.0]]))
    with pytest.raises(DegenerateComponent):
        build_detector(StubModel(np.zeros((3, 2))))


# -------------------------------------------------------------------- classify

def test_classify_threshold_extremes():
    s = np.array([3.0, 17.0])
    npt.assert_array_equal(classify(s, -1.0), [1, 1])
    npt.assert_array_equal(classify(s, 17.0), [0, 0])  # strict inequality
    npt.assert_array_equal(classify(s, 10.0), [0, 1])


def test_classify_monotone_in_threshold():
    rng = np.random.default_rng(2)
    s = rng.uniform(0, 10, 30)
    prev = np.ones(s.size, dtype=int)
    for thr in np.sort(s):
        cur = classify(s, thr)
        assert np.all(cur <= prev)
        prev = cur


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_classify_refuses_a_non_finite_threshold(bad):
    # No score exceeds NaN or +inf and every one exceeds -inf: none is a rule.
    with pytest.raises(InvalidData, match=f"^threshold must be a finite number, got {bad}$"):
        classify(np.array([3.0, 17.0]), bad)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pr_auc_rejects_non_finite_scores(bad):
    with pytest.raises(InvalidData, match="^scores must be finite numbers$"):
        pr_auc([1.0, bad, 0.5], [1, 0, 1])


@pytest.mark.parametrize("labels", [[2, 0, 1], [0.5, 1, 1], [-1, 1, 1], [np.nan, 1, 0]])
def test_pr_auc_refuses_labels_other_than_0_and_1(labels):
    # Unchecked, [2, 0, 1] gave an AUC of 1.667 and [0.5, 1, 1] was cast to [0, 1, 1].
    with pytest.raises(InvalidData, match="^labels must be 0 or 1$"):
        pr_auc([1.0, 0.5, 0.2], labels)


def test_pr_auc_takes_float_and_boolean_labels_of_0_and_1():
    expected = pr_auc([1.0, 0.5, 0.2], [1, 0, 1]).auc
    assert pr_auc([1.0, 0.5, 0.2], [1.0, 0.0, 1.0]).auc == expected
    assert pr_auc([1.0, 0.5, 0.2], [True, False, True]).auc == expected


def test_pr_auc_requires_positives():
    with pytest.raises(InvalidData):
        pr_auc([1.0, 2.0], [0, 0])


# ------------------------------------------------------------- build_detector

def test_detector_variances_match_score_columns():
    data, K = make_instance(900, n=15, d=4)
    model = fit(K, 3, FitOptions(starts=8, seed=0))
    det = build_detector(model)
    npt.assert_allclose(det.variances, model.training_scores().var(axis=0), atol=0)
    assert det.retained  # nonempty by construction
    assert det.variances[det.retained].sum() >= 0.8 * det.variances.sum() - 1e-12


def test_detector_l2_linear_variances_equal_eigenvalue_over_n():
    data, K = make_instance(901, n=12, d=5)
    model = l2_fit(K, 5)
    det = build_detector(model)
    npt.assert_allclose(det.variances, model.eigenvalues / 12.0, atol=1e-8)


def test_detector_end_to_end_is_deterministic():
    from l1kpca import KernelSpec, SynthConfig, gram, synth_generate
    cfg = SynthConfig(n=80, d=6, rank=2, r_percent=10, seed=17)
    noisy, _, mask = synth_generate(cfg)
    aucs = []
    for _ in range(2):
        K = gram(KernelSpec("linear"), noisy)
        model = fit(K, 4, FitOptions(starts=8, seed=17))
        det = build_detector(model)
        aucs.append(pr_auc(det.scores, mask).auc)
    assert aucs[0] == aucs[1]

