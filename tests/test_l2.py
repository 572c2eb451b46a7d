import numpy as np
import numpy.testing as npt
import pytest

from conftest import make_instance, raw_gram
from l1kpca import (DegenerateComponent, InvalidData, KernelSpec, NumericalFailure,
                    gram, l2_fit, l2_scores)


def test_identity_gram_has_unit_eigenvalues():
    model = l2_fit(raw_gram(np.eye(5)), 5)
    npt.assert_allclose(model.eigenvalues, np.ones(5))


def test_two_point_eigenvalues_match_characteristic_polynomial(two_point_gram):
    # det(K - mu I) = mu^2 - 3 mu + 1, roots (3 +- sqrt(5)) / 2
    model = l2_fit(two_point_gram, 2)
    expected = np.array([(3 + np.sqrt(5)) / 2, (3 - np.sqrt(5)) / 2])
    npt.assert_allclose(model.eigenvalues, expected, rtol=1e-12)


def test_linear_gram_eigenvalues_equal_squared_singular_values():
    data, K = make_instance(20, n=10, d=4)
    model = l2_fit(K, 4)
    svals = np.linalg.svd(data.values, compute_uv=False)  # independent route
    npt.assert_allclose(model.eigenvalues, svals**2, rtol=1e-8)


def test_eigen_residual_and_orthogonality_invariants():
    for seed, family in [(21, "linear"), (22, "gaussian")]:
        data, K = make_instance(seed, n=12, d=5, family=family, sigma=2.0)
        model = l2_fit(K, 5)
        mu, U = model.eigenvalues, model.coefficient_vectors
        for j in range(5):
            resid = np.linalg.norm(K.entries @ U[:, j] - mu[j] * U[:, j])
            assert resid <= 1e-8 * mu[0]
        npt.assert_allclose(U.T @ U, np.eye(5), atol=1e-8)


def test_eigenvalue_sum_equals_trace():
    data, K = make_instance(23, n=9, d=4, family="gaussian", sigma=1.4)
    model = l2_fit(K, 9)
    npt.assert_allclose(model.eigenvalues.sum(), np.trace(K.entries), rtol=1e-8)


def test_eigenvector_sign_convention():
    data, K = make_instance(24, n=7, d=3)
    U = l2_fit(K, 3).coefficient_vectors
    for j in range(3):
        assert U[np.abs(U[:, j]).argmax(), j] > 0


def test_rejects_indefinite_matrix():
    K = raw_gram([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(InvalidData):
        l2_fit(K, 2)


def test_component_count_validation(two_point_gram):
    with pytest.raises(InvalidData):
        l2_fit(two_point_gram, 0)
    with pytest.raises(InvalidData):
        l2_fit(two_point_gram, 3)


def test_eigensolver_failure_is_wrapped(monkeypatch):
    def boom(_):
        raise np.linalg.LinAlgError("did not converge")
    monkeypatch.setattr(np.linalg, "eigh", boom)
    with pytest.raises(NumericalFailure):
        l2_fit(raw_gram(np.eye(3)), 2)


def test_scores_on_identity_training_gram_are_unit_eigenvector():
    K = raw_gram(np.eye(2))
    model = l2_fit(K, 1)
    scores = l2_scores(model, K.entries)
    npt.assert_allclose(np.linalg.norm(scores[:, 0]), 1.0, rtol=1e-12)


def test_training_scores_columns_are_orthogonal():
    data, K = make_instance(25, n=11, d=4, family="gaussian", sigma=2.0)
    model = l2_fit(K, 4)
    Y = l2_scores(model, K.entries)
    off = Y.T @ Y - np.diag(np.diag(Y.T @ Y))
    assert np.abs(off).max() <= 1e-8 * model.eigenvalues[0]
    npt.assert_allclose(Y, model.training_scores(), atol=1e-8)


def test_linear_kernel_scores_match_covariance_pca_up_to_sign():
    data, K = make_instance(26, n=10, d=4)
    model = l2_fit(K, 3)
    Y = l2_scores(model, K.entries)
    # classical route: project onto right singular vectors of the data
    U, svals, Vt = np.linalg.svd(data.values, full_matrices=False)
    classic = data.values @ Vt[:3].T
    for j in range(3):
        direct = np.abs(Y[:, j] - classic[:, j]).max()
        flipped = np.abs(Y[:, j] + classic[:, j]).max()
        assert min(direct, flipped) <= 1e-8


def test_scores_reject_zero_eigenvalue():
    vals = np.outer([1.0, -1.0, 2.0], [1.0, 3.0])  # rank 1
    from conftest import raw_dataset
    K = gram(KernelSpec("linear"), raw_dataset(vals))
    model = l2_fit(K, 2)
    with pytest.raises(DegenerateComponent):
        l2_scores(model, K.entries)


def test_scores_reject_wrong_width(two_point_gram):
    model = l2_fit(two_point_gram, 1)
    with pytest.raises(InvalidData):
        l2_scores(model, np.ones((3, 3)))


def test_l2_top_eigenvalue_dominates_l1_score_energy():
    # the leading eigenvalue maximizes the captured variation over unit
    # loadings, so the L1 component's total squared score cannot beat it
    from l1kpca import FitOptions, fit
    for seed in (27, 28, 29):
        data, K = make_instance(seed, n=14, d=5)
        mu1 = l2_fit(K, 1).eigenvalues[0]
        comp = fit(K, 1, FitOptions(starts=8, seed=seed)).components[0]
        l1_energy = float(comp.train_scores @ comp.train_scores)
        assert l1_energy <= mu1 * (1 + 1e-12)
