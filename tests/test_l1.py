import itertools

import numpy as np
import numpy.testing as npt
import pytest

from conftest import deflation_chain, make_instance, raw_dataset, raw_gram
from l1kpca import (DegenerateComponent, FitOptions, InvalidData, KernelSpec,
                    NonConvergence, build_detector, cross_gram, deflate, fit, fit_component,
                    gram, l2_fit, sign_update, train_scores, transform)
from l1kpca.l1 import chain_scores, validate_sign_vector


def brute_force_objectives(K):
    """Independent oracle: c'Kc over every sign vector."""
    n = K.shape[0]
    vals = {}
    for bits in itertools.product([-1.0, 1.0], repeat=n):
        c = np.array(bits)
        vals[bits] = float(c @ K @ c)
    return vals


# ---------------------------------------------------------------- sign_update

def test_sign_update_identity_kernel_is_fixed():
    K = raw_gram(np.eye(3))
    c = np.array([1.0, -1.0, 1.0])
    npt.assert_array_equal(sign_update(K, c), c)


def test_sign_update_zero_entry_keeps_previous_sign(two_point_gram):
    # Kc = [0, -1]: the zero lands in the band and keeps c_1 = +1
    out = sign_update(two_point_gram, [1.0, -1.0])
    npt.assert_array_equal(out, [1.0, -1.0])


def test_sign_update_plain_case(two_point_gram):
    # Kc = [2, 3]
    out = sign_update(two_point_gram, [1.0, 1.0])
    npt.assert_array_equal(out, [1.0, 1.0])


def test_sign_vector_validation():
    with pytest.raises(InvalidData):
        validate_sign_vector([1.0, 0.5])
    with pytest.raises(InvalidData):
        validate_sign_vector([1.0, -1.0], n=3)


# -------------------------------------------------------------- fit_component

def test_fit_component_identity_terminates_in_one_update():
    K = raw_gram(np.eye(3))
    for c0 in ([1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [-1.0, -1.0, -1.0]):
        comp = fit_component(K, c0)
        npt.assert_array_equal(comp.sign_vector, c0)
        assert comp.report.iterations == 1
        assert comp.report.terminated_by == "sign_fixed"
        assert comp.objective == 3.0


def test_fit_component_two_point_global_optimum(two_point_gram):
    vals = brute_force_objectives(two_point_gram.entries)
    assert sorted(vals.values()) == [1.0, 1.0, 5.0, 5.0]
    comp = fit_component(two_point_gram, [1.0, 1.0])
    assert comp.objective == 5.0 == max(vals.values())


def test_fit_component_two_point_degenerate_fixed_point(two_point_gram):
    # reached via the zero-band rule; a poor local fixed point, not an error
    comp = fit_component(two_point_gram, [1.0, -1.0])
    npt.assert_array_equal(comp.sign_vector, [1.0, -1.0])
    assert comp.objective == 1.0


def test_fit_component_fixed_point_condition_holds():
    for seed in range(8):
        data, K = make_instance(seed, n=20, d=4, family="gaussian", sigma=2.0)
        comp = fit_component(K, np.where(np.arange(20) % 2 == 0, 1.0, -1.0))
        v = K.entries @ comp.sign_vector
        tol = 1e-12 * 20 * np.abs(K.entries).max()
        strong = np.abs(v) > tol
        npt.assert_array_equal(np.sign(v[strong]), comp.sign_vector[strong])


def test_fit_component_norm_trace_nonincreasing_and_rates_bounded():
    for seed in range(10):
        data, K = make_instance(100 + seed, n=30, d=5)
        c0 = (np.random.default_rng(seed).integers(0, 2, 30) * 2 - 1).astype(float)
        comp = fit_component(K, c0)
        trace = np.array(comp.report.norm_trace)
        assert np.all(np.diff(trace) <= 1e-12)
        assert np.all(np.array(comp.report.rate_estimates) <= 1 + 1e-12)
        # multiplier matches the terminal iterate norm
        npt.assert_allclose(comp.report.lagrange_multiplier, 1.0 / (2.0 * trace[-1]), rtol=1e-15)


def test_fit_component_degenerate_all_ones_on_standardized_linear_gram():
    # standardized columns make K @ 1 exactly zero for the linear kernel
    data, K = make_instance(42, n=12, d=3)
    with pytest.raises(DegenerateComponent):
        fit_component(K, np.ones(12))


def test_fit_component_nonconvergence_carries_report():
    data, K = make_instance(7, n=40, d=6)
    c0 = (np.random.default_rng(1).integers(0, 2, 40) * 2 - 1).astype(float)
    full = fit_component(K, c0)
    assert full.report.iterations > 1
    with pytest.raises(NonConvergence) as info:
        fit_component(K, c0, FitOptions(max_iter=1))
    assert info.value.report.terminated_by == "max_iter"
    assert info.value.report.iterations == 1
    assert len(info.value.report.norm_trace) == 1


# ------------------------------------------------------------------- deflate

def test_deflate_hand_example():
    K = raw_gram(np.eye(2))
    K1 = deflate(K, [1.0, 1.0])
    npt.assert_allclose(K1.entries, [[0.5, -0.5], [-0.5, 0.5]])


def test_deflate_annihilates_direction():
    for seed in range(5):
        data, K = make_instance(200 + seed, n=15, d=4, family="gaussian", sigma=1.5)
        c = (np.random.default_rng(seed).integers(0, 2, 15) * 2 - 1).astype(float)
        s = float(c @ K.entries @ c)
        K1 = deflate(K, c)
        assert abs(c @ K1.entries @ c) <= 1e-9 * s
        assert np.abs(K1.entries - K1.entries.T).max() == 0.0


def test_deflate_preserves_positive_semidefiniteness():
    data, K = make_instance(300, n=6, d=6, family="gaussian", sigma=2.0)
    c = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
    K1 = deflate(K, c)
    assert np.linalg.eigvalsh(K1.entries).min() >= -1e-8 * np.abs(K.entries).max()


def test_deflate_rejects_degenerate_direction():
    data, K = make_instance(301, n=10, d=3)
    with pytest.raises(DegenerateComponent):
        deflate(K, np.ones(10))  # K @ 1 = 0 on standardized linear data


# -------------------------------------------------------------- train_scores

def test_train_scores_identity_kernel():
    t = train_scores(raw_gram(np.eye(2)), [1.0, 1.0])
    npt.assert_allclose(t, [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)])


def test_train_scores_weighted_sum_identity():
    # sum_i t_i c_i = sqrt(c'Kc) algebraically
    for seed in range(5):
        data, K = make_instance(400 + seed, n=12, d=3, family="polynomial")
        c = (np.random.default_rng(seed).integers(0, 2, 12) * 2 - 1).astype(float)
        t = train_scores(K, c)
        s = float(c @ K.entries @ c)
        npt.assert_allclose(t @ c, np.sqrt(s), rtol=1e-12)


def test_train_scores_hand_example(two_point_gram):
    t = train_scores(two_point_gram, [1.0, 1.0])
    npt.assert_allclose(t, [2.0 / np.sqrt(5.0), 3.0 / np.sqrt(5.0)])


# ----------------------------------------------------------------------- fit

def test_fit_single_component_finds_global_optimum(two_point_gram):
    model = fit(two_point_gram, 1, FitOptions(starts=4, seed=0))
    assert model.components[0].objective == 5.0
    model = fit(two_point_gram, 1, FitOptions(starts=4, seed=99))
    assert model.components[0].objective == 5.0


def test_fit_identity_gram_full_rank_hadamard_pattern():
    # I4 admits 4 mutually orthogonal sign vectors, each with objective 4;
    # each deflated kernel subtracts (1/n) v v' for the extracted v.
    K = raw_gram(np.eye(4))
    model = fit(K, 4, FitOptions(starts=32, seed=5))
    chain = deflation_chain(K, model)
    for j, comp in enumerate(model.components):
        assert comp.objective == pytest.approx(4.0, abs=1e-9)
        c = comp.sign_vector
        expected = chain[j] - np.outer(c, c) / 4.0
        npt.assert_allclose(chain[j + 1], expected, atol=1e-12)
        assert abs(c @ chain[j + 1] @ c) <= 1e-9 * comp.objective


def test_fit_two_components_on_seeded_linear_gram():
    data, K = make_instance(500, n=8, d=5)
    model = fit(K, 2, FitOptions(starts=8, seed=3), train=data)
    chain = deflation_chain(K, model)
    assert len(chain) == 3
    tol = 1e-12 * 8 * np.abs(K.entries).max()
    for j, comp in enumerate(model.components):
        Kj = chain[j]
        v = Kj @ comp.sign_vector
        strong = np.abs(v) > tol
        npt.assert_array_equal(np.sign(v[strong]), comp.sign_vector[strong])
        assert abs(comp.sign_vector @ chain[j + 1] @ comp.sign_vector) \
            <= 1e-9 * comp.objective


def test_fit_component_count_validation(two_point_gram):
    with pytest.raises(InvalidData):
        fit(two_point_gram, 0)
    with pytest.raises(InvalidData):
        fit(two_point_gram, 3)


def test_fit_degenerate_error_carries_component_index():
    # rank-1 data: the second component has nothing left to extract
    vals = np.outer([1.0, 2.0, -1.0, 0.5], [1.0, -2.0])
    data = raw_dataset(vals)
    K = gram(KernelSpec("linear"), data)
    with pytest.raises(DegenerateComponent) as info:
        fit(K, 3, FitOptions(starts=8, seed=0))
    assert "component" in str(info.value)


# ----------------------------------------------------------------- transform

def test_transform_on_training_data_reproduces_train_scores():
    for family in ("linear", "gaussian"):
        data, K = make_instance(600, n=12, d=4, family=family, sigma=2.0)
        model = fit(K, 3, FitOptions(starts=8, seed=2), train=data)
        T = transform(model, data)
        npt.assert_allclose(T, model.training_scores(), atol=1e-9)


def test_transform_single_query_row_matches_train_score():
    data, K = make_instance(601, n=9, d=3)
    model = fit(K, 1, FitOptions(starts=8, seed=0), train=data)
    query = raw_dataset(data.values[4:5].copy())
    T = transform(model, query)
    npt.assert_allclose(T[0, 0], model.components[0].train_scores[4], atol=1e-12)


def test_transform_chain_matches_explicit_feature_space_projection():
    # linear kernel: loadings are explicit input-space vectors, so scores
    # can be recomputed by deflating the feature matrices directly
    data, K = make_instance(602, n=10, d=4)
    model = fit(K, 2, FitOptions(starts=8, seed=4), train=data)
    rng = np.random.default_rng(603)
    query = raw_dataset(rng.standard_normal((3, 4)))

    A = data.values.copy()
    Q = query.values.copy()
    explicit = np.empty((3, 2))
    for j, comp in enumerate(model.components):
        u = A.T @ comp.sign_vector / np.sqrt(comp.objective)
        explicit[:, j] = Q @ u
        A = A - np.outer(A @ u, u)
        Q = Q - np.outer(Q @ u, u)

    npt.assert_allclose(transform(model, query), explicit, atol=1e-9)


def test_transform_rejects_feature_mismatch():
    data, K = make_instance(604, n=6, d=3)
    model = fit(K, 1, FitOptions(starts=8, seed=0), train=data)
    with pytest.raises(InvalidData):
        transform(model, raw_dataset(np.ones((2, 5))))


def test_chain_scores_matches_transform():
    data, K = make_instance(605, n=8, d=3)
    model = fit(K, 2, FitOptions(starts=8, seed=0), train=data)
    G = cross_gram(model.spec, data, data)
    npt.assert_allclose(chain_scores(model.components, G), transform(model, data), atol=0)


def test_l1_and_l2_models_share_transform_and_detector():
    data, K = make_instance(606, n=12, d=4, family="gaussian", sigma=2.0)
    l1_model = fit(K, 3, FitOptions(starts=8, seed=0), train=data)
    l2_model = l2_fit(K, 3)
    with pytest.raises(InvalidData):  # no training data attached yet
        transform(l2_model, data)
    l2_model.train_ref = data
    for model in (l1_model, l2_model):
        Y = model.training_scores()
        assert Y.shape == (12, 3)
        npt.assert_allclose(transform(model, data), Y, atol=1e-9)
        npt.assert_allclose(model.scores(cross_gram(model.spec, data, data), 2),
                            transform(model, data)[:, :2], rtol=0, atol=1e-12)
        det = build_detector(model, data)
        npt.assert_array_equal(det.score_matrix, Y)
        npt.assert_array_equal(det.variances, Y.var(axis=0))


# ------------------------------------------------- linear-kernel equivalence

def input_space_sign_sequence(A, c0, tol, max_iter=500):
    """Reference iteration on raw features: w = sum_i a_i c_i, c_i = sgn(a_i.w)."""
    c = c0.copy()
    seq = [c.copy()]
    for _ in range(max_iter):
        w = A.T @ c
        proj = A @ w
        c_next = np.where(np.abs(proj) <= tol, c, np.sign(proj))
        seq.append(c_next.copy())
        if np.array_equal(c_next, c):
            return seq
        c = c_next
    return seq


def kernel_space_sign_sequence(K, c0, tol, max_iter=500):
    c = c0.copy()
    seq = [c.copy()]
    for _ in range(max_iter):
        v = K @ c
        c_next = np.where(np.abs(v) <= tol, c, np.sign(v))
        seq.append(c_next.copy())
        if np.array_equal(c_next, c):
            return seq
        c = c_next
    return seq


def test_linear_kernel_iteration_equals_input_space_iteration():
    for seed in range(10):
        rng = np.random.default_rng(700 + seed)
        n, d = int(rng.integers(5, 25)), int(rng.integers(2, 6))
        data, K = make_instance(700 + seed, n=n, d=d)
        c0 = (rng.integers(0, 2, n) * 2 - 1).astype(float)
        tol = 1e-12 * n * np.abs(K.entries).max()
        seq_k = kernel_space_sign_sequence(K.entries, c0, tol)
        seq_i = input_space_sign_sequence(data.values, c0, tol)
        assert len(seq_k) == len(seq_i)
        for a, b in zip(seq_k, seq_i):
            npt.assert_array_equal(a, b)


# ------------------------------------------------------ loading orthogonality

def test_linear_loading_reconstructions_are_orthonormal():
    data, K = make_instance(800, n=20, d=6)
    model = fit(K, 4, FitOptions(starts=8, seed=8), train=data)
    A = data.values.copy()
    loadings = []
    for comp in model.components:
        u = A.T @ comp.sign_vector / np.sqrt(comp.objective)
        loadings.append(u)
        A = A - np.outer(A @ u, u)
    U = np.column_stack(loadings)
    npt.assert_allclose(U.T @ U, np.eye(4), atol=1e-8)
