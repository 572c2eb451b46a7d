import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import raw_dataset
from l1kpca import (InvalidData, KernelSpec, cross_gram, gram, kernel_eval, standardize,
                    standardize_with)
from l1kpca import kernel


def dense_pairwise(spec, left, right):
    """Dense reference: the gaussian builds the whole m x n x d difference tensor."""
    if spec.family == "linear":
        return left @ right.T
    if spec.family == "gaussian":
        diff = left[:, None, :] - right[None, :, :]
        return np.exp(-np.einsum("ijk,ijk->ij", diff, diff) / (2.0 * spec.sigma**2))
    return (left @ right.T + spec.offset) ** spec.degree


def dense_gram(spec, values):
    """Dense reference Gram: the full matrix mirrored out of place."""
    full = dense_pairwise(spec, values, values)
    return np.triu(full) + np.triu(full, 1).T


def test_standardize_symmetric_three_point_column():
    data = standardize(np.array([[1.0], [2.0], [3.0]]))
    npt.assert_allclose(data.values[:, 0], [-1.0, 0.0, 1.0])
    npt.assert_allclose(data.column_means, [2.0])
    npt.assert_allclose(data.column_stds, [1.0])


def test_standardize_constant_column_maps_to_zeros():
    data = standardize(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
    npt.assert_allclose(data.values[:, 0], [0.0, 0.0, 0.0])
    assert data.column_stds[0] == 1.0


def test_standardize_random_matrix_has_unit_stats():
    rng = np.random.default_rng(3)
    data = standardize(rng.standard_normal((4, 2)) * 7 + 3)
    # independent recomputation of the post-transform statistics
    assert np.abs(data.values.mean(axis=0)).max() <= 1e-12
    npt.assert_allclose(data.values.std(axis=0, ddof=1), 1.0, atol=1e-12)


def test_standardize_is_idempotent():
    rng = np.random.default_rng(4)
    data = standardize(rng.standard_normal((9, 3)) * 5 - 2)
    again = standardize(data.values)
    npt.assert_allclose(again.values, data.values, atol=1e-12)


def test_standardize_rejects_bad_input():
    with pytest.raises(InvalidData):
        standardize(np.array([[1.0, np.nan]]))
    with pytest.raises(InvalidData):
        standardize(np.zeros((0, 3)))
    with pytest.raises(InvalidData):
        standardize(np.zeros(5))


def test_standardize_with_applies_recorded_statistics():
    train = standardize(np.array([[1.0, 10.0], [3.0, 30.0], [5.0, 20.0]]))
    held_out = standardize_with(np.array([[3.0, 20.0]]), train.column_means, train.column_stds)
    npt.assert_allclose(held_out.values, [[0.0, 0.0]])


def test_kernel_eval_gaussian_same_point_is_one():
    spec = KernelSpec("gaussian", sigma=2.5)
    assert kernel_eval(spec, [1.0, -3.0], [1.0, -3.0]) == 1.0


def test_kernel_eval_linear_dot_product():
    assert kernel_eval(KernelSpec("linear"), [1.0, 0.0], [1.0, 1.0]) == 1.0


def test_kernel_eval_gaussian_unit_width():
    # ||a-b||^2 = 2, so the value is exp(-2 / 2) = exp(-1)
    val = kernel_eval(KernelSpec("gaussian", sigma=1.0), [0.0, 0.0], [1.0, 1.0])
    npt.assert_allclose(val, np.exp(-1.0), rtol=1e-15)
    npt.assert_allclose(val, 0.36787944117144233, rtol=1e-15)


def test_kernel_eval_polynomial():
    val = kernel_eval(KernelSpec("polynomial", degree=3, offset=2.0), [1.0, 2.0], [3.0, 1.0])
    assert val == (5.0 + 2.0) ** 3


def test_kernel_eval_dimension_mismatch():
    with pytest.raises(InvalidData):
        kernel_eval(KernelSpec("linear"), [1.0, 2.0], [1.0])


def test_kernel_spec_validation():
    with pytest.raises(InvalidData):
        KernelSpec("gaussian", sigma=0.0)
    with pytest.raises(InvalidData):
        KernelSpec("polynomial", degree=0)
    with pytest.raises(InvalidData):
        KernelSpec("sigmoid")


@pytest.mark.parametrize("offset", [-1.0, -1e-300, float("nan")])
def test_polynomial_spec_refuses_an_offset_below_zero(offset):
    # A negative offset can make the Gram indefinite; the sign iteration's
    # finite termination needs it positive semidefinite.
    with pytest.raises(InvalidData, match="^polynomial offset must be non-negative, got "):
        KernelSpec("polynomial", offset=offset)


@pytest.mark.parametrize("family", ["linear", "gaussian", "polynomial"])
@pytest.mark.parametrize("field, value", [("sigma", np.inf), ("sigma", np.nan),
                                          ("offset", np.inf), ("offset", -np.inf)])
def test_spec_refuses_a_non_finite_sigma_or_offset_for_every_family(family, field, value):
    # Model files store both fields whatever the family, and read back finite numbers only.
    with pytest.raises(InvalidData):
        KernelSpec(family, **{field: value})


@pytest.mark.parametrize("family", ["linear", "gaussian", "polynomial"])
@pytest.mark.parametrize("field, value", [("sigma", "2"), ("sigma", None), ("degree", "3"),
                                          ("degree", None), ("offset", "1"), ("offset", None),
                                          ("sigma", 10**400), ("degree", 10**400),
                                          ("offset", 10**400), ("offset", -10**400)])
def test_spec_refuses_a_field_that_is_no_float_number_for_every_family(family, field, value):
    # Refused before the family checks compare the field, with the same message everywhere.
    with pytest.raises(InvalidData, match=rf"^kernel {field} must be a finite number, got "):
        KernelSpec(family, **{field: value})


@pytest.mark.parametrize("family, message", [("gaussian", "gaussian width must be positive"),
                                             ("linear", "kernel sigma must be a finite number")])
def test_spec_keeps_the_family_message_for_a_nan_width(family, message):
    with pytest.raises(InvalidData, match=f"^{message}, got nan$"):
        KernelSpec(family, sigma=float("nan"))


def test_gram_linear_identity_rows():
    K = gram(KernelSpec("linear"), raw_dataset(np.eye(2)))
    npt.assert_allclose(K.entries, np.eye(2))


def test_gram_gaussian_unit_diagonal():
    rng = np.random.default_rng(5)
    data = standardize(rng.standard_normal((7, 3)))
    K = gram(KernelSpec("gaussian", sigma=1.7), data)
    npt.assert_allclose(np.diag(K.entries), 1.0, rtol=1e-15)
    assert np.all(K.entries > 0) and np.all(K.entries <= 1.0)


def test_gram_linear_matches_independent_multiply():
    rng = np.random.default_rng(6)
    data = standardize(rng.standard_normal((5, 3)))
    K = gram(KernelSpec("linear"), data)
    expected = data.values @ data.values.T  # independent route
    npt.assert_allclose(K.entries, expected, atol=1e-12)


@pytest.mark.parametrize("family,sigma", [("linear", 1.0), ("gaussian", 1.3), ("polynomial", 1.0)])
def test_gram_exactly_symmetric(family, sigma):
    rng = np.random.default_rng(7)
    data = standardize(rng.standard_normal((11, 4)))
    K = gram(KernelSpec(family, sigma=sigma), data)
    assert np.abs(K.entries - K.entries.T).max() == 0.0


@pytest.mark.parametrize("family,sigma", [("linear", 1.0), ("gaussian", 1.3), ("polynomial", 1.0)])
def test_one_product_gram_is_exactly_symmetric_and_equals_gram_off_the_gaussian(family, sigma):
    rng = np.random.default_rng(7)
    data = standardize(rng.standard_normal((40, 6)))
    spec = KernelSpec(family, sigma=sigma)
    K = kernel._gram(spec, data)
    assert np.abs(K.entries - K.entries.T).max() == 0.0
    assert K.data is data and K.spec == spec
    if family == "gaussian":
        # The norm expansion: within rounding of the explicit differences.
        npt.assert_allclose(K.entries, gram(spec, data).entries, rtol=1e-13, atol=0)
    else:
        assert np.array_equal(K.entries, gram(spec, data).entries)


@pytest.mark.parametrize("build", [gram, kernel._gram], ids=["gram", "one-product"])
def test_gram_refuses_n_over_the_cap_before_evaluating(monkeypatch, build):
    def no_evaluation(*args):
        raise AssertionError("kernel evaluated past the cap")

    monkeypatch.setattr(kernel, "MAX_GRAM_SIZE", 5)
    monkeypatch.setattr(kernel, "_pairwise", no_evaluation)
    monkeypatch.setattr(kernel, "_gaussian", no_evaluation)
    data = standardize(np.random.default_rng(3).standard_normal((6, 2)))
    for spec in (KernelSpec("linear"), KernelSpec("gaussian", sigma=2.0)):
        with pytest.raises(InvalidData, match=r"^n=6 exceeds the dense Gram cap of 5$"):
            build(spec, data)


def test_gram_positive_semidefinite_within_tolerance():
    for seed, family in [(8, "linear"), (9, "gaussian"), (10, "polynomial")]:
        rng = np.random.default_rng(seed)
        data = standardize(rng.standard_normal((10, 3)))
        K = gram(KernelSpec(family, sigma=2.0, degree=2), data)
        min_eig = np.linalg.eigvalsh(K.entries).min()
        assert min_eig >= -1e-8 * np.abs(K.entries).max()


def test_cross_gram_of_train_with_itself_equals_gram():
    rng = np.random.default_rng(11)
    data = standardize(rng.standard_normal((6, 2)))
    spec = KernelSpec("gaussian", sigma=1.1)
    K = gram(spec, data)
    G = cross_gram(spec, data, data)
    npt.assert_allclose(G, K.entries, atol=1e-12)


def test_cross_gram_single_query_row_matches_gram_column():
    rng = np.random.default_rng(12)
    vals = rng.standard_normal((5, 3))
    train = raw_dataset(vals)
    K = gram(KernelSpec("linear"), train)
    query = raw_dataset(vals[2:3])
    G = cross_gram(KernelSpec("linear"), train, query)
    npt.assert_allclose(G[0], K.entries[:, 2], atol=1e-12)


def test_cross_gram_matches_scalar_kernel_loop():
    rng = np.random.default_rng(13)
    train = raw_dataset(rng.standard_normal((4, 2)))
    query = raw_dataset(rng.standard_normal((3, 2)))
    spec = KernelSpec("gaussian", sigma=0.9)
    G = cross_gram(spec, train, query)
    for i in range(3):
        for j in range(4):
            expected = kernel_eval(spec, query.values[i], train.values[j])
            npt.assert_allclose(G[i, j], expected, rtol=1e-12)


def test_cross_gram_dimension_mismatch():
    with pytest.raises(InvalidData):
        cross_gram(KernelSpec("linear"), raw_dataset(np.ones((3, 2))), raw_dataset(np.ones((2, 3))))


def test_dataset_arrays_are_frozen():
    data = standardize(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValueError):
        data.values[0, 0] = 9.9


# ------------------------------------------------- tiled kernels vs dense reference

@settings(derandomize=True, deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 40), m=st.integers(1, 30), d=st.integers(1, 12),
       sigma=st.floats(0.05, 50.0), tile_bytes=st.integers(1, 4096),
       seed=st.integers(0, 2**32 - 1))
def test_tiled_kernels_equal_dense_reference(monkeypatch, n, m, d, sigma, tile_bytes, seed):
    # A small tile forces several row tiles, ragged last tiles and
    # diagonal-block mirrors at small n.
    monkeypatch.setattr(kernel, "_TILE_BYTES", tile_bytes)
    rng = np.random.default_rng(seed)
    train = raw_dataset(rng.standard_normal((n, d)))
    query = raw_dataset(rng.standard_normal((m, d)))
    # The polynomial reference takes its power out of place, the kernel in place.
    for spec in (KernelSpec("linear"), KernelSpec("gaussian", sigma=sigma),
                 KernelSpec("polynomial", degree=1, offset=0.0), KernelSpec("polynomial"),
                 KernelSpec("polynomial", degree=3, offset=0.5)):
        assert np.array_equal(gram(spec, train).entries, dense_gram(spec, train.values))
        if spec.family != "gaussian":  # the gaussian cross-Gram is bounded below
            assert np.array_equal(cross_gram(spec, train, query),
                                  dense_pairwise(spec, query.values, train.values))


@settings(derandomize=True, deadline=None, max_examples=120)
@given(n=st.integers(1, 40), m=st.integers(1, 30), d=st.integers(1, 12),
       sigma=st.floats(0.05, 50.0), scale=st.floats(0.1, 10.0),
       duplicates=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
def test_gaussian_cross_gram_within_expansion_bound_of_dense_reference(n, m, d, sigma, scale,
                                                                       duplicates, seed):
    rng = np.random.default_rng(seed)
    train_values = scale * rng.standard_normal((n, d))
    query_values = scale * rng.standard_normal((m, d))
    # Near-duplicate query rows: ||a-b||^2 is far below ||a||^2 + ||b||^2, so
    # the expansion cancels and may round below zero before its clamp.
    k = min(duplicates, m)
    picks = rng.integers(0, n, size=k)
    query_values[:k] = train_values[picks] * (1.0 + 1e-9 * rng.standard_normal((k, d)))
    spec = KernelSpec("gaussian", sigma=sigma)
    G = cross_gram(spec, raw_dataset(train_values), raw_dataset(query_values))
    G_ref = dense_pairwise(spec, query_values, train_values)
    # Each squared distance, by the expansion or by differences, is within
    # 2(d+2) eps (||a||^2 + ||b||^2) of exact; the exponents then differ by
    # at most delta below, and |e^x - e^y| <= max(e^x, e^y) |x - y|. The 4 eps
    # covers the division and both exps, the subnormal term their absolute
    # rounding where the kernel underflows.
    eps = np.finfo(float).eps
    norms = (query_values**2).sum(axis=1)[:, None] + (train_values**2).sum(axis=1)
    delta = 4 * (d + 2) * eps * norms / (2.0 * sigma**2)
    bound = (delta + 4 * eps) * np.maximum(G, G_ref) + 2 * np.finfo(float).smallest_subnormal
    assert G.shape == G_ref.shape == (m, n)
    assert np.all(np.abs(G - G_ref) <= bound)


@pytest.mark.parametrize("n", [1, 361, 363])
def test_default_tile_gram_equals_dense_reference(n):
    # At the default tile size, n = 363 is the first n whose mirror takes two tiles.
    rng = np.random.default_rng(n)
    data = standardize(rng.standard_normal((n, 40)))
    for spec in (KernelSpec("linear"), KernelSpec("gaussian", sigma=40.0), KernelSpec("polynomial")):
        assert np.array_equal(gram(spec, data).entries, dense_gram(spec, data.values))


def test_gaussian_gram_and_cross_gram_peak_at_one_matrix_plus_a_tile():
    n, m, d = 3000, 2700, 50
    rng = np.random.default_rng(21)
    train = raw_dataset(rng.standard_normal((n, d)))
    query = raw_dataset(rng.standard_normal((m, d)))
    spec = KernelSpec("gaussian", sigma=float(d))
    tracemalloc.start()
    try:
        gram(spec, train)
        gram_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        cross_gram(spec, train, query)
        cross_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gram_peak <= 1.25 * 8 * n * n
    assert cross_peak <= 1.25 * 8 * m * n


def test_polynomial_gram_peaks_at_one_matrix_plus_a_tile():
    n, d = 1500, 20
    data = raw_dataset(np.random.default_rng(22).standard_normal((n, d)))
    tracemalloc.start()
    try:
        gram(KernelSpec("polynomial", degree=3), data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 8 * n * n
