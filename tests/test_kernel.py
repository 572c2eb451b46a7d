import numpy as np
import numpy.testing as npt
import pytest

from conftest import raw_dataset
from l1kpca import (InvalidData, KernelSpec, cross_gram, gram, kernel_eval, standardize,
                    standardize_with)


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
