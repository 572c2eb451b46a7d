import itertools
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import make_instance, raw_gram
from l1kpca import (FitOptions, InstanceTooLarge, KernelSpec, enumerate_sign_vectors, fit,
                    fit_component, gram, kernel, maxcut_objective, standardize)


def test_identity_gram_all_vectors_tie_and_all_plus_wins():
    res = enumerate_sign_vectors(raw_gram(np.eye(2)))
    assert res.best_objective == 2.0
    npt.assert_array_equal(res.best_sign, [1.0, 1.0])


def test_two_point_instance(two_point_gram):
    res = enumerate_sign_vectors(two_point_gram)
    npt.assert_array_equal(res.best_sign, [1.0, 1.0])
    assert res.best_objective == 5.0


def test_matches_second_independent_enumeration():
    data, K = make_instance(30, n=10, d=3)
    res = enumerate_sign_vectors(K)
    # dumb loop over all 512 vectors with c_0 = +1, in code order
    best, best_c = -np.inf, None
    count = 0
    for bits in itertools.product([1.0, -1.0], repeat=9):
        c = np.array((1.0,) + bits)
        obj = float(c @ K.entries @ c)
        if obj > best:
            best, best_c = obj, c
        count += 1
    assert count == 512
    npt.assert_allclose(res.best_objective, best, rtol=1e-9)
    npt.assert_array_equal(res.best_sign, best_c)


def test_best_sign_satisfies_fixed_point_condition():
    for seed in range(6):
        data, K = make_instance(31 + seed, n=9, d=3, family="gaussian", sigma=1.5)
        res = enumerate_sign_vectors(K)
        v = K.entries @ res.best_sign
        tol = 1e-12 * 9 * np.abs(K.entries).max()
        strong = np.abs(v) > tol
        npt.assert_array_equal(np.sign(v[strong]), res.best_sign[strong])


def test_oracle_dominates_solver_and_optimum_is_immediate():
    for seed in range(6):
        data, K = make_instance(40 + seed, n=10, d=4)
        res = enumerate_sign_vectors(K)
        model = fit(K, 1, FitOptions(starts=16, seed=seed))
        assert model.components[0].objective <= res.best_objective + 1e-9 * res.best_objective
        comp = fit_component(K, res.best_sign)
        assert comp.report.iterations == 1
        npt.assert_allclose(comp.objective, res.best_objective, rtol=1e-12)


def test_instance_too_large():
    data, K = make_instance(50, n=25, d=3)
    with pytest.raises(InstanceTooLarge, match="^n=25 exceeds enumeration limit 20$"):
        enumerate_sign_vectors(K)


def test_maxcut_all_ones_equals_total_sum():
    data, K = make_instance(51, n=7, d=3, family="gaussian", sigma=2.0)
    val = maxcut_objective(K, np.ones(7))
    npt.assert_allclose(val, K.entries.sum(), rtol=1e-12)


def test_maxcut_identity_two_points():
    val = maxcut_objective(raw_gram(np.eye(2)), [1.0, -1.0])
    assert val == 2.0


def test_maxcut_equals_quadratic_form_on_random_pairs():
    rng = np.random.default_rng(52)
    for seed in range(10):
        data, K = make_instance(60 + seed, n=7, d=3, family="gaussian", sigma=1.2)
        c = (rng.integers(0, 2, 7) * 2 - 1).astype(float)
        direct = float(c @ K.entries @ c)
        npt.assert_allclose(maxcut_objective(K, c), direct, rtol=1e-9)


def test_global_sign_flip_invariance():
    rng = np.random.default_rng(53)
    data, K = make_instance(70, n=8, d=3)
    for _ in range(10):
        c = (rng.integers(0, 2, 8) * 2 - 1).astype(float)
        a = float(c @ K.entries @ c)
        b = float((-c) @ K.entries @ (-c))
        assert a == b


def _gray_code_reference(K):
    """The former oracle: a Gray-code walk with O(n) incremental updates.

    Exact ties go to the vector whose +1 entries come first; the winner's
    value is recomputed in full since the updates drift.
    """
    n = K.shape[0]
    c = np.ones(n)
    v = K @ c
    obj = float(c @ v)
    best_c, best_obj = c.copy(), obj
    for t in range(1, 1 << (n - 1)):
        i = (t & -t).bit_length()
        obj += 4.0 * K[i, i] - 4.0 * c[i] * v[i]
        v -= 2.0 * c[i] * K[:, i]
        c[i] = -c[i]
        if obj > best_obj or (obj == best_obj and tuple(c < 0) < tuple(best_c < 0)):
            best_obj, best_c = obj, c.copy()
    return best_c, float(best_c @ (K @ best_c))


def _code_order_vectors(n):
    """Every sign vector of length n with c_0 = +1, row t for code t (+1 before -1)."""
    tails = np.array(list(itertools.product((1.0, -1.0), repeat=n - 1))).reshape(1 << (n - 1), n - 1)
    return np.hstack((np.ones((len(tails), 1)), tails))


def _code_order_objectives(K):
    """Brute force: the code-order vectors of K's size, and each one's c'Kc."""
    C = _code_order_vectors(K.shape[0])
    return C, np.einsum("ij,ij->i", C @ K, C).tolist()


def _assert_lowest_code_argmax(K, res):
    """The oracle returns the maximizer with the lowest code, and its objective.

    Integer entries keep every objective exact, so ties are real ties.
    """
    C, objectives = _code_order_objectives(K)
    first = objectives.index(max(objectives))
    npt.assert_array_equal(res.best_sign, C[first])
    assert res.best_objective == objectives[first]


def _assert_planted_tie_goes_to_the_lower_code(n, codes):
    """With K = a a' + b b' for the vectors a, b of two codes, exactly a and b maximize.

    Split the entries where a and b agree (A) from those where they differ
    (D): x'Kx = 2 (x_A . a_A)^2 + 2 (x_D . a_D)^2, which only +-a and +-b
    attain in full. The entries are integers, so the two objectives tie
    exactly, and the lower code must win wherever the two codes fall among
    the tiles.
    """
    C = _code_order_vectors(n)
    low, high = sorted(codes)
    K = np.outer(C[low], C[low]) + np.outer(C[high], C[high])
    res = enumerate_sign_vectors(raw_gram(K))
    npt.assert_array_equal(res.best_sign, C[low])
    assert res.best_objective == float(C[high] @ K @ C[high])
    _assert_lowest_code_argmax(K, res)


def _two_codes(data, n):
    return data.draw(st.lists(st.integers(0, (1 << (n - 1)) - 1), min_size=2, max_size=2,
                              unique=True))


def test_blockwise_oracle_equals_gray_code_walk_bit_for_bit():
    rng = np.random.default_rng(54)
    families = ("linear", "gaussian", "polynomial")
    for k in range(300):
        n, d = int(rng.integers(1, 15)), int(rng.integers(1, 7))
        data = standardize(rng.standard_normal((n, d)))
        K = gram(KernelSpec(families[k % 3], sigma=float(d)), data)
        res = enumerate_sign_vectors(K)
        best_c, best_obj = _gray_code_reference(K.entries)
        npt.assert_array_equal(res.best_sign, best_c)
        assert res.best_objective == best_obj


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 8), tile_bytes=st.integers(1, 400), data=st.data())
def test_ties_go_to_the_first_maximizer_in_plus_first_order(monkeypatch, n, tile_bytes, data):
    # Integer entries make every objective exact, so ties are real; a small
    # tile splits the codes into several blocks, often with a ragged last one.
    monkeypatch.setattr(kernel, "_TILE_BYTES", tile_bytes)
    entries = data.draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    A = np.array(entries, dtype=float).reshape(n, n)
    K = np.triu(A) + np.triu(A, 1).T
    res = enumerate_sign_vectors(raw_gram(K))
    _assert_lowest_code_argmax(K, res)
    if n >= 2:
        _assert_planted_tie_goes_to_the_lower_code(n, _two_codes(data, n))


@settings(derandomize=True, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(9, 16), tile_bytes=st.integers(1, 1 << 15), data=st.data())
def test_block_split_equals_materialized_objectives_in_code_order(monkeypatch, n, tile_bytes,
                                                                  data):
    # From n = 9 on the trailing half is 4-7 entries wide, and a small tile
    # covers a few leading patterns at a time, often with a ragged last tile.
    # Integer entries keep every objective exact, so the whole list compares.
    monkeypatch.setattr(kernel, "_TILE_BYTES", tile_bytes)
    entries = data.draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    A = np.array(entries, dtype=float).reshape(n, n)
    K = np.triu(A) + np.triu(A, 1).T
    res = enumerate_sign_vectors(raw_gram(K))
    _assert_lowest_code_argmax(K, res)
    _assert_planted_tie_goes_to_the_lower_code(n, _two_codes(data, n))


@pytest.mark.parametrize("tile_bytes", [1, 1 << 20])
@pytest.mark.parametrize("K, best_sign, objectives", [
    ([[3.0]], [1.0], [3.0]),
    ([[1.0, -2.0], [-2.0, 3.0]], [1.0, -1.0], [0.0, 8.0]),
], ids=["n1", "n2"])
def test_instances_with_an_empty_low_half(monkeypatch, tile_bytes, K, best_sign, objectives):
    # n = 1 and 2 leave no trailing entries, so every code is a leading
    # pattern; tile_bytes = 1 puts each code in its own tile.
    monkeypatch.setattr(kernel, "_TILE_BYTES", tile_bytes)
    K = np.array(K)
    assert _code_order_objectives(K)[1] == objectives
    res = enumerate_sign_vectors(raw_gram(K))
    npt.assert_array_equal(res.best_sign, best_sign)
    assert res.best_objective == max(objectives)
    _assert_lowest_code_argmax(K, res)
    if K.shape[0] == 2:
        _assert_planted_tie_goes_to_the_lower_code(2, [1, 0])


def test_enumeration_memory_is_one_block_at_n_20():
    # One ~1 MB tile of objectives plus the half-size tables (H, L, the
    # cross factor and their bit codes, under 0.3 MB at n = 20).
    data, K = make_instance(55, n=20, d=4, family="gaussian")
    tracemalloc.start()
    try:
        enumerate_sign_vectors(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20
