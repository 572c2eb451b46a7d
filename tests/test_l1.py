import collections
import itertools
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (deflation_chain, instance_rows, iterate_batch_reference, make_instance,
                      raw_dataset, raw_gram, row_sum_start, sign_update, train_scores)
from l1kpca import (DegenerateComponent, FitOptions, GramMatrix, InvalidData, KernelSpec,
                    NonConvergence, build_detector, cross_gram, deflate, fit, fit_component,
                    gram, l2_fit, standardize, standardize_with, total_explained_variation,
                    transform)
from l1kpca import kernel, l1, l2
from l1kpca.kernel import DeflatedGram, LinearFactor
from l1kpca.l1 import (ComponentModel, ConvergenceReport, KpcaModel, chain_scores, _iterate_batch,
                       _zero_band, random_starts, validate_sign_vector)
from l1kpca.l2 import EigenModel


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


def test_fit_component_nonconvergence_carries_report(monkeypatch):
    data, K = make_instance(7, n=40, d=6)
    c0 = (np.random.default_rng(1).integers(0, 2, 40) * 2 - 1).astype(float)
    full = fit_component(K, c0)
    assert full.report.iterations > 1
    monkeypatch.setattr(l1, "MAX_ITER", 1)
    with pytest.raises(NonConvergence) as info:
        fit_component(K, c0)
    assert info.value.report.terminated_by == "max_iter"
    assert info.value.report.iterations == 1
    assert len(info.value.report.norm_trace) == 1


# ------------------------------------------------------------- _iterate_batch

def bits(x):
    """The float64 bytes of a number or list, so that NaN equals NaN and -0.0 differs from 0.0."""
    return np.asarray(x, dtype=float).tobytes()


def assert_records_identical(got, want):
    assert len(got) == len(want)
    for (c, objective, report), (c_ref, objective_ref, report_ref) in zip(got, want):
        assert bits(c) == bits(c_ref)
        assert bits(objective) == bits(objective_ref)
        assert report.iterations == report_ref.iterations
        assert report.terminated_by == report_ref.terminated_by
        assert bits(report.norm_trace) == bits(report_ref.norm_trace)
        assert bits(report.rate_estimates) == bits(report_ref.rate_estimates)
        assert bits(report.lagrange_multiplier) == bits(report_ref.lagrange_multiplier)
        assert report.zero_band_hits == report_ref.zero_band_hits


def batch_instance(family, n, d, dup, width, degree, negated, starts, seed):
    """A Gram with dup duplicated rows and starts columns: fit's all-ones start
    with its first `negated` entries flipped, then seeded random starts."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    dup = min(dup, n // 2)
    X[:dup] = X[n - dup:]
    spec = KernelSpec(family, sigma=width * d, degree=degree, offset=1.0)
    K = gram(spec, kernel.standardize(X))
    tol_zero = _zero_band(K)
    c0 = np.ones(n)
    c0[:negated] = -1.0
    return K, np.column_stack([c0, random_starts(n, starts - 1, seed)]), tol_zero


@settings(derandomize=True, deadline=None, max_examples=300)
@given(family=st.sampled_from(["linear", "gaussian", "polynomial"]),
       n=st.integers(2, 80), d=st.integers(1, 6), dup=st.integers(0, 40),
       width=st.sampled_from([0.5, 5.0, 50.0]), degree=st.integers(1, 3),
       negated=st.integers(0, 80), starts=st.sampled_from([1, 3, 8]),
       capped=st.booleans(), seed=st.integers(0, 2**16))
def test_iterate_batch_matches_the_column_at_a_time_reference_bit_for_bit(
        family, n, d, dup, width, degree, negated, starts, capped, seed):
    K, C0, tol_zero = batch_instance(family, n, d, dup, width, degree, negated, starts, seed)
    # A cap of one pass leaves every column that is not yet fixed with a max_iter record.
    with mock.patch.object(l1, "MAX_ITER", 1 if capped else l1.MAX_ITER):
        assert_records_identical(_iterate_batch(K, C0, tol_zero),
                                 iterate_batch_reference(K, C0, tol_zero))


def test_batch_instances_reach_every_path_of_the_iteration():
    # The instances above take the row patch, the heavy-flip recompute, the
    # zero band and the pass cap; each is asserted here on a fixed instance.
    paths = collections.Counter()
    K, C0, tol_zero = batch_instance("polynomial", 60, 4, 10, 1.0, 2, 30, 8, seed=5)
    records = iterate_batch_reference(K, C0, tol_zero, paths)
    assert paths["patch"] > 0 and paths["recompute"] > 0
    assert_records_identical(_iterate_batch(K, C0, tol_zero), records)
    # Standardized linear data: K @ 1 is zero, so the all-ones start stays in the band.
    K, C0, tol_zero = batch_instance("linear", 30, 3, 0, 1.0, 1, 0, 3, seed=2)
    records = iterate_batch_reference(K, C0, tol_zero)
    assert records[0][2].zero_band_hits == 30
    assert_records_identical(_iterate_batch(K, C0, tol_zero), records)
    with mock.patch.object(l1, "MAX_ITER", 1):
        records = iterate_batch_reference(K, C0, tol_zero)
        assert [r.terminated_by for _, _, r in records].count("max_iter") > 0
        assert_records_identical(_iterate_batch(K, C0, tol_zero), records)


def start_instance(family, form, n, d, shift, degree, deflations, seed):
    """A kernel form of shifted rows, deflated by up to `deflations` seeded sign vectors,
    and the zero band of the undeflated form, the band fit uses for every component."""
    X = np.random.default_rng(seed).standard_normal((n, d)) + shift
    spec = KernelSpec(family, sigma=float(d), degree=degree, offset=1.0 if degree % 2 else 0.0)
    data = raw_dataset(X)
    K = (LinearFactor(values=data.values, spec=spec, data=data) if form == "factor"
         else gram(spec, data))
    K = DeflatedGram(K) if form == "implicit" else K
    tol_zero = _zero_band(K)
    for c in random_starts(n, deflations, seed).T:
        try:
            K = deflate(K, c)
        except DegenerateComponent:  # the kernel's rank is used up
            break
    return K, tol_zero


@settings(derandomize=True, deadline=None, max_examples=300)
@given(family=st.sampled_from(["linear", "gaussian", "polynomial"]),
       form=st.sampled_from(["dense", "factor", "implicit"]),
       n=st.integers(2, 60), d=st.integers(1, 6), shift=st.sampled_from([0.0, 0.3, 2.0]),
       degree=st.integers(1, 3), deflations=st.integers(0, 3), seed=st.integers(0, 2**16))
def test_one_pass_from_all_ones_is_the_row_sum_start(family, form, n, d, shift, degree,
                                                     deflations, seed):
    # A linear factor stands for a linear Gram only.
    K, tol_zero = start_instance("linear" if form == "factor" else family, form, n, d, shift,
                                 degree, deflations, seed)
    ones, reference = np.ones((n, 1)), row_sum_start(K, tol_zero)
    with mock.patch.object(l1, "MAX_ITER", 1):
        [(first, _, _)] = _iterate_batch(K, ones, tol_zero)
    assert bits(first) == bits(reference)

    [(c, objective, report)] = _iterate_batch(K, ones, tol_zero)
    [(c_ref, objective_ref, report_ref)] = _iterate_batch(K, reference[:, None], tol_zero)
    assert bits(c) == bits(c_ref)
    assert report.terminated_by == report_ref.terminated_by == "sign_fixed"
    if np.all(reference == 1.0):
        assert_records_identical([(c, objective, report)], [(c_ref, objective_ref, report_ref)])
    else:
        # The extra pass is the one from the all-ones vector to the reference start.
        assert report.iterations == report_ref.iterations + 1


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


@pytest.mark.parametrize("family", ["linear", "gaussian", "polynomial"])
def test_deflate_equals_out_of_place_formula(family):
    data, K = make_instance(302, n=50, d=4, family=family)
    c = random_starts(50, 1, seed=302)[:, 0]
    v = K.entries @ c
    expected = K.entries - np.outer(v, v) / float(c @ v)
    assert np.array_equal(deflate(K, c).entries, expected)


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
    model = fit(K, 2, FitOptions(starts=8, seed=3))
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


def dense_reference_fit(K, p, opts):
    """The dense path: each start solved alone, K deflated by deflate()."""
    components = []
    for j in range(p):
        starts = np.column_stack([np.ones(K.n),
                                  random_starts(K.n, opts.starts - 1, seed=[opts.seed, j])])
        candidates = []
        for c0 in starts.T:
            try:
                candidates.append(fit_component(K, c0))
            except (DegenerateComponent, NonConvergence):
                pass
        best = max(candidates, key=lambda comp: comp.objective)  # ties: first start
        components.append(best)
        K = deflate(K, best.sign_vector)
    return components


@pytest.mark.parametrize("family", ["linear", "gaussian", "polynomial"])
def test_fit_equals_dense_reference_fit(family):
    data, K = make_instance(800, n=40, d=6, family=family, sigma=3.0)
    opts = FitOptions(starts=8, seed=5)
    model = fit(K, 6, opts)
    reference = dense_reference_fit(K, 6, opts)
    for comp, ref in zip(model.components, reference):
        npt.assert_array_equal(comp.sign_vector, ref.sign_vector)
        assert comp.objective == ref.objective
        npt.assert_array_equal(comp.train_scores, ref.train_scores)


@pytest.mark.parametrize("family", ["linear", "gaussian"])
def test_multistart_fit_is_consistent_with_dense_deflation_chain(family):
    data, K = make_instance(801, n=40, d=6, family=family)
    model = fit(K, 5, FitOptions(starts=8, seed=2))
    chain = deflation_chain(K, model)
    for j, comp in enumerate(model.components):
        c = comp.sign_vector
        v = chain[j] @ c
        assert comp.objective == float(c @ v)
        npt.assert_array_equal(comp.train_scores, v / np.sqrt(comp.objective))
        npt.assert_array_equal(sign_update(GramMatrix(entries=chain[j]), c), c)


def assert_every_component_is_a_fixed_point(K, model):
    """Each component stopped on sign_fixed and c_i (K_j c)_i >= -band on its deflated K_j."""
    tol_zero = l1._zero_band(K)
    for Kj, comp in zip(deflation_chain(K, model), model.components):
        assert comp.report.terminated_by == "sign_fixed"
        c = comp.sign_vector
        assert np.all(c * (Kj @ c) >= -tol_zero)


@pytest.mark.parametrize("seed", [0, 5, 7, 11, 16, 20])
def test_every_component_of_fit_is_a_fixed_point_of_its_deflated_gram(seed):
    # Duplicated rows under a very wide gaussian leave late components with
    # objectives near 1e-9 * max|K|; each must still be a true fixed point.
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((30, 3))
    X[:10] = X[10:20]
    K = gram(KernelSpec("gaussian", sigma=900.0), kernel.standardize(X))
    assert_every_component_is_a_fixed_point(K, fit(K, 6, FitOptions(starts=8, seed=seed)))


def fit_within_rank(K, p, opts):
    """fit(K, p, opts), or the components before the first one past the kernel's rank."""
    try:
        return fit(K, p, opts)
    except DegenerateComponent as exc:
        j = int(str(exc).split(":")[0].removeprefix("component "))
        assume(j > 0)
        return fit(K, j, opts)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(family=st.sampled_from(["linear", "gaussian", "polynomial"]),
       n=st.sampled_from([12, 20, 30]), d=st.integers(1, 5), dup=st.integers(0, 15),
       width=st.sampled_from([0.5, 5.0, 50.0, 150.0, 300.0, 500.0]),
       degree=st.integers(1, 3), offset=st.floats(0.0, 2.0),
       p=st.integers(4, 6), seed=st.integers(0, 2**16))
def test_fit_returns_only_fixed_points_on_psd_kernels(family, n, d, dup, width, degree,
                                                      offset, p, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    dup = min(dup, n // 2)
    X[:dup] = X[n - dup:]
    spec = KernelSpec(family, sigma=width * d, degree=degree, offset=offset)
    K = gram(spec, kernel.standardize(X))
    assert_every_component_is_a_fixed_point(
        K, fit_within_rank(K, p, FitOptions(starts=8, seed=seed)))


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_polynomial_kernel_with_offset_zero_fits_to_fixed_points(degree):
    data, _ = make_instance(804, n=25, d=4)
    K = gram(KernelSpec("polynomial", degree=degree, offset=0.0), data)
    assert_every_component_is_a_fixed_point(K, fit(K, 3, FitOptions(starts=8, seed=3)))


def test_fit_component_count_validation(two_point_gram):
    with pytest.raises(InvalidData):
        fit(two_point_gram, 0)
    with pytest.raises(InvalidData):
        fit(two_point_gram, 3)


@pytest.mark.parametrize("starts", [0, -3])
def test_fit_options_reject_start_count_below_one(starts):
    with pytest.raises(InvalidData, match=rf"^start count {starts} must be at least 1$"):
        FitOptions(starts=starts)


@pytest.mark.parametrize("seed", [-1, -2**40])
def test_fit_options_reject_a_negative_seed(seed):
    # numpy's SeedSequence takes non-negative entropy only.
    with pytest.raises(InvalidData, match=rf"^seed {seed} must be at least 0$"):
        FitOptions(seed=seed)


@pytest.mark.parametrize("field, value", [("starts", 2.5), ("starts", True), ("seed", 1.5),
                                          ("seed", True)])
def test_fit_options_refuse_a_start_count_or_seed_that_is_not_an_integer(field, value):
    name = {"starts": "start count", "seed": "seed"}[field]
    with pytest.raises(InvalidData, match=rf"^{name} {value} must be an integer$"):
        FitOptions(**{field: value})


def test_fit_options_take_numpy_integers(two_point_gram):
    options = FitOptions(starts=np.int64(3), seed=np.int64(4))
    assert fit(two_point_gram, 1, options).components[0].objective == 5.0


def test_fit_single_start_on_standardized_linear_data_is_degenerate_at_component_0():
    # K @ 1 vanishes on standardized columns, so the all-ones start is fixed in the zero band.
    _, K = make_instance(42, n=12, d=3)
    with pytest.raises(DegenerateComponent,
                       match=r"^component 0: objective \S+ is numerically zero at termination$"):
        fit(K, 2, FitOptions(starts=1))


def test_fit_nonconvergence_carries_component_index_and_report(monkeypatch):
    # An odd polynomial kernel: the all-ones start is not a fixed point.
    data, _ = make_instance(7, n=40, d=6)
    K = gram(KernelSpec("polynomial", degree=3, offset=0.0), data)
    monkeypatch.setattr(l1, "MAX_ITER", 1)
    for starts in (1, 8):
        with pytest.raises(NonConvergence,
                           match=r"^component 0: no fixed point after 1 iterations$") as info:
            fit(K, 2, FitOptions(starts=starts))
        report = info.value.report
        assert report.terminated_by == "max_iter" and report.iterations == 1
        assert len(report.norm_trace) == 1 and np.isnan(report.lagrange_multiplier)


def test_fit_deflates_through_the_module_binding(monkeypatch):
    # Tracing tools wrap l1.deflate; fit must call it once between components.
    calls = []

    def counting_deflate(gram_matrix, c):
        calls.append(c)
        return deflate(gram_matrix, c)

    monkeypatch.setattr(l1, "deflate", counting_deflate)
    _, K = make_instance(803, n=30, d=6, family="gaussian")
    model = fit(K, 4, FitOptions(starts=4, seed=1))
    assert len(calls) == 3
    for comp, c in zip(model.components, calls):
        npt.assert_array_equal(comp.sign_vector, c)


def test_fit_degenerate_error_carries_component_index():
    # rank-1 data: the second component has nothing left to extract
    vals = np.outer([1.0, 2.0, -1.0, 0.5], [1.0, -2.0])
    data = raw_dataset(vals)
    K = gram(KernelSpec("linear"), data)
    with pytest.raises(DegenerateComponent) as info:
        fit(K, 3, FitOptions(starts=8, seed=0))
    assert "component" in str(info.value)


@pytest.mark.parametrize("seed", range(5))
def test_fit_past_the_kernel_rank_raises_degenerate_component(seed):
    # A standardized 14 x 5 linear kernel has rank 5: the zero band scales
    # with the undeflated kernel, so the 6th component's noise is refused.
    _, K = make_instance(seed, n=14, d=5)
    assert fit(K, 5, FitOptions(seed=seed)).n_components == 5
    with pytest.raises(DegenerateComponent, match="component 5"):
        fit(K, 6, FitOptions(seed=seed))


# ----------------------------------------------------------------- transform

def test_transform_on_training_data_reproduces_train_scores():
    for family in ("linear", "gaussian"):
        data, K = make_instance(600, n=12, d=4, family=family, sigma=2.0)
        model = fit(K, 3, FitOptions(starts=8, seed=2))
        T = transform(model, instance_rows(600, 12, 4))
        npt.assert_allclose(T, model.training_scores(), atol=1e-9)


def test_transform_single_query_row_matches_train_score():
    data, K = make_instance(601, n=9, d=3)
    model = fit(K, 1, FitOptions(starts=8, seed=0))
    T = transform(model, instance_rows(601, 9, 3)[4:5])
    npt.assert_allclose(T[0, 0], model.components[0].train_scores[4], atol=1e-12)


def test_transform_chain_matches_explicit_feature_space_projection():
    # linear kernel: loadings are explicit input-space vectors, so scores
    # can be recomputed by deflating the feature matrices directly
    data, K = make_instance(602, n=10, d=4)
    model = fit(K, 2, FitOptions(starts=8, seed=4))
    query = np.random.default_rng(603).standard_normal((3, 4))

    A = data.values.copy()
    Q = (query - data.column_means) / data.column_stds
    explicit = np.empty((3, 2))
    for j, comp in enumerate(model.components):
        u = A.T @ comp.sign_vector / np.sqrt(comp.objective)
        explicit[:, j] = Q @ u
        A = A - np.outer(A @ u, u)
        Q = Q - np.outer(Q @ u, u)

    npt.assert_allclose(transform(model, query), explicit, atol=1e-9)


@pytest.mark.parametrize("family", ["linear", "gaussian", "polynomial"])
def test_transform_standardizes_raw_rows_once_with_the_training_statistics(family):
    # Raw rows off the training scale: transform maps them with the model's
    # recorded means and stds, then scores them in one tile, for both kinds.
    data = standardize(instance_rows(615, 11, 3) * [1.0, 40.0, 0.01] + [5.0, -300.0, 0.2])
    K = gram(KernelSpec(family, sigma=3.0), data)
    raw = instance_rows(616, 6, 3) * [2.0, 30.0, 0.02] + [4.0, -290.0, 0.1]
    query = standardize_with(raw, data.column_means, data.column_stds)
    for model in (fit(K, 2, FitOptions(starts=8, seed=0)), l2_fit(K, 2)):
        npt.assert_array_equal(transform(model, raw),
                               model.scores(cross_gram(model.spec, data, query)))


def test_transform_rejects_feature_mismatch():
    data, K = make_instance(604, n=6, d=3)
    model = fit(K, 1, FitOptions(starts=8, seed=0))
    with pytest.raises(InvalidData):
        transform(model, np.ones((2, 5)))


def test_transform_refuses_a_query_on_which_the_kernel_overflows():
    # (a.b + 1)^3 passes the float range on a row holding 1e200: the scores
    # would be NaN, so the query is refused, with no float warning on the way.
    raw = instance_rows(613, 12, 3)
    data = standardize(raw)
    K = gram(KernelSpec("polynomial", degree=3), data)
    query = raw[:4].copy()
    query[1, 0] = 1e200
    for model in (fit(K, 2, FitOptions(starts=8, seed=0)), l2_fit(K, 2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidData, match="^the polynomial kernel gives non-finite "
                                                  "values on this query data$"):
                transform(model, query)
            assert np.all(np.isfinite(transform(model, np.delete(query, 1, axis=0))))


def test_transform_rejects_model_whose_training_rows_disagree_with_its_components():
    data, K = make_instance(612, n=8, d=3)
    model = replace(fit(K, 2, FitOptions(starts=8, seed=0)),
                    train_ref=raw_dataset(np.ones((9, 3))))
    with pytest.raises(InvalidData, match="expected matrix with 8 columns"):
        transform(model, data.values)


@pytest.mark.parametrize("family", ["linear", "gaussian", "polynomial"])
def test_models_take_their_training_data_from_the_gram(family):
    data = standardize(np.random.default_rng(613).standard_normal((10, 3)))
    K = gram(KernelSpec(family, sigma=3.0), data)
    assert K.data is data
    assert fit(K, 2, FitOptions(starts=8, seed=0)).train_ref is data
    assert l2_fit(K, 2).train_ref is data


def test_models_of_deflated_or_hand_built_grams_cannot_score():
    data, K = make_instance(614, n=10, d=3, family="gaussian")
    deflated = deflate(K, fit(K, 1, FitOptions(starts=8, seed=0)).components[0].sign_vector)
    assert deflated.data is None
    for G in (deflated, GramMatrix(entries=K.entries, spec=K.spec)):
        for model in (fit(G, 1, FitOptions(starts=8, seed=0)), l2_fit(G, 1)):
            assert model.train_ref is None
            with pytest.raises(InvalidData, match="^model carries no training data"):
                transform(model, data.values)


def test_chain_scores_matches_transform():
    data, K = make_instance(605, n=8, d=3)
    model = fit(K, 2, FitOptions(starts=8, seed=0))
    G = cross_gram(model.spec, data, data)
    npt.assert_allclose(chain_scores(model.components, G),
                        transform(model, instance_rows(605, 8, 3)), atol=0)


def replayed_chain_scores(components, cross):
    """Reference: deflate a copy of the cross-Gram by each component in turn."""
    G = np.array(cross, dtype=float)
    cols = []
    for comp in components:
        q = (G @ comp.sign_vector) / np.sqrt(comp.objective)
        cols.append(q)
        G -= np.outer(q, comp.train_scores)
    return np.column_stack(cols)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(family=st.sampled_from(["linear", "gaussian", "polynomial"]),
       n=st.integers(2, 30), d=st.integers(1, 6), m=st.integers(1, 12),
       p=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_chain_scores_match_sequential_cross_gram_deflation(family, n, d, m, p, seed):
    data, K = make_instance(seed, n=n, d=d, family=family)
    p = min(p, n, d) if family == "linear" else min(p, n)
    try:
        model = fit(K, p, FitOptions(starts=4, seed=seed))
    except DegenerateComponent:
        return  # a kernel of lower rank than p has nothing to score
    query = raw_dataset(np.random.default_rng(seed).standard_normal((m, d)))
    G = cross_gram(model.spec, data, query)
    expected = replayed_chain_scores(model.components, G)
    npt.assert_allclose(chain_scores(model.components, G), expected,
                        rtol=0, atol=1e-10 * np.abs(expected).max())


@settings(derandomize=True, deadline=None, max_examples=60)
@given(family=st.sampled_from(["linear", "gaussian", "polynomial"]),
       n=st.integers(2, 30), d=st.integers(1, 6), m=st.integers(1, 12),
       p=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_projection_of_both_kinds_matches_sequential_scoring(family, n, d, m, p, seed):
    data, K = make_instance(seed, n=n, d=d, family=family)
    p = min(p, n)
    query = raw_dataset(np.random.default_rng(seed).standard_normal((m, d)))
    G = cross_gram(K.spec, data, query)
    models = []
    try:
        models.append((fit(K, p, FitOptions(starts=4, seed=seed)),
                       lambda model, k: replayed_chain_scores(model.components[:k], G)))
    except DegenerateComponent:
        pass  # a kernel of lower rank than p has no L1 model of p components
    l2_model = l2_fit(K, p)
    keep = l2_model.eigenvalues > 0  # scoring refuses zero eigenvalues
    l2_model = EigenModel(eigenvalues=l2_model.eigenvalues[keep],
                          coefficient_vectors=l2_model.coefficient_vectors[:, keep], spec=K.spec)
    if l2_model.n_components:
        models.append((l2_model, lambda model, k: (G @ model.coefficient_vectors[:, :k])
                       / np.sqrt(model.eigenvalues[:k])))
    for model, sequential in models:
        W = model.projection()
        assert W.shape == (n, model.n_components)
        Y = model.training_scores()
        npt.assert_allclose(K.entries @ W, Y, rtol=0, atol=1e-10 * np.abs(Y).max())
        for k in range(1, model.n_components + 1):
            npt.assert_allclose(model.projection(k), W[:, :k],
                                rtol=0, atol=1e-12 * np.abs(W[:, :k]).max())
            expected = sequential(model, k)
            npt.assert_allclose(G @ model.projection(k), expected,
                                rtol=0, atol=1e-10 * np.abs(expected).max())


def test_transform_builds_the_projection_once_per_call(monkeypatch):
    data, models = fitted_models()
    monkeypatch.setattr(kernel, "_TILE_BYTES", 8 * data.n_samples)  # one-row tiles
    query = np.random.default_rng(611).standard_normal((7, data.n_features))
    for model in models:
        calls = []

        def projection(p=None, _build=model.projection):
            calls.append(p)
            return _build(p)

        monkeypatch.setattr(model, "projection", projection)
        assert transform(model, query).shape == (7, 3)  # seven one-row tiles
        assert calls == [None]


def fitted_models(n=13, d=4, p=3):
    """An L1 and an L2 model of one gaussian instance, both carrying the training data."""
    data, K = make_instance(608, n=n, d=d, family="gaussian", sigma=2.0)
    return data, (fit(K, p, FitOptions(starts=4, seed=0)), l2_fit(K, p))


@pytest.mark.parametrize("tile_rows,m", [(1, 7), (3, 10), (4, 12), (None, 10), (1, 1), (None, 1)])
def test_transform_query_tiles_equal_one_cross_gram(monkeypatch, tile_rows, m):
    # One-row tiles, a ragged last tile, even tiles, the default single tile, one query row.
    data, models = fitted_models()
    if tile_rows is not None:
        monkeypatch.setattr(kernel, "_TILE_BYTES", 8 * data.n_samples * tile_rows)
    raw = np.random.default_rng(609).standard_normal((m, data.n_features))
    query = standardize_with(raw, data.column_means, data.column_stds)
    for model in models:
        expected = model.scores(cross_gram(model.spec, data, query))
        # A tile's G @ C may take another BLAS blocking than the whole product.
        npt.assert_allclose(transform(model, raw), expected,
                            rtol=0, atol=1e-12 * np.abs(expected).max())


def test_transform_peak_memory_is_one_query_tile_plus_scores():
    # The m x n cross-Gram alone would be 72 MB; the standardized query is 1.2 MB.
    n = m = 3000
    d, p = 50, 10
    rng = np.random.default_rng(610)
    train = raw_dataset(rng.standard_normal((n, d)))
    query = rng.standard_normal((m, d))
    report = ConvergenceReport(iterations=1, norm_trace=[], terminated_by="sign_fixed",
                               rate_estimates=[], lagrange_multiplier=1.0)
    components = [ComponentModel(sign_vector=np.sign(rng.standard_normal(n)) + 0.0,
                                 objective=float(n), report=report,
                                 train_scores=rng.standard_normal(n)) for _ in range(p)]
    U = np.linalg.qr(rng.standard_normal((n, p)))[0]
    models = (KpcaModel(components=components, spec=KernelSpec("linear"), train_ref=train),
              EigenModel(eigenvalues=np.linspace(2.0, 1.0, p), coefficient_vectors=U,
                         spec=KernelSpec("gaussian", sigma=float(d)), train_ref=train))
    for model in models:
        tracemalloc.start()
        try:
            scores = transform(model, query)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scores.shape == (m, p)
        assert peak <= 16 * 2**20


def test_both_model_kinds_reject_cross_gram_of_wrong_width():
    _, K = make_instance(607, n=10, d=3)
    for model in (fit(K, 2, FitOptions(starts=8, seed=0)), l2_fit(K, 2)):
        for cross in (np.ones((4, 9)), np.ones((4, 11)), np.ones(10)):
            with pytest.raises(InvalidData, match="expected matrix with 10 columns"):
                model.scores(cross)


BAD_COUNTS = [pytest.param(lambda count: -1, id="-1"), pytest.param(lambda count: 0, id="0"),
              pytest.param(lambda count: count + 1, id="count+1"),
              pytest.param(lambda count: 10**9, id="10**9"),
              pytest.param(lambda count: 2.5, id="2.5"), pytest.param(lambda count: 2.0, id="2.0")]


@pytest.mark.parametrize("bad", BAD_COUNTS)
@pytest.mark.parametrize("entry", ["fit", "l2_fit", "top_eigenvalues", "l1 projection",
                                   "l1 scores", "l2 projection", "l2 scores", "l1 tev", "l2 tev"])
def test_every_component_count_outside_one_to_available_is_refused(entry, bad):
    data, models = fitted_models()
    spec, n = models[0].spec, data.n_samples
    K, G = gram(spec, data), cross_gram(spec, data, data)
    calls = {"fit": (lambda p: fit(K, p, FitOptions(starts=1)), n),
             "l2_fit": (lambda p: l2_fit(K, p), n),
             "top_eigenvalues": (lambda p: l2.top_eigenvalues(K.entries, p), n)}
    for kind, model in zip(("l1", "l2"), models):
        calls[f"{kind} projection"] = (model.projection, model.n_components)
        calls[f"{kind} scores"] = (lambda p, model=model: model.scores(G, p), model.n_components)
        calls[f"{kind} tev"] = (lambda p, model=model: total_explained_variation(K, model, G, p),
                                model.n_components)
    call, count = calls[entry]
    p = bad(count)
    with pytest.raises(InvalidData, match=rf"^component count {p} not in \[1, {count}\]$"):
        call(p)


def test_numpy_integer_component_counts_are_accepted():
    data, models = fitted_models()
    K = gram(models[0].spec, data)
    assert fit(K, np.int64(2), FitOptions(starts=4)).n_components == 2
    assert l2_fit(K, np.int32(2)).n_components == 2
    for model in models:
        assert model.projection(np.int64(2)).shape == (data.n_samples, 2)


def test_l1_and_l2_models_share_transform_and_detector():
    data, K = make_instance(606, n=12, d=4, family="gaussian", sigma=2.0)
    raw = instance_rows(606, 12, 4)
    l1_model = fit(K, 3, FitOptions(starts=8, seed=0))
    l2_model = l2_fit(K, 3)
    with pytest.raises(InvalidData):  # a hand-built Gram carries no training data
        transform(l2_fit(GramMatrix(entries=K.entries, spec=K.spec), 3), raw)
    for model in (l1_model, l2_model):
        Y = model.training_scores()
        assert Y.shape == (12, 3)
        npt.assert_allclose(transform(model, raw), Y, atol=1e-9)
        npt.assert_allclose(model.scores(cross_gram(model.spec, data, data), 2),
                            transform(model, raw)[:, :2], rtol=0, atol=1e-12)
        det = build_detector(model)
        npt.assert_array_equal(det.variances, Y.var(axis=0))
        Yr = Y[:, det.retained]
        expected = (Yr * Yr / det.variances[det.retained]).sum(axis=1)
        assert det.scores.tobytes() == expected.tobytes()


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


# ----------------------------------------------------- linear factor form

def linear_forms(seed, n, d, outliers=0, scale=1.0):
    """Standardized continuous rows, as a dense linear Gram and as its factor."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, d))
    raw[:outliers] *= scale
    data = standardize(raw)
    spec = KernelSpec("linear")
    return gram(spec, data), LinearFactor(values=data.values, spec=spec, data=data)


def fit_or_failed_component(K, p, options):
    """fit's model and None, or None and the 'component j' prefix of its DegenerateComponent."""
    try:
        return fit(K, p, options), None
    except DegenerateComponent as exc:
        return None, str(exc).split(":")[0]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(n=st.integers(4, 60), d=st.integers(1, 8), extra=st.integers(0, 2),
       outliers=st.integers(0, 4), scale=st.sampled_from([1.0, 4.0, 30.0]),
       starts=st.sampled_from([1, 3, 8]), seed=st.integers(0, 2**16))
def test_factor_fit_matches_the_dense_fit_up_to_sign(n, d, extra, outliers, scale, starts,
                                                      seed):
    # Standardized data of rank r = min(n - 1, d): a p past r fails at component r.
    K, factor = linear_forms(seed, n, d, outliers, scale)
    p = min(n, min(n - 1, d) + extra)
    options = FitOptions(starts=starts, seed=seed)
    dense, dense_failed = fit_or_failed_component(K, p, options)
    model, failed = fit_or_failed_component(factor, p, options)
    assert failed == dense_failed
    if dense is None:
        return
    assert model.train_ref is factor.data and model.spec == K.spec
    tol_zero, scale = _zero_band(K), dense.components[0].objective
    for comp, ref in zip(model.components, dense.components):
        # An entry whose (K_j c)_i is inside the zero band keeps the sign it
        # had: a row that deflation emptied weighs nothing in K_j, so either
        # sign is the same fixed point. Every other entry agrees up to sign.
        kept = np.abs(ref.train_scores) * np.sqrt(ref.objective) > tol_zero
        c, c_ref = comp.sign_vector[kept], ref.sign_vector[kept]
        assert np.array_equal(c, c_ref) or np.array_equal(c, -c_ref)
        # Relative to the leading objective: the last objective within the
        # rank can sit near rounding of the kernel's scale.
        assert abs(comp.objective - ref.objective) <= 1e-12 * scale
    detector, ref = build_detector(model), build_detector(dense)
    assert detector.retained == ref.retained
    npt.assert_allclose(detector.scores, ref.scores, rtol=1e-12, atol=0)


def test_factor_deflation_is_the_dense_deflation():
    K, factor = linear_forms(811, n=25, d=5, outliers=2, scale=6.0)
    model = fit(K, 3, FitOptions(seed=1))
    for comp in model.components:
        K, factor = deflate(K, comp.sign_vector), deflate(factor, comp.sign_vector)
        assert isinstance(factor, LinearFactor) and factor.data is None
        npt.assert_allclose(factor.values @ factor.values.T, K.entries,
                            rtol=0, atol=1e-12 * np.abs(K.entries).max())
    with pytest.raises(InvalidData, match="not a gaussian one"):
        LinearFactor(values=factor.values, spec=KernelSpec("gaussian"))


def test_factor_fit_deflates_through_the_module_binding(monkeypatch):
    calls = []

    def counting_deflate(gram_matrix, c):
        calls.append(type(gram_matrix))
        return deflate(gram_matrix, c)

    monkeypatch.setattr(l1, "deflate", counting_deflate)
    _, factor = linear_forms(812, n=30, d=6)
    fit(factor, 4, FitOptions(starts=4, seed=1))
    assert calls == [LinearFactor] * 3


def test_factor_fit_memory_is_linear_in_n():
    # At n = 5000 the Gram alone would be 200 MB; the factor fit peaked at 4.2 MB.
    _, factor = linear_forms(813, n=5000, d=10)
    tracemalloc.start()
    try:
        model = fit(factor, 10, FitOptions(seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.n_components == 10
    assert peak <= 8 * 2**20


# ---------------------------------------------------- implicitly deflated Gram

def nonlinear_gram(seed, n, d, family, sigma_scale=1.0, degree=2, offset=1.0, outliers=0,
                   scale=1.0):
    """gram() of standardized continuous rows under a gaussian or polynomial spec."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, d))
    raw[:outliers] *= scale
    spec = KernelSpec(family, sigma=sigma_scale * d, degree=degree, offset=offset)
    return gram(spec, standardize(raw))


def detector_or_refusal(model):
    """build_detector's model and None, or None and its DegenerateComponent message."""
    try:
        return build_detector(model), None
    except DegenerateComponent as exc:
        return None, str(exc)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(n=st.integers(4, 50), d=st.integers(1, 6), p=st.integers(1, 6),
       family=st.sampled_from(["gaussian", "polynomial"]),
       sigma_scale=st.sampled_from([0.5, 1.0, 2.0]), degree=st.integers(1, 3),
       offset=st.sampled_from([0.0, 1.0]), outliers=st.integers(0, 4),
       scale=st.sampled_from([1.0, 4.0]), starts=st.sampled_from([1, 3, 8]),
       seed=st.integers(0, 2**16))
def test_deflated_gram_matches_the_dense_deflation_chain(n, d, p, family, sigma_scale, degree,
                                                        offset, outliers, scale, starts, seed):
    K = nonlinear_gram(seed, n, d, family, sigma_scale, degree, offset, outliers, scale)
    p = min(p, n)
    options = FitOptions(starts=starts, seed=seed)
    dense, dense_failed = fit_or_failed_component(K, p, options)
    model, failed = fit_or_failed_component(DeflatedGram(K), p, options)
    assert failed == dense_failed
    if dense is None:
        return
    assert model.train_ref is K.data and model.spec == K.spec
    tol_zero, lead = _zero_band(K), dense.components[0].objective

    # Every operation the solver asks of K_j, on the dense chain's own sign vectors.
    rng = np.random.default_rng(seed)
    C = random_starts(n, 3, seed)
    delta = 2.0 * rng.choice([-1.0, 1.0], size=max(1, n // 8))
    rows = rng.choice(n, size=delta.size, replace=False)
    atol = 1e-12 * n * np.abs(K.entries).max()
    implicit = DeflatedGram(K)
    for j, entries in enumerate(deflation_chain(K, dense)[:p]):
        assert implicit.scores.shape == (n, j)
        npt.assert_allclose(implicit @ C, entries @ C, rtol=0, atol=atol)
        npt.assert_allclose(implicit.row_patch(delta, rows), delta @ entries[rows],
                            rtol=0, atol=atol)
        # Start 0's first product, K_j 1: the row sums of the dense K_j.
        npt.assert_allclose(implicit @ np.ones(n), entries.sum(axis=1), rtol=0, atol=atol)
        if j + 1 < p:
            implicit = deflate(implicit, dense.components[j].sign_vector)

    for comp, ref in zip(model.components, dense.components):
        # As for the linear factor: entries inside the zero band may keep
        # either sign; every other entry agrees up to sign.
        kept = np.abs(ref.train_scores) * np.sqrt(ref.objective) > tol_zero
        c, c_ref = comp.sign_vector[kept], ref.sign_vector[kept]
        assert np.array_equal(c, c_ref) or np.array_equal(c, -c_ref)
        assert abs(comp.objective - ref.objective) <= 1e-12 * lead
    # A kernel with a constant feature (degree 1, offset 1) can give scores
    # of zero variance, which both detectors refuse.
    detector, refusal = detector_or_refusal(model)
    ref, ref_refusal = detector_or_refusal(dense)
    assert refusal == ref_refusal
    if ref is not None:
        assert detector.retained == ref.retained
        npt.assert_allclose(detector.scores, ref.scores, rtol=1e-10, atol=0)


def test_deflated_gram_refuses_what_the_dense_form_refuses():
    K = nonlinear_gram(820, n=20, d=3, family="gaussian")
    c = fit(K, 1, FitOptions(seed=2)).components[0].sign_vector
    # Deflating by a direction already taken out: c'Kc is rounding noise.
    for form in (K, DeflatedGram(K)):
        with pytest.raises(DegenerateComponent,
                           match=r"^cannot deflate: objective \S+ is numerically zero$"):
            deflate(deflate(form, c), c)
        with pytest.raises(InvalidData, match="sign vector has length 19, expected 20"):
            deflate(form, c[1:])

    with pytest.raises(InvalidData, match=r"expected a square kernel matrix, got shape \(3, 4\)"):
        DeflatedGram(GramMatrix(entries=np.ones((3, 4))))
    spec = KernelSpec("gaussian", sigma=1e-200)
    data = standardize(instance_rows(821, 6, 2))
    with pytest.raises(InvalidData) as dense_refusal:
        gram(spec, data)
    for bad in (np.nan, np.inf, -np.inf):
        entries = np.eye(6)
        entries[2, 4] = entries[4, 2] = bad
        with pytest.raises(InvalidData) as refusal:
            DeflatedGram(GramMatrix(entries=entries, spec=spec))
        assert str(refusal.value) == str(dense_refusal.value)


def test_deflated_gram_fit_deflates_through_the_module_binding(monkeypatch):
    calls = []

    def counting_deflate(gram_matrix, c):
        calls.append(type(gram_matrix))
        return deflate(gram_matrix, c)

    monkeypatch.setattr(l1, "deflate", counting_deflate)
    K = DeflatedGram(nonlinear_gram(822, n=30, d=4, family="polynomial"))
    model = fit(K, 4, FitOptions(starts=4, seed=1))
    assert calls == [DeflatedGram] * 3
    # fit deflates new forms; the one it was given is still K_0. Like a
    # deflated Gram, a deflated form carries no data.
    assert K.scores.shape == (30, 0) and model.train_ref is K.data is not None
    assert deflate(K, model.components[0].sign_vector).data is None


def test_deflated_gram_fit_memory_is_the_gram_plus_o_n_p():
    # Above the caller's 18 MB Gram, this fit peaked at 1.9 MB, and the same
    # fit on the dense GramMatrix at 34.8 MB: two more n x n arrays.
    K = nonlinear_gram(823, n=1500, d=10, family="gaussian")
    tracemalloc.start()
    try:
        model = fit(DeflatedGram(K), 10, FitOptions(seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.n_components == 10
    assert peak <= 8 * 2**20


# ------------------------------------------------------ loading orthogonality

def test_linear_loading_reconstructions_are_orthonormal():
    data, K = make_instance(800, n=20, d=6)
    model = fit(K, 4, FitOptions(starts=8, seed=8))
    A = data.values.copy()
    loadings = []
    for comp in model.components:
        u = A.T @ comp.sign_vector / np.sqrt(comp.objective)
        loadings.append(u)
        A = A - np.outer(A @ u, u)
    U = np.column_stack(loadings)
    npt.assert_allclose(U.T @ U, np.eye(4), atol=1e-8)
