from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import raw_dataset
from l1kpca import (DegenerateComponent, FitOptions, GramMatrix, InvalidData, KernelSpec,
                    L1KpcaError, SynthConfig, cross_gram, fit, gram, l2_fit, robustness_sweep,
                    runtime_bench, standardize, synth_generate, total_explained_variation)
from l1kpca import experiments, l2
from l1kpca.experiments import _capturable_variation, _sweep_cell
from l1kpca.l1 import KpcaModel


def test_synth_no_corruption_keeps_all_rows():
    noisy, normal, mask = synth_generate(SynthConfig(n=40, d=5, rank=2, r_percent=0, seed=1))
    assert mask.sum() == 0
    npt.assert_array_equal(noisy.values, normal.values)


def test_synth_is_deterministic():
    cfg = SynthConfig(n=30, d=4, rank=2, r_percent=20, seed=9)
    a = synth_generate(cfg)
    b = synth_generate(cfg)
    npt.assert_array_equal(a[0].values, b[0].values)
    npt.assert_array_equal(a[1].values, b[1].values)
    npt.assert_array_equal(a[2], b[2])


def test_synth_corruption_count_and_labels():
    noisy, normal, mask = synth_generate(SynthConfig(n=50, d=4, rank=2, r_percent=13, seed=2))
    assert mask.sum() == int(np.ceil(0.13 * 50))
    npt.assert_array_equal(noisy.labels, mask)
    assert normal.n_samples == 50 - mask.sum()


def test_synth_rank_one_noiseless_matrix_is_numerically_rank_one():
    cfg = SynthConfig(n=25, d=6, rank=1, r_percent=0, dense_noise_std=0.0, seed=3)
    noisy, _, _ = synth_generate(cfg)
    svals = np.linalg.svd(noisy.values, compute_uv=False)
    assert svals[1] <= 1e-8 * svals[0]


def test_synth_config_validation():
    with pytest.raises(InvalidData):
        SynthConfig(n=5, d=3, rank=4)
    with pytest.raises(InvalidData):
        SynthConfig(r_percent=100)
    with pytest.raises(InvalidData, match=r"^seed -1 must be at least 0$"):
        SynthConfig(seed=-1)


# ------------------------------------------------- total explained variation

def test_tev_is_exactly_100_for_l2_on_identical_data():
    noisy, normal, _ = synth_generate(SynthConfig(n=30, d=5, rank=3, r_percent=0, seed=4))
    spec = KernelSpec("linear")
    K = gram(spec, normal)
    model = l2_fit(K, 3)
    cross = cross_gram(spec, noisy, normal)
    npt.assert_allclose(total_explained_variation(K, model, cross, 3), 100.0, atol=1e-9)


def test_tev_is_100_for_l1_when_components_exhaust_the_rank():
    cfg = SynthConfig(n=30, d=5, rank=3, r_percent=0, dense_noise_std=0.0, seed=5)
    noisy, normal, _ = synth_generate(cfg)
    spec = KernelSpec("linear")
    K = gram(spec, noisy)
    model = fit(K, 3, FitOptions(starts=8, seed=5))
    cross = cross_gram(spec, noisy, normal)
    tev = total_explained_variation(gram(spec, normal), model, cross, 3)
    npt.assert_allclose(tev, 100.0, atol=1e-6)


def test_tev_is_zero_for_orthogonal_loading():
    # training points along e1, evaluation points along e2
    train = raw_dataset([[1.0, 0.0], [-1.0, 0.0]])
    normal = raw_dataset([[0.0, 1.0], [0.0, 2.0]])
    spec = KernelSpec("linear")
    model = fit(gram(spec, train), 1, FitOptions(starts=4, seed=0))
    cross = cross_gram(spec, train, normal)
    tev = total_explained_variation(gram(spec, normal), model, cross, 1)
    assert tev == 0.0


def test_tev_never_exceeds_100():
    for seed in range(5):
        cfg = SynthConfig(n=40, d=6, rank=3, r_percent=20, seed=seed)
        noisy, normal, _ = synth_generate(cfg)
        spec = KernelSpec("gaussian", sigma=6.0)
        model = fit(gram(spec, noisy), 3, FitOptions(starts=8, seed=seed))
        cross = cross_gram(spec, noisy, normal)
        tev = total_explained_variation(gram(spec, normal), model, cross, 3)
        assert 0.0 <= tev <= 100.0 + 1e-6


def test_tev_invariant_under_global_sign_flip_of_a_component():
    cfg = SynthConfig(n=25, d=4, rank=2, r_percent=10, seed=6)
    noisy, normal, _ = synth_generate(cfg)
    spec = KernelSpec("linear")
    K = gram(spec, noisy)
    model = fit(K, 2, FitOptions(starts=8, seed=6))
    cross = cross_gram(spec, noisy, normal)
    base = total_explained_variation(gram(spec, normal), model, cross, 2)

    comp = model.components[0]
    from l1kpca.l1 import ComponentModel
    flipped0 = ComponentModel(sign_vector=-comp.sign_vector, objective=comp.objective,
                              report=comp.report, train_scores=-comp.train_scores)
    flipped = KpcaModel(components=[flipped0, model.components[1]], spec=spec)
    after = total_explained_variation(gram(spec, normal), flipped, cross, 2)
    npt.assert_allclose(after, base, rtol=1e-12)


def test_tev_chain_matches_explicit_feature_space_route():
    # linear kernel on a 100 x 10 instance: reconstruct loadings in input
    # space and evaluate the metric directly
    cfg = SynthConfig(n=100, d=10, rank=4, r_percent=15, seed=7)
    noisy, normal, _ = synth_generate(cfg)
    spec = KernelSpec("linear")
    K_noisy = gram(spec, noisy)
    K_normal = gram(spec, normal)
    p = 4
    model = fit(K_noisy, p, FitOptions(starts=8, seed=7))
    cross = cross_gram(spec, noisy, normal)
    tev = total_explained_variation(K_normal, model, cross, p)

    A = noisy.values.copy()
    num = 0.0
    for comp in model.components:
        u = A.T @ comp.sign_vector / np.sqrt(comp.objective)
        num += float(((normal.values @ u) ** 2).sum())
        A = A - np.outer(A @ u, u)
    den = float(l2_fit(K_normal, p).eigenvalues.sum())
    npt.assert_allclose(tev, 100.0 * num / den, atol=1e-8)


def test_tev_argument_validation():
    noisy, normal, _ = synth_generate(SynthConfig(n=10, d=3, rank=2, seed=8))
    spec = KernelSpec("linear")
    model = fit(gram(spec, noisy), 2, FitOptions(starts=8, seed=8))
    cross = cross_gram(spec, noisy, normal)
    with pytest.raises(InvalidData):
        total_explained_variation(gram(spec, normal), model, cross, 5)
    with pytest.raises(InvalidData):
        total_explained_variation(gram(spec, normal), "nope", cross, 1)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(family=st.sampled_from(["linear", "gaussian", "polynomial"]), n=st.integers(6, 60),
       d=st.integers(1, 8), sigma=st.floats(0.5, 20.0), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_tev_denominator_matches_l2_fit_on_the_gram(family, n, d, sigma, seed, data):
    normal = standardize(np.random.default_rng(seed).standard_normal((n, d)))
    # Up to and past the linear kernel's rank min(n - 1, d).
    p = data.draw(st.integers(1, min(n, d + 3)), label="p")
    spec = KernelSpec(family, sigma=sigma)
    K_product = cross_gram(spec, normal, normal)
    G = gram(spec, normal)
    expected = float(l2_fit(G, p).eigenvalues.sum())
    tol = 1e-12 * expected
    if family == "gaussian":
        # Entrywise, the expansion bound of kernel._pairwise; each of the top
        # p eigenvalues then moves by at most the perturbation's norm.
        eps = np.finfo(float).eps
        norms = (normal.values**2).sum(axis=1)
        delta = 4 * (d + 2) * eps * (norms[:, None] + norms) / (2.0 * sigma**2)
        bound = (delta + 4 * eps) * np.maximum(K_product, G.entries)
        tol += p * np.linalg.norm(bound)
    assert abs(_capturable_variation(spec, K_product, p) - expected) <= tol

    rank = min(n - 1, d)
    if family == "linear" and p > rank:
        # The eigenvalues past the rank fall in the zero band and are clipped.
        assert np.all(l2.top_eigenvalues(K_product, p)[rank:] == 0.0)


def test_tev_denominator_refuses_like_gram_and_l2_fit():
    data = standardize(np.random.default_rng(3).standard_normal((8, 3)))
    tiny = KernelSpec("gaussian", sigma=1e-200)
    with pytest.raises(InvalidData) as from_gram:
        gram(tiny, data)
    with np.errstate(all="ignore"):
        non_finite = cross_gram(tiny, data, data)
    with pytest.raises(InvalidData) as refused:
        _capturable_variation(tiny, non_finite, 2)
    assert str(refused.value) == str(from_gram.value)

    # eigenvalues 3 and -1; then -1 and -1
    for entries in ([[1.0, 2.0], [2.0, 1.0]], [[-1.0, 0.0], [0.0, -1.0]]):
        K = np.array(entries)
        with pytest.raises(InvalidData) as from_l2_fit:
            l2_fit(GramMatrix(entries=K), 2)
        with pytest.raises(InvalidData) as refused:
            _capturable_variation(KernelSpec("linear"), K, 2)
        assert str(refused.value) == str(from_l2_fit.value)


# ------------------------------------------------------------------- sweeps

def test_sweep_single_cell_is_deterministic():
    cfg = SynthConfig(n=40, d=5, rank=2, seed=11)
    first = robustness_sweep([10.0], KernelSpec("linear"), cfg=cfg, p=2, n_seeds=2)
    second = robustness_sweep([10.0], KernelSpec("linear"), cfg=cfg, p=2, n_seeds=2)
    assert len(first) == 1
    assert first[0] == second[0]
    assert 0.0 <= first[0]["tev_l1"] <= 100.0 + 1e-6


def test_sweep_rows_are_plain_dicts_with_the_cell_keys_in_order():
    cfg = SynthConfig(n=24, d=4, rank=2, seed=5)
    spec = KernelSpec("gaussian", sigma=4.0)
    row, = robustness_sweep([10.0], spec, cfg=cfg, p=2, n_seeds=2, starts=4)
    assert type(row) is dict
    assert list(row) == ["r_percent", "kernel", "tev_l1", "tev_l2", "p", "seeds", "noise_scale"]
    assert (row["r_percent"], row["kernel"], row["p"], row["noise_scale"]) == \
        (10.0, spec.to_dict(), 2, cfg.noise_scale)


def test_sweep_rows_are_cells_seeded_by_grid_position():
    cfg = SynthConfig(n=24, d=4, rank=2, seed=5)
    r_values = [5.0, 10.0, 20.0]
    # One sweep per kernel; a cell's seeds depend on its grid position only.
    for spec in (KernelSpec("linear"), KernelSpec("gaussian", sigma=4.0)):
        rows = robustness_sweep(r_values, spec, cfg=cfg, p=2, n_seeds=2, starts=4)
        assert len(rows) == len(r_values)
        for idx, (r, row) in enumerate(zip(r_values, rows)):
            seeds = [int(np.random.default_rng([cfg.seed, idx, k]).integers(2**31))
                     for k in range(2)]
            assert row["seeds"] == seeds
            assert row == _sweep_cell(r, spec, cfg, 2, seeds, 4)


def test_sweep_cell_shares_one_tev_denominator_per_seed(monkeypatch):
    cfg = SynthConfig(n=30, d=4, rank=2, seed=12)
    calls = []

    def counting(name):
        real = getattr(l2, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("l2_fit", "top_eigenvalues"):
        monkeypatch.setattr(l2, name, counting(name))
    row = robustness_sweep([10.0], KernelSpec("linear"), cfg=cfg, p=2, n_seeds=3)[0]
    monkeypatch.undo()
    # Per seed: one eigenvector solve for the L2 model and one eigenvalue-only
    # solve for the denominator both solvers share.
    assert sorted(calls) == ["l2_fit"] * 3 + ["top_eigenvalues"] * 3

    # The same values as scoring each model with the public function, within
    # rounding: the sweep scores the linear kernel in input space.
    spec = KernelSpec("linear")
    tev1, tev2 = [], []
    for seed in row["seeds"]:
        noisy, normal, _ = synth_generate(replace(cfg, r_percent=10.0, seed=seed))
        K_noisy, K_normal = gram(spec, noisy), gram(spec, normal)
        cross = cross_gram(spec, noisy, normal)
        tev1.append(total_explained_variation(
            K_normal, fit(K_noisy, 2, FitOptions(seed=seed)), cross, 2))
        tev2.append(total_explained_variation(K_normal, l2_fit(K_noisy, 2), cross, 2))
    assert row["tev_l1"] == pytest.approx(float(np.mean(tev1)), rel=1e-12, abs=0)
    assert row["tev_l2"] == pytest.approx(float(np.mean(tev2)), rel=1e-12, abs=0)


@pytest.mark.parametrize("spec", [KernelSpec("linear"), KernelSpec("gaussian", sigma=5.0),
                                  KernelSpec("polynomial", degree=3, offset=1.0)],
                         ids=["linear", "gaussian", "polynomial"])
def test_sweep_cell_tevs_match_a_sweep_on_gram(monkeypatch, spec):
    # The sweep fits each instance on the one-product Gram; the reference
    # fits on gram(). Linear and polynomial Grams are the same product, so
    # their TEVs are bit-equal; the gaussian moves in the last bits only.
    cfg = SynthConfig(n=60, d=5, rank=2, noise_scale=8.0, seed=4)
    seeds = [3, 17, 29, 101]
    cells = [_sweep_cell(r, spec, cfg, 3, seeds, 4) for r in (10.0, 25.0)]
    monkeypatch.setattr(experiments, "_gram", lambda spec, data: gram(spec, data))
    references = [_sweep_cell(r, spec, cfg, 3, seeds, 4) for r in (10.0, 25.0)]
    for cell, reference in zip(cells, references):
        for key in ("tev_l1", "tev_l2"):
            if spec.family == "gaussian":
                assert cell[key] == pytest.approx(reference[key], rel=1e-12, abs=0)
            else:
                assert cell[key] == reference[key]


def _gram_path_tevs(noisy, normal, p, starts, seed):
    """One linear instance's (tev_l1, tev_l2) from gram() and cross_gram(), the reference."""
    spec = KernelSpec("linear")
    K_noisy, K_normal = gram(spec, noisy), gram(spec, normal)
    cross = cross_gram(spec, noisy, normal)
    # The sweep's refusal order: the denominator comes before the fits.
    _capturable_variation(spec, K_normal.entries, p)
    model1 = fit(K_noisy, p, FitOptions(starts=starts, seed=seed))
    model2 = l2_fit(K_noisy, p)
    return (total_explained_variation(K_normal, model1, cross, p),
            total_explained_variation(K_normal, model2, cross, p))


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(3, 16), d=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
       duplicate=st.booleans(), constant=st.sampled_from(["none", "all rows", "normal rows"]),
       data=st.data())
def test_linear_sweep_cell_in_input_space_matches_the_gram_path(monkeypatch, n, d, seed,
                                                                 duplicate, constant, data):
    # Low rank, n < d, a duplicated row or a constant column leave zero
    # eigenvalues in every Gram, and p runs past d: the sweep's input-space
    # TEVs and refusals must be the kernel-matrix path's.
    rng = np.random.default_rng(seed)
    rank = data.draw(st.integers(1, d), label="rank")
    raw = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
    if duplicate:
        raw[-1] = raw[0]
    mask = np.zeros(n, dtype=int)
    mask[rng.permutation(n)[:data.draw(st.integers(0, n // 4), label="outliers")]] = 1
    # Kept off a lone column of every row, which leaves nothing to fit.
    if constant == "normal rows" or (constant == "all rows" and d > 1):
        raw[mask == 0 if constant == "normal rows" else slice(None), d - 1] = 2.5
    noisy, normal = standardize(raw, labels=mask), standardize(raw[mask == 0])
    p = data.draw(st.integers(1, d + 2), label="p")

    def outcome(run):
        try:
            return run()
        except L1KpcaError as exc:
            return exc

    monkeypatch.setattr(experiments, "synth_generate", lambda cfg: (noisy, normal, mask))
    row = outcome(lambda: _sweep_cell(10.0, KernelSpec("linear"), SynthConfig(n=n, d=d, rank=1),
                                      p, [seed], 4))
    expected = outcome(lambda: _gram_path_tevs(noisy, normal, p, 4, seed))
    if isinstance(expected, L1KpcaError):
        assert (type(row), str(row)) == (type(expected), str(expected))
    else:
        assert not isinstance(row, L1KpcaError), row
        assert (row["tev_l1"], row["tev_l2"]) == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("n, d, p", [(3, 4, 3), (6, 2, 3)], ids=["past-the-rank", "past-d"])
def test_linear_l2_scores_refuse_an_axis_past_the_rank_as_l2_fit_does(n, d, p):
    # In a sweep the L1 fit refuses such a p first; the L2 scores refuse it on their own too.
    spec = KernelSpec("linear")
    data = standardize(np.random.default_rng(n).standard_normal((n, d)))
    with pytest.raises(DegenerateComponent) as from_gram:
        l2_fit(gram(spec, data), p).scores(cross_gram(spec, data, data), p)
    with pytest.raises(DegenerateComponent) as refused:
        experiments._linear_l2_scores(spec, data.values, data.values, p)
    assert str(refused.value) == str(from_gram.value)


@pytest.mark.parametrize("n_seeds", [0, -2])
def test_sweep_rejects_seed_count_below_one(n_seeds):
    with pytest.raises(InvalidData, match=f"seed count {n_seeds} must be at least 1"):
        robustness_sweep([10.0], KernelSpec("linear"), n_seeds=n_seeds)


def test_sweep_rows_cover_grid_in_order():
    cfg = SynthConfig(n=30, d=4, rank=2, seed=12)
    rows = robustness_sweep([5.0, 25.0], KernelSpec("linear"), cfg=cfg, p=2, n_seeds=1)
    assert [row["r_percent"] for row in rows] == [5.0, 25.0]
    assert all(row["noise_scale"] == cfg.noise_scale for row in rows)


@pytest.mark.parametrize("r_values", [[], ()], ids=["list", "tuple"])
def test_sweep_rejects_an_empty_grid(r_values):
    with pytest.raises(InvalidData, match="^the r grid must hold at least one value$"):
        robustness_sweep(r_values, KernelSpec("linear"), n_seeds=1)


# -------------------------------------------------------------------- bench

def test_bench_tiny_dataset_under_a_second():
    noisy, _, _ = synth_generate(SynthConfig(n=25, d=4, rank=2, seed=13))
    rows = runtime_bench("tiny", noisy, [KernelSpec("linear")], starts=4)
    assert {row["method"] for row in rows} == {"l1", "l2"}
    assert all(row["seconds"] < 1.0 for row in rows)
    assert all(row["p"] == 4 for row in rows)


def test_gram_time_grows_superlinearly_when_n_doubles():
    # The tiled Gram is compute-bound at both sizes, so doubling n costs
    # about 4x. The sizes alternate within each repetition so both see the
    # same machine load. The Gram runs on the calling thread, so its CPU
    # time is timed: it leaves out time spent descheduled, and unlike the
    # process's CPU time it leaves out idle BLAS worker threads, which spin
    # for a while after synth_generate's matrix products (with two BLAS
    # threads that doubled the process time of the first two repetitions).
    import time
    spec = KernelSpec("gaussian", sigma=30.0)
    small, _, _ = synth_generate(SynthConfig(n=500, d=30, rank=3, seed=14))
    large, _, _ = synth_generate(SynthConfig(n=1000, d=30, rank=3, seed=14))

    best = [float("inf"), float("inf")]
    for _ in range(5):
        for k, data in enumerate((small, large)):
            t0 = time.thread_time()
            gram(spec, data)
            best[k] = min(best[k], time.thread_time() - t0)

    ratio = best[1] / best[0]
    assert 2.5 <= ratio <= 8.0
