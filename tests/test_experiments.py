import numpy as np
import numpy.testing as npt
import pytest

from conftest import raw_dataset
from l1kpca import (DegenerateComponent, FitOptions, InvalidData, KernelSpec,
                    SynthConfig, cross_gram, fit, gram, l2_fit, robustness_sweep,
                    runtime_bench, synth_generate, total_explained_variation)
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
    model = fit(gram(spec, train), 1, FitOptions(starts=4, seed=0), train=train)
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


# ------------------------------------------------------------------- sweeps

def test_sweep_single_cell_is_deterministic_and_thread_independent():
    cfg = SynthConfig(n=40, d=5, rank=2, seed=11)
    serial = robustness_sweep([10.0], [KernelSpec("linear")], cfg=cfg, p=2, n_seeds=2)
    threaded = robustness_sweep([10.0], [KernelSpec("linear")], cfg=cfg, p=2,
                                n_seeds=2, threads=4)
    assert len(serial) == 1
    assert serial[0].to_dict() == threaded[0].to_dict()
    assert 0.0 <= serial[0].tev_l1 <= 100.0 + 1e-6


def test_sweep_rows_cover_grid_in_order():
    cfg = SynthConfig(n=30, d=4, rank=2, seed=12)
    rows = robustness_sweep([5.0, 25.0], [KernelSpec("linear")], cfg=cfg, p=2, n_seeds=1)
    assert [row.r_percent for row in rows] == [5.0, 25.0]
    assert all(row.noise_scale == cfg.noise_scale for row in rows)


# -------------------------------------------------------------------- bench

def test_bench_tiny_dataset_under_a_second():
    noisy, _, _ = synth_generate(SynthConfig(n=25, d=4, rank=2, seed=13))
    rows = runtime_bench({"tiny": noisy}, [KernelSpec("linear")], starts=4)
    assert {row["method"] for row in rows} == {"l1", "l2"}
    assert all(row["seconds"] < 1.0 for row in rows)
    assert all(row["p"] == 4 for row in rows)


def test_gram_time_grows_superlinearly_when_n_doubles():
    # sizes chosen so both runs stream from memory (ratio is unstable when
    # the smaller problem still fits in cache)
    import time
    spec = KernelSpec("gaussian", sigma=30.0)
    small, _, _ = synth_generate(SynthConfig(n=500, d=30, rank=3, seed=14))
    large, _, _ = synth_generate(SynthConfig(n=1000, d=30, rank=3, seed=14))

    def best_of(data, reps=5):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            gram(spec, data)
            times.append(time.perf_counter() - t0)
        return min(times)

    ratio = best_of(large) / best_of(small)
    assert 2.5 <= ratio <= 8.0
