"""Synthetic benchmarks: corrupted low-rank data, the explained-variation
robustness metric, and the L1-vs-L2 sweep and timing harnesses.

Generation recipe: a rank-r factor model U V' (standard normal factors)
plus dense N(0, dense_noise_std^2) noise; corruption adds
N(0, noise_scale^2) noise to every entry of a uniformly chosen fraction
of rows. The noisy dataset keeps all rows; the normal dataset drops the
corrupted ones; both are standardized independently.

Robustness is measured as Total Explained Variation: 100 times the
variation of the normal dataset captured by p loading directions fit on
the noisy dataset, divided by the maximum any p orthonormal directions
could capture (the top-p eigenvalue sum of the normal Gram).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateComponent, InvalidData
from .kernel import Dataset, GramMatrix, KernelSpec, cross_gram, gram, standardize
from . import l1, l2


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of one synthetic instance."""

    n: int = 200
    d: int = 20
    rank: int = 5
    r_percent: float = 10.0
    noise_scale: float = 5.0
    dense_noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.rank > min(self.n, self.d):
            raise InvalidData(f"rank {self.rank} exceeds min(n, d) = {min(self.n, self.d)}")
        if not 0 <= self.r_percent < 100:
            raise InvalidData(f"corruption percentage {self.r_percent} not in [0, 100)")


@dataclass
class RobustnessResult:
    """One sweep cell: mean explained-variation of both solvers at one r."""

    r_percent: float
    kernel: dict
    tev_l1: float
    tev_l2: float
    p: int
    seeds: list[int] = field(default_factory=list)
    noise_scale: float = 5.0

    def to_dict(self) -> dict:
        return {"r_percent": self.r_percent, "kernel": self.kernel,
                "tev_l1": self.tev_l1, "tev_l2": self.tev_l2, "p": self.p,
                "seeds": self.seeds, "noise_scale": self.noise_scale}


def synth_generate(cfg: SynthConfig) -> tuple[Dataset, Dataset, np.ndarray]:
    """Generate (noisy, normal, outlier_mask) per the recipe above.

    Both datasets are standardized with their own statistics; the mask
    flags the corrupted rows of the noisy dataset, which also carries the
    mask as labels.
    """
    rng = np.random.default_rng(cfg.seed)
    base = rng.standard_normal((cfg.n, cfg.rank)) @ rng.standard_normal((cfg.d, cfg.rank)).T
    if cfg.dense_noise_std > 0:
        base = base + cfg.dense_noise_std * rng.standard_normal((cfg.n, cfg.d))

    n_corrupt = int(np.ceil(cfg.r_percent / 100.0 * cfg.n))
    mask = np.zeros(cfg.n, dtype=int)
    noisy_raw = base.copy()
    if n_corrupt > 0:
        rows = rng.choice(cfg.n, size=n_corrupt, replace=False)
        noisy_raw[rows] += cfg.noise_scale * rng.standard_normal((n_corrupt, cfg.d))
        mask[rows] = 1

    noisy = standardize(noisy_raw)
    noisy = Dataset(values=noisy.values, column_means=noisy.column_means,
                    column_stds=noisy.column_stds, labels=mask.copy())
    normal = standardize(noisy_raw[mask == 0])
    return noisy, normal, mask


def total_explained_variation(normal_gram: GramMatrix, model, cross: np.ndarray,
                              p: int | None = None) -> float:
    """Percentage of the normal dataset's variation captured by a noisy fit.

    model is a fitted KpcaModel or EigenModel on the noisy data; cross
    holds kernel evaluations between normal rows and the noisy training
    rows. The numerator sums squared scores of the normal samples on the
    first p loading directions; the denominator is the top-p eigenvalue
    sum of the normal Gram (what any p orthonormal directions could
    capture at most).
    """
    if not isinstance(model, (l1.KpcaModel, l2.EigenModel)):
        raise InvalidData(f"unsupported model type {type(model).__name__}")
    available = model.n_components
    p = available if p is None else p
    if not 1 <= p <= available:
        raise InvalidData(f"p={p} not in [1, {available}]")

    scores = model.scores(cross, p)
    numerator = float((scores * scores).sum())

    denominator = float(l2.l2_fit(normal_gram, p).eigenvalues.sum())
    if denominator <= 0:
        raise DegenerateComponent("normal dataset has no capturable variation")
    return 100.0 * numerator / denominator


def _sweep_cell(r: float, spec: KernelSpec, cfg: SynthConfig, p: int,
                seeds: list[int], starts: int) -> RobustnessResult:
    tev1, tev2 = [], []
    for seed in seeds:
        cell_cfg = replace(cfg, r_percent=r, seed=seed)
        noisy, normal, _ = synth_generate(cell_cfg)
        K_noisy = gram(spec, noisy)
        K_normal = gram(spec, normal)
        cross = cross_gram(spec, noisy, normal)

        model1 = l1.fit(K_noisy, p, l1.FitOptions(starts=starts, seed=seed))
        model2 = l2.l2_fit(K_noisy, p)
        tev1.append(total_explained_variation(K_normal, model1, cross, p))
        tev2.append(total_explained_variation(K_normal, model2, cross, p))
    return RobustnessResult(r_percent=r, kernel=spec.to_dict(),
                            tev_l1=float(np.mean(tev1)), tev_l2=float(np.mean(tev2)),
                            p=p, seeds=list(seeds), noise_scale=cfg.noise_scale)


def robustness_sweep(r_values, specs, cfg: SynthConfig = SynthConfig(), p: int = 4,
                     n_seeds: int = 10, starts: int = l1.DEFAULT_STARTS,
                     threads: int = 1) -> list[RobustnessResult]:
    """Mean explained-variation of both solvers over a (r, kernel) grid.

    Per-cell datasets are seeded from (cfg.seed, cell index), so serial
    and threaded runs produce identical rows; rows are emitted in grid
    order regardless of completion order.
    """
    cells = [(r, spec) for spec in specs for r in r_values]
    seed_lists = [[int(np.random.default_rng([cfg.seed, idx, k]).integers(2**31))
                   for k in range(n_seeds)] for idx in range(len(cells))]

    def run(idx: int) -> RobustnessResult:
        r, spec = cells[idx]
        return _sweep_cell(r, spec, cfg, p, seed_lists[idx], starts)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, range(len(cells))))
    return [run(idx) for idx in range(len(cells))]


def runtime_bench(datasets: dict[str, Dataset], specs, p: int | None = None,
                  starts: int = l1.DEFAULT_STARTS) -> list[dict]:
    """Wall-clock seconds of full L1 and L2 fits on each dataset x kernel.

    Timing includes Gram construction (it dominates growth in n). p
    defaults to min(n, d) per dataset. Runs serially to avoid contention
    skew.
    """
    rows = []
    for name, data in datasets.items():
        for spec in specs:
            n_comp = p if p is not None else min(data.n_samples, data.n_features)

            t0 = time.perf_counter()
            K = gram(spec, data)
            l1.fit(K, n_comp, l1.FitOptions(starts=starts))
            t1 = time.perf_counter()
            rows.append({"dataset": name, "kernel": spec.to_dict(), "method": "l1",
                         "p": n_comp, "seconds": t1 - t0})

            t0 = time.perf_counter()
            K = gram(spec, data)
            model = l2.l2_fit(K, n_comp)
            model.training_scores()
            t1 = time.perf_counter()
            rows.append({"dataset": name, "kernel": spec.to_dict(), "method": "l2",
                         "p": n_comp, "seconds": t1 - t0})
    return rows
