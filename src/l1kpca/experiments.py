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
could capture (the top-p eigenvalue sum of the normal kernel matrix).
That denominator comes from an eigenvalue-only solve.

Each sweep instance fits both solvers on the noisy Gram, evaluated as one
product. Its bits decide the L1 fixed points, so the fits stay on it
whichever way the TEVs are evaluated; the kernel family picks that way.

- Gaussian and polynomial: from kernel matrices. The cross-Gram is scored
  by each model's map, and the denominator comes from the normal kernel
  matrix. Both are one product too, so gaussian entries match gram's
  within rounding, not bit for bit. A TEV is invariant under a
  component's sign, so it cannot see the +c / -c ties those bits settle.
- Linear: from the data matrices, Kwak's input space. With X the n x d
  noisy rows and Q the m x d normal rows, the Gram is XX' and the
  cross-Gram QX'. The L1 scores are Q (X'W) for the model's map W. The L2
  scores are Q V for the top-p unit eigenvectors V of X'X: an eigenpair
  (mu, u) of XX' gives v = X'u / sqrt(mu), so QX'u / sqrt(mu) = Q v. The
  denominator is the top-p eigenvalue sum of the d x d Q'Q, which shares
  its nonzero eigenvalues with QQ'; past d the m x m problem's are zero.
  No n x n eigensolve and no m x m kernel matrix is formed. l2_fit's
  eigenvalue rule is applied to the covariance X'X and Q'Q, so its zero
  band is 1e-12 * d, not 1e-12 * n or m, times the largest eigenvalue.
  The TEVs equal the kernel-matrix ones within rounding, and each refusal
  is the one the kernel-matrix path raises.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateComponent, InvalidData
from .kernel import (Dataset, GramMatrix, KernelSpec, _gram, cross_gram, gram, require_finite,
                     standardize)
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
        if self.seed < 0:
            raise InvalidData(f"seed {self.seed} must be at least 0")


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

    noisy = standardize(noisy_raw, labels=mask.copy())
    normal = standardize(noisy_raw[mask == 0])
    return noisy, normal, mask


def total_explained_variation(normal_gram: GramMatrix, model, cross: np.ndarray,
                              p: int | None = None) -> float:
    """Percentage of the normal dataset's variation captured by a noisy fit.

    model is a fitted KpcaModel or EigenModel on the noisy data; cross
    holds kernel evaluations between normal rows and the noisy training
    rows. The numerator sums squared scores of the normal samples on the
    first p loading directions (default all of the model's); the
    denominator is the top-p eigenvalue sum of the normal Gram (what any p
    orthonormal directions could capture at most). A p outside
    [1, model.n_components] raises InvalidData.
    """
    if not isinstance(model, (l1.KpcaModel, l2.EigenModel)):
        raise InvalidData(f"unsupported model type {type(model).__name__}")
    # Refused before the eigen-solve, with the count rule of every model score.
    p = l1._require_count(p, model.n_components)

    denominator = _capturable_variation(normal_gram.spec, normal_gram.entries, p)
    return _explained_percent(model.scores(cross, p), denominator)


def _capturable_variation(spec: KernelSpec, normal_matrix: np.ndarray, p: int) -> float:
    """TEV denominator: the top-p eigenvalue sum of the normal kernel matrix.

    Under the linear kernel normal_matrix may be the d x d Q'Q instead of
    QQ', with p at most d: the two share their nonzero eigenvalues. The
    eigenvalues come from l2.top_eigenvalues, which computes no
    eigenvectors and reads the lower triangle only, under l2_fit's rule. A
    non-finite matrix raises the InvalidData that gram raises.
    """
    require_finite(spec, normal_matrix)
    denominator = float(l2.top_eigenvalues(normal_matrix, p).sum())
    if denominator <= 0:
        raise DegenerateComponent("normal dataset has no capturable variation")
    return denominator


def _explained_percent(scores: np.ndarray, denominator: float) -> float:
    return 100.0 * float((scores * scores).sum()) / denominator


def _linear_l2_scores(spec: KernelSpec, X: np.ndarray, Q: np.ndarray, p: int) -> np.ndarray:
    """Q V: the L2 scores of rows Q under the linear kernel's top p axes of X.

    V holds the unit eigenvectors of X'X that l2_fit keeps. The n x n
    problem's eigenvalues past d are zero, so p > d raises the
    DegenerateComponent that scoring on a zero eigenvalue raises.
    """
    model = l2.l2_fit(GramMatrix(entries=X.T @ X, spec=spec), min(p, X.shape[1]))
    l2._require_positive(np.pad(model.eigenvalues, (0, p - model.n_components)))
    return Q @ model.coefficient_vectors


def _sweep_cell(r: float, spec: KernelSpec, cfg: SynthConfig, p: int,
                seeds: list[int], starts: int) -> dict:
    """One sweep row: the mean explained variation of both solvers at r.

    Both evaluation paths (see the module docstring) refuse an instance in
    one order: the denominator, the L1 fit, then the L2 fit and its scores.
    """
    tev1, tev2 = [], []
    for seed in seeds:
        cell_cfg = replace(cfg, r_percent=r, seed=seed)
        noisy, normal, _ = synth_generate(cell_cfg)
        K_noisy = _gram(spec, noisy)
        options = l1.FitOptions(starts=starts, seed=seed)
        # One eigenvalue-only solve per seed, shared by both solvers.
        if spec.family == "linear":
            X, Q = noisy.values, normal.values
            # The count check of the m x m solve, which the d x d one cannot make.
            l1._require_count(p, Q.shape[0])
            denominator = _capturable_variation(spec, Q.T @ Q, min(p, X.shape[1]))
            model1 = l1.fit(K_noisy, p, options)
            scores1 = Q @ (X.T @ model1.projection(p))
            scores2 = _linear_l2_scores(spec, X, Q, p)
        else:
            cross = cross_gram(spec, noisy, normal)
            denominator = _capturable_variation(spec, cross_gram(spec, normal, normal), p)
            model1 = l1.fit(K_noisy, p, options)
            model2 = l2.l2_fit(K_noisy, p)
            scores1, scores2 = model1.scores(cross, p), model2.scores(cross, p)
        tev1.append(_explained_percent(scores1, denominator))
        tev2.append(_explained_percent(scores2, denominator))
    return {"r_percent": r, "kernel": spec.to_dict(), "tev_l1": float(np.mean(tev1)),
            "tev_l2": float(np.mean(tev2)), "p": p, "seeds": list(seeds),
            "noise_scale": cfg.noise_scale}


def robustness_sweep(r_values, spec: KernelSpec, cfg: SynthConfig = SynthConfig(), p: int = 4,
                     n_seeds: int = 10, starts: int = l1.DEFAULT_STARTS) -> list[dict]:
    """Mean explained variation of both solvers at each r of r_values, under one kernel.

    One row per r, in grid order, with the keys r_percent, kernel (the
    spec's dict), tev_l1, tev_l2, p, seeds and noise_scale. The k-th
    instance of the cell at grid position idx has the seed
    default_rng([cfg.seed, idx, k]).integers(2**31), so a cell's instances
    depend on its position alone, not on which cells ran before it. An
    empty grid or a seed count below 1 raises InvalidData: there would be
    no row, or a row with no mean.
    """
    if n_seeds < 1:
        raise InvalidData(f"seed count {n_seeds} must be at least 1")
    r_values = list(r_values)
    if not r_values:
        raise InvalidData("the r grid must hold at least one value")
    rows = []
    for idx, r in enumerate(r_values):
        seeds = [int(np.random.default_rng([cfg.seed, idx, k]).integers(2**31))
                 for k in range(n_seeds)]
        rows.append(_sweep_cell(r, spec, cfg, p, seeds, starts))
    return rows


def _max_components(data: Dataset) -> int:
    """max(1, min(n - 1, d)): standardized data has rank at most n - 1 under the linear kernel."""
    return max(1, min(data.n_samples - 1, data.n_features))


def runtime_bench(name: str, data: Dataset, specs, p: int | None = None,
                  starts: int = l1.DEFAULT_STARTS, seed: int = 0) -> list[dict]:
    """Wall-clock seconds of full L1 and L2 fits on one dataset, per kernel.

    Each row's dataset field is name. Timing includes Gram construction (it
    dominates growth in n). p defaults to max(1, min(n - 1, d)), the rank
    bound of standardized data under the linear kernel, which detect's
    default also applies; seed seeds the L1 fit's random starts. Runs
    serially to avoid contention skew.
    """
    n_comp = p if p is not None else _max_components(data)
    rows = []
    for spec in specs:
        t0 = time.perf_counter()
        K = gram(spec, data)
        l1.fit(K, n_comp, l1.FitOptions(starts=starts, seed=seed))
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
