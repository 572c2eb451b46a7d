"""L1-norm kernel PCA: the sign-vector fixed-point solver.

A component is characterized by a sign vector c in {-1,+1}^n. The solver
iterates

    c_i  <-  sgn((K c)_i)        (previous sign kept inside a zero band)

until the sign vector stops changing, which maximizes the quadratic form
c'Kc over sign vectors locally. The loading direction never needs to be
materialized: with s = c'Kc, training scores are Kc / sqrt(s), and the
kernel matrix is deflated to remove an extracted direction via

    K  <-  K - (Kc)(Kc)' / s.

Multiple components come from repeating the solve on the deflated kernel;
out-of-sample scores come from applying the same deflation identity to a
cross-Gram matrix, so a fitted model keeps only sign vectors, objectives
and training scores. The iteration is well-behaved: the iterate norm
sqrt(c'Kc) / sum|Kc| never increases, the loop reaches a fixed point in
finitely many steps, and each step contracts the norm by the ratio
rho(c) = c'Kc / sum|Kc| <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateComponent, InvalidData, NonConvergence
from .kernel import Dataset, GramMatrix, KernelSpec, cross_gram

DEFAULT_MAX_ITER = 1000
DEFAULT_STARTS = 8


@dataclass(frozen=True)
class FitOptions:
    """Knobs for the fixed-point solve.

    tol_zero / eps_term default to 1e-12 * n * max|K| and 1e-9 * max|K|
    when left as None.
    """

    starts: int = DEFAULT_STARTS
    seed: int = 0
    tol_zero: float | None = None
    max_iter: int = DEFAULT_MAX_ITER
    eps_term: float | None = None

    def resolve(self, K: np.ndarray) -> tuple[float, float]:
        scale = _max_abs(K)
        tol_zero = self.tol_zero if self.tol_zero is not None else 1e-12 * K.shape[0] * scale
        eps_term = self.eps_term if self.eps_term is not None else 1e-9 * scale
        return tol_zero, eps_term


def _max_abs(K: np.ndarray) -> float:
    # max|K| without materializing np.abs(K); K is O(n^2).
    return float(max(K.max(), -K.min()))


@dataclass
class ConvergenceReport:
    """Per-iteration diagnostics of one fixed-point solve.

    norm_trace[k] is the iterate norm sqrt(c'Kc) / sum|Kc| computed from
    the k-th sign vector; rate_estimates[k] is the contraction ratio
    rho(c^k) = c'Kc / sum|Kc|. terminated_by is one of sign_fixed,
    quadratic_form_zero, max_iter. zero_band_hits counts entries of Kc
    that fell inside the sign-retention band over the whole run.
    """

    iterations: int
    norm_trace: list[float]
    terminated_by: str
    rate_estimates: list[float]
    lagrange_multiplier: float
    zero_band_hits: int = 0


@dataclass
class ComponentModel:
    """One extracted component: sign vector, objective c'Kc, diagnostics."""

    sign_vector: np.ndarray
    objective: float
    report: ConvergenceReport
    train_scores: np.ndarray


@dataclass
class KpcaModel:
    """Ordered components, the kernel they were fit with, and the training data.

    Shares training_scores() / scores(cross) with l2.EigenModel, so
    transform() and detection take either model.
    """

    components: list[ComponentModel]
    spec: KernelSpec
    train_ref: Dataset | None = None

    @property
    def n_components(self) -> int:
        return len(self.components)

    def training_scores(self) -> np.ndarray:
        """n x p matrix stacking each component's training scores."""
        return np.column_stack([comp.train_scores for comp in self.components])

    def scores(self, cross: np.ndarray, p: int | None = None) -> np.ndarray:
        """Scores of cross-Gram rows on the first p components (default all)."""
        return chain_scores(self.components[:p], cross)


def validate_sign_vector(c, n: int | None = None) -> np.ndarray:
    """Return c as a float array after checking every entry is exactly +-1."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        raise InvalidData(f"sign vector must be 1-d, got shape {c.shape}")
    if n is not None and c.shape[0] != n:
        raise InvalidData(f"sign vector has length {c.shape[0]}, expected {n}")
    if not np.all(np.abs(c) == 1.0):
        raise InvalidData("sign vector entries must be exactly -1 or +1")
    return c


def sign_update(gram_matrix: GramMatrix, c, tol_zero: float | None = None) -> np.ndarray:
    """One step of the fixed-point map: c_i <- sgn((Kc)_i).

    Entries with |(Kc)_i| <= tol_zero keep their previous sign, which
    prevents oscillation on exactly-orthogonal configurations.
    """
    K = gram_matrix.entries
    c = validate_sign_vector(c, K.shape[0])
    if tol_zero is None:
        tol_zero, _ = FitOptions().resolve(K)
    v = K @ c
    return np.where(np.abs(v) <= tol_zero, c, np.sign(v))


def _iterate_batch(K: np.ndarray, C0: np.ndarray, tol_zero: float,
                   eps_term: float, max_iter: int) -> list[dict]:
    """Run the fixed-point iteration on each column of C0 simultaneously.

    All columns share one K @ C product on the first pass; afterwards a
    column that flips only a few signs gets its Kc product patched with a
    skinny rank-update (delta @ K[flipped]) instead of a fresh gemv,
    and heavy-flip columns are recomputed together in one gemm. Each
    column's trajectory is the same as running it alone, so results do
    not depend on batching or scheduling. Returns one result dict per
    column; non-converged columns get terminated_by="max_iter".

    The quadratic-form termination (dc'K dc <= eps_term, relevant only on
    semidefinite kernels where distinct sign vectors generate the same
    iterate) is evaluated one pass deferred via
    dc'K dc = s_k - 2 v_k.c_{k+1} + s_{k+1}, keeping the per-pass cost to
    the single product.
    """
    n, m = C0.shape
    C = C0.copy()
    V = K @ C  # V[:, j] tracks K @ C[:, j] across passes
    active = list(range(m))
    # Per-column deferred state: previous s and previous v.c_next.
    prev_s = np.full(m, np.nan)
    prev_cross = np.full(m, np.nan)
    out: list[dict | None] = [None] * m
    traces: list[list[float]] = [[] for _ in range(m)]
    rates: list[list[float]] = [[] for _ in range(m)]
    band_hits = np.zeros(m, dtype=int)
    incr_cutoff = max(1, n // 8)

    for k in range(max_iter):
        still, recompute = [], []
        for col in active:
            c = C[:, col]
            v = V[:, col]
            abs_v = np.abs(v)
            s = float(c @ v)
            denom = float(abs_v.sum())
            traces[col].append(float(np.sqrt(max(s, 0.0)) / denom) if denom > 0 else 0.0)
            rates[col].append(s / denom if denom > 0 else 0.0)
            in_band = abs_v <= tol_zero
            band_hits[col] += int(in_band.sum())
            c_next = np.where(in_band, c, np.sign(v))
            flipped = np.flatnonzero(c_next != c)

            if flipped.size == 0:
                out[col] = {"terminated_by": "sign_fixed", "iterations": k + 1,
                            "objective": s, "c": c.copy()}
                continue
            # Deferred quadratic-form check for the previous pass.
            if k > 0:
                q = prev_s[col] - 2.0 * prev_cross[col] + s
                if q <= eps_term:
                    out[col] = {"terminated_by": "quadratic_form_zero", "iterations": k,
                                "objective": s, "c": c.copy()}
                    continue
            prev_s[col] = s
            prev_cross[col] = float(v @ c_next)
            if flipped.size <= incr_cutoff:
                # K is exactly symmetric: gather contiguous rows, not strided columns.
                V[:, col] = v + (c_next[flipped] - c[flipped]) @ K[flipped]
            else:
                recompute.append(col)
            C[:, col] = c_next
            still.append(col)

        if recompute:
            V[:, recompute] = K @ C[:, recompute]
        active = still
        if not active:
            break

    results = []
    for col in range(m):
        res = out[col]
        if res is None:
            res = {"terminated_by": "max_iter", "iterations": max_iter,
                   "objective": np.nan, "c": C[:, col].copy()}
        res["norm_trace"] = traces[col]
        res["rate_estimates"] = rates[col]
        res["zero_band_hits"] = int(band_hits[col])
        results.append(res)
    return results


def _component_from_result(K: np.ndarray, res: dict, tol_zero: float) -> ComponentModel:
    if res["terminated_by"] == "max_iter":
        report = ConvergenceReport(
            iterations=res["iterations"], norm_trace=res["norm_trace"],
            terminated_by="max_iter", rate_estimates=res["rate_estimates"],
            lagrange_multiplier=float("nan"), zero_band_hits=res["zero_band_hits"])
        raise NonConvergence(f"no fixed point after {res['iterations']} iterations", report=report)
    c = res["c"]
    v = K @ c
    s = float(c @ v)
    if s <= tol_zero:
        raise DegenerateComponent(f"objective {s:.3e} is numerically zero at termination")
    report = ConvergenceReport(
        iterations=res["iterations"], norm_trace=res["norm_trace"],
        terminated_by=res["terminated_by"], rate_estimates=res["rate_estimates"],
        lagrange_multiplier=1.0 / (2.0 * res["norm_trace"][-1]),
        zero_band_hits=res["zero_band_hits"])
    return ComponentModel(sign_vector=c, objective=s, report=report,
                          train_scores=v / np.sqrt(s))


def fit_component(gram_matrix: GramMatrix, c0, options: FitOptions | None = None) -> ComponentModel:
    """Iterate the sign-update map from c0 until the sign vector is fixed.

    Terminates when the updated vector equals the previous one elementwise
    or when the quadratic form of their difference drops below eps_term.
    Raises NonConvergence (with the partial report attached) if max_iter
    passes without a fixed point, and DegenerateComponent if the terminal
    objective c'Kc is numerically zero.
    """
    opts = options or FitOptions()
    K = gram_matrix.entries
    c0 = validate_sign_vector(c0, K.shape[0])
    tol_zero, eps_term = opts.resolve(K)
    res = _iterate_batch(K, c0[:, None], tol_zero, eps_term, opts.max_iter)[0]
    return _component_from_result(K, res, tol_zero)


def default_start(K: np.ndarray, tol_zero: float) -> np.ndarray:
    """Deterministic starting sign vector: the sign of each row sum.

    Points toward the dominant variance direction; row sums inside the
    zero band map to +1.
    """
    rowsum = K.sum(axis=1)
    c = np.sign(rowsum)
    c[np.abs(rowsum) <= tol_zero] = 1.0
    return c


def random_starts(n: int, count: int, seed) -> np.ndarray:
    """count seeded uniform +-1 columns; seed may be any default_rng seed."""
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 2, size=(n, count)) * 2 - 1).astype(float)


def deflate(gram_matrix: GramMatrix, c) -> GramMatrix:
    """Remove an extracted direction from the kernel: K - (Kc)(Kc)'/(c'Kc).

    The result is exactly symmetric and annihilates c's direction
    (c'Kc drops to rounding noise).
    """
    K = gram_matrix.entries
    c = validate_sign_vector(c, K.shape[0])
    tol_zero, _ = FitOptions().resolve(K)
    v = K @ c
    s = float(c @ v)
    if s <= tol_zero:
        raise DegenerateComponent(f"cannot deflate: objective {s:.3e} is numerically zero")
    # outer(v, v) is exactly symmetric, so the difference stays exactly symmetric.
    entries = K - np.outer(v, v) / s
    return GramMatrix(entries=entries, spec=gram_matrix.spec)


def train_scores(gram_matrix: GramMatrix, c) -> np.ndarray:
    """Principal scores of the training samples: Kc / sqrt(c'Kc)."""
    K = gram_matrix.entries
    c = validate_sign_vector(c, K.shape[0])
    tol_zero, _ = FitOptions().resolve(K)
    v = K @ c
    s = float(c @ v)
    if s <= tol_zero:
        raise DegenerateComponent(f"objective {s:.3e} is numerically zero")
    return v / np.sqrt(s)


def fit(gram_matrix: GramMatrix, p: int, options: FitOptions | None = None,
        train: Dataset | None = None) -> KpcaModel:
    """Extract p components by multi-start solves on the successively deflated kernel.

    For each component the solver runs from the deterministic row-sum
    start plus options.starts - 1 seeded random sign vectors (all columns
    of one batched iteration), keeps the candidate with the largest
    objective (ties: lowest start index), then deflates the kernel.
    Components are ordered by extraction order. Errors carry the index of
    the component that failed.
    """
    opts = options or FitOptions()
    K = gram_matrix.entries
    n = K.shape[0]
    if not 1 <= p <= n:
        raise InvalidData(f"component count {p} not in [1, {n}]")

    current = gram_matrix
    components: list[ComponentModel] = []
    for j in range(p):
        tol_zero, eps_term = opts.resolve(current.entries)
        first = default_start(current.entries, tol_zero)
        if opts.starts > 1:
            # Per-component stream keyed on (seed, j) so component count
            # does not reshuffle earlier components' starts.
            extra = random_starts(n, opts.starts - 1, seed=[opts.seed, j])
            C0 = np.column_stack([first, extra])
        else:
            C0 = first[:, None]

        results = _iterate_batch(current.entries, C0, tol_zero, eps_term, opts.max_iter)
        # Reduce on recorded objectives first (deterministic: best value,
        # ties to the lowest start index); only the winner is finalized.
        best_idx = None
        for idx, res in enumerate(results):
            if res["terminated_by"] == "max_iter" or res["objective"] <= tol_zero:
                continue
            if best_idx is None or res["objective"] > results[best_idx]["objective"]:
                best_idx = idx
        if best_idx is None:
            try:
                _component_from_result(current.entries, results[0], tol_zero)
            except (DegenerateComponent, NonConvergence) as exc:
                exc.args = (f"component {j}: {exc.args[0]}",)
                raise
            raise DegenerateComponent(f"component {j}: no usable start")  # pragma: no cover
        best = _component_from_result(current.entries, results[best_idx], tol_zero)

        components.append(best)
        try:
            current = deflate(current, best.sign_vector)
        except DegenerateComponent as exc:
            exc.args = (f"component {j}: {exc.args[0]}",)
            raise

    return KpcaModel(components=components, spec=gram_matrix.spec, train_ref=train)


def chain_scores(components: list[ComponentModel], cross: np.ndarray) -> np.ndarray:
    """Score query rows against a component sequence via cross-Gram deflation.

    cross holds kernel evaluations between query rows and the training
    rows in the original (undeflated) feature coordinates; the deflation
    identity is replayed on it column by column.
    """
    G = np.asarray(cross, dtype=float).copy()
    cols = []
    for comp in components:
        q = (G @ comp.sign_vector) / np.sqrt(comp.objective)
        cols.append(q)
        G -= np.outer(q, comp.train_scores)
    return np.column_stack(cols)


def transform(model, query: Dataset) -> np.ndarray:
    """m x p score matrix of query samples under an L1 or L2 model.

    The query must be standardized with the model's training statistics.
    """
    if model.spec is None or model.train_ref is None:
        raise InvalidData("model carries no kernel spec / training data; cannot score new samples")
    return model.scores(cross_gram(model.spec, model.train_ref, query))
