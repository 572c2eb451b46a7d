"""L1-norm kernel PCA: the sign-vector fixed-point solver.

A component is characterized by a sign vector c in {-1,+1}^n. The solver
iterates

    c_i  <-  sgn((K c)_i)        (previous sign kept inside a zero band)

until the sign vector stops changing, which maximizes the quadratic form
c'Kc over sign vectors locally. The loading direction never needs to be
materialized: with s = c'Kc, training scores are Kc / sqrt(s), and the
kernel matrix is deflated to remove an extracted direction via

    K  <-  K - (Kc)(Kc)' / s.

Multiple components come from repeating the solve on the deflated kernel.

Out-of-sample scores apply the same deflation identity to a cross-Gram
matrix G. The identity is linear in G, so a model's scores are G W with
one n x p map W built from the sign vectors, objectives and training
scores, which is all a fitted model keeps. The iteration is well-behaved:
the iterate norm sqrt(c'Kc) / sum|Kc| never increases, and each step
contracts the norm by the ratio rho(c) = c'Kc / sum|Kc| <= 1.

There is one stopping rule: the sign vector is fixed. Every kernel spec
the package accepts gives a positive semidefinite K, on which each flipped
entry raises c'Kc by at least 4|(Kc)_i|, more than four zero bands, so
the iteration cannot cycle and reaches a fixed point in finitely many
passes; the constant MAX_ITER caps the pass count only as a fault guard.

Every component starts from the all-ones vector, plus seeded random sign
vectors. One pass of the iteration takes the all-ones vector to sgn(K 1),
the sign of K's row sums (entries inside the zero band stay +1), a
deterministic start that points toward the dominant variance direction.

The kernel comes in one of three forms (see kernel), each a KernelForm,
and one solver serves them all: the same _iterate_batch, _solve and
component loop of fit, which ask a form for its products K C, its row
patches delta @ K[rows] and its zero band's scale, and deflate through
its deflated().

- A GramMatrix: K is its dense n x n entries, deflated as above.
- A LinearFactor X of a linear Gram K = XX', never formed. The solver's
  products are K C = X (X'C) and the row patch delta @ K[rows] =
  X (X[rows]' delta); its zero band uses max_i ||x_i||^2, which equals
  max|K| in exact arithmetic, K being positive semidefinite. Deflation
  is X <- X - (Xu)u' with u = X'c / sqrt(s), whose Gram is the deflated
  K above. This is Kwak's input-space iteration (TPAMI 2008) that the
  kernel form generalizes; memory is O(n (d + starts)).
- A DeflatedGram: the undeflated dense K_0 and the stacked training
  scores T of the components taken out, standing for K_j = K_0 - TT'.
  Products are K_0 C - T (T'C) and row patches delta @ K_0[rows] -
  T (T[rows]' delta), with the zero band K_0's, computed once.
  Deflation appends Kc / sqrt(s) to T, so a fit holds K_0 and
  O(n (p + starts)) more, where the dense chain builds a new n x n
  matrix per component.

Products through a factor or through T round differently from products
with the dense deflated K, so a start may land on -c where the dense form
lands on c, and objectives and scores move in the last bits. Only detect,
which cannot show a sign, fits on those two forms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateComponent, InvalidData, NonConvergence
from .kernel import Dataset, KernelForm, KernelSpec, _tile_rows, cross_gram, standardize_with

# Pass cap of every solve, a fault guard; reaching it raises NonConvergence.
MAX_ITER = 1000
DEFAULT_STARTS = 8


def _is_integer(value) -> bool:
    """The package's integer rule: a Python or numpy integer, not a float such as 2.0 or a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class FitOptions:
    """Multi-start knobs of fit: the start count and the seed of the random starts."""

    starts: int = DEFAULT_STARTS
    seed: int = 0

    def __post_init__(self):
        for name, value in (("start count", self.starts), ("seed", self.seed)):
            if not _is_integer(value):
                raise InvalidData(f"{name} {value} must be an integer")
        if self.starts < 1:
            raise InvalidData(f"start count {self.starts} must be at least 1")
        # numpy's SeedSequence takes non-negative entropy only.
        if self.seed < 0:
            raise InvalidData(f"seed {self.seed} must be at least 0")


def _zero_band(K: KernelForm) -> float:
    """The zero band 1e-12 * n * max|K|."""
    return 1e-12 * K.shape[0] * K.max_abs()


def _quadratic_form(K: KernelForm, c: np.ndarray, tol_zero: float,
                    message: str) -> tuple[np.ndarray, float]:
    """Kc and c'Kc; raises DegenerateComponent(message.format(c'Kc)) inside the zero band."""
    v = K @ c
    s = float(c @ v)
    if s <= tol_zero:
        raise DegenerateComponent(message.format(s))
    return v, s


@dataclass
class ConvergenceReport:
    """Per-iteration diagnostics of one fixed-point solve.

    norm_trace[k] is the iterate norm sqrt(c'Kc) / sum|Kc| computed from
    the k-th sign vector; rate_estimates[k] is the contraction ratio
    rho(c^k) = c'Kc / sum|Kc|. terminated_by is sign_fixed (the sign
    vector is a fixed point) or max_iter (none after MAX_ITER passes).
    zero_band_hits counts entries of Kc that fell inside the sign-retention
    band over the whole run. Model files from earlier versions may also
    hold quadratic_form_zero, a retired stopping rule; they still load.
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

    Shares training_scores() / projection(p) / scores(cross) with
    l2.EigenModel, so transform() and detection take either model.
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

    def projection(self, p: int | None = None) -> np.ndarray:
        """n x p map W that scores the first p components (default all) as cross @ W.

        p must be in [1, n_components]; any other count raises InvalidData.
        """
        return _chain_map(self.components[:_require_count(p, self.n_components)])

    def scores(self, cross: np.ndarray, p: int | None = None) -> np.ndarray:
        """Scores of cross-Gram rows on the first p components (default all).

        p must be in [1, n_components]; any other count raises InvalidData.
        """
        return _project(cross, self.projection(p))


def _require_count(p: int | None, available: int) -> int:
    """p, or available when p is None, after checking p is an integer in [1, available].

    The one component-count rule: every fit, eigen-solve and model score
    of both model kinds checks its count here, with one InvalidData message.
    The integer rule is _is_integer's.
    """
    if p is not None and not (_is_integer(p) and 1 <= p <= available):
        raise InvalidData(f"component count {p} not in [1, {available}]")
    return available if p is None else p


def _project(cross: np.ndarray, W: np.ndarray) -> np.ndarray:
    """cross @ W, after checking cross is a matrix with one column per row of W.

    The one scoring product of both model kinds: W is a model's projection().
    """
    if np.ndim(cross) != 2 or np.shape(cross)[1] != W.shape[0]:
        raise InvalidData(f"expected matrix with {W.shape[0]} columns, got shape {np.shape(cross)}")
    return np.asarray(cross, dtype=float) @ W


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


def _iterate_batch(K: KernelForm, C0: np.ndarray,
                   tol_zero: float) -> list[tuple[np.ndarray, float, ConvergenceReport]]:
    """Run the fixed-point iteration on each column of C0 simultaneously.

    All columns share one K @ C product on the first pass; afterwards a
    column that flips only a few signs gets its Kc product patched with a
    skinny rank-update (delta @ K[flipped], K's row_patch) instead of a
    fresh product, and heavy-flip columns are recomputed together in one
    product. Each column's trajectory is the same as running it alone, so
    results do not depend on batching or scheduling. A column stops only when a pass
    flips no sign (terminated_by="sign_fixed"). Returns one (sign vector,
    recorded objective c'Kc, report) record per column; a column without
    a fixed point after MAX_ITER passes has terminated_by="max_iter" and
    objective NaN.

    Each pass copies the active columns of C and V = KC into arrays with
    one C-contiguous row per column and does the elementwise work for all
    of them at once: |Kc| and its row sums (the same pairwise sums as one
    column's np.abs(v).sum()), the zero-band mask and its hits, the next
    sign vectors, the flipped entries, split by row from one flat index,
    and their patch deltas 2 c_next, which equal c_next - c exactly. Per
    column stay only the BLAS calls whose rounding reaches the output: the
    objective c'Kc, a strided ddot whose bits pick the winner among starts
    and so decide between c and -c when two starts tie; the patch gemv;
    and the shared recompute gemm. The first two go through ndarray.dot,
    the same BLAS calls as @ with less call overhead.
    """
    n, m = C0.shape
    C = C0.copy()
    V = K @ C  # V[:, j] tracks K @ C[:, j] across passes
    # C and V are only ever written in place, so their column views stay valid.
    c_cols, v_cols = list(C.T), list(V.T)
    row_ends = n * np.arange(1, m + 1)  # flat index where each row of a pass ends
    active = list(range(m))
    # Per-column fixed point: (iterations, objective), or None.
    out: list[tuple[int, float] | None] = [None] * m
    traces: list[list[float]] = [[] for _ in range(m)]
    rates: list[list[float]] = [[] for _ in range(m)]
    band_hits = [0] * m
    incr_cutoff = max(1, n // 8)

    for k in range(MAX_ITER):
        cols = np.array(active)
        CT, VT = C.T[cols], V.T[cols]
        abs_v = np.abs(VT)
        in_band = abs_v <= tol_zero
        C_next = np.sign(VT)
        hits = [0] * len(active)
        # Band entries are rare; without one the mask steps are skipped.
        if np.count_nonzero(in_band):
            np.copyto(C_next, CT, where=in_band)
            hits = in_band.sum(axis=1).tolist()
        flat = (C_next != CT).ravel().nonzero()[0]
        flipped = flat % n
        deltas = 2.0 * C_next.take(flat)
        ends = np.searchsorted(flat, row_ends[:len(active)]).tolist()

        still, recompute, a = [], [], 0
        for col, denom, h, b in zip(active, np.add.reduce(abs_v, axis=1).tolist(), hits, ends):
            s = float(c_cols[col].dot(v_cols[col]))
            traces[col].append(math.sqrt(max(s, 0.0)) / denom if denom > 0 else 0.0)
            rates[col].append(s / denom if denom > 0 else 0.0)
            band_hits[col] += h
            if a == b:
                out[col] = (k + 1, s)
                continue
            if b - a <= incr_cutoff:
                v_cols[col] += K.row_patch(deltas[a:b], flipped[a:b])
            else:
                recompute.append(col)
            still.append(col)
            a = b

        # A column that flipped nothing gets its own signs back.
        C.T[cols] = C_next
        if recompute:
            V[:, recompute] = K @ C[:, recompute]
        active = still
        if not active:
            break

    records = []
    for col in range(m):
        iterations, objective = out[col] or (MAX_ITER, np.nan)
        # The multiplier 1 / (2 * norm) exists only at a fixed point of nonzero norm.
        norm = traces[col][-1] if out[col] else 0.0
        report = ConvergenceReport(
            iterations=iterations, norm_trace=traces[col],
            terminated_by="sign_fixed" if out[col] else "max_iter",
            rate_estimates=rates[col],
            lagrange_multiplier=1.0 / (2.0 * norm) if norm > 0 else np.nan,
            zero_band_hits=band_hits[col])
        records.append((C[:, col].copy(), objective, report))
    return records


def _solve(K: KernelForm, C0: np.ndarray, tol_zero: float) -> ComponentModel:
    """One component from the starts in C0's columns: iterate, reduce, finalize.

    Starts whose recorded objective clears the zero band compete on it
    (ties: lowest start index); only the winner's Kc and c'Kc are
    recomputed. With no such start, start 0 is finalized, which raises
    its NonConvergence or DegenerateComponent.
    """
    records = _iterate_batch(K, C0, tol_zero)
    usable = [idx for idx, (_, objective, _) in enumerate(records) if objective > tol_zero]
    c, _, report = records[max(usable, key=lambda idx: records[idx][1], default=0)]
    if report.terminated_by == "max_iter":
        raise NonConvergence(f"no fixed point after {report.iterations} iterations", report=report)
    v, s = _quadratic_form(K, c, tol_zero, "objective {:.3e} is numerically zero at termination")
    return ComponentModel(sign_vector=c, objective=s, report=report, train_scores=v / np.sqrt(s))


def fit_component(gram_matrix: KernelForm, c0) -> ComponentModel:
    """Iterate the sign-update map from c0 until the sign vector is fixed.

    Terminates only when the updated vector equals the previous one
    elementwise, which on the positive semidefinite kernels the package
    accepts happens in finitely many passes. Raises NonConvergence (with
    the partial report attached) if MAX_ITER passes find no fixed point,
    and DegenerateComponent if the terminal objective c'Kc is numerically
    zero.
    """
    c0 = validate_sign_vector(c0, gram_matrix.shape[0])
    return _solve(gram_matrix, c0[:, None], _zero_band(gram_matrix))


def random_starts(n: int, count: int, seed) -> np.ndarray:
    """count seeded uniform +-1 columns; seed may be any default_rng seed."""
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 2, size=(n, count)) * 2 - 1).astype(float)


def deflate(gram_matrix: KernelForm, c) -> KernelForm:
    """Remove an extracted direction from the kernel: K - (Kc)(Kc)'/(c'Kc).

    The result is of the argument's form (see its deflated()) and
    annihilates c's direction (c'Kc drops to rounding noise). A c'Kc inside
    the form's zero band raises DegenerateComponent.
    """
    c = validate_sign_vector(c, gram_matrix.shape[0])
    v, s = _quadratic_form(gram_matrix, c, _zero_band(gram_matrix),
                           "cannot deflate: objective {:.3e} is numerically zero")
    return gram_matrix.deflated(c, v, s)


def fit(gram_matrix: KernelForm, p: int,
        options: FitOptions | None = None) -> KpcaModel:
    """Extract p components by multi-start solves on the successively deflated kernel.

    For each component the solver runs from the all-ones vector, whose
    first pass gives the sign of the row sums, plus options.starts - 1
    seeded random sign vectors (all columns of one batched iteration),
    keeps the candidate with the largest objective (ties: lowest start
    index), then deflates the kernel.
    Components are ordered by extraction order. Errors carry the index of
    the component that failed; a component past the kernel's rank raises
    DegenerateComponent. The model's training data is gram_matrix.data.
    gram_matrix may be any kernel form (see the module docstring); the
    kernel is deflated in that form.
    """
    opts = options or FitOptions()
    n = gram_matrix.shape[0]
    p = _require_count(p, n)

    # The zero band scales with the undeflated K: a deflated K_j's own
    # max|K_j| shrinks to rounding noise once the kernel's rank is used up,
    # and a band scaled to it would pass noise.
    tol_zero = _zero_band(gram_matrix)
    current = gram_matrix
    components: list[ComponentModel] = []
    for j in range(p):
        # Random starts come from a per-component stream keyed on (seed, j)
        # so component count does not reshuffle earlier components' starts.
        C0 = np.column_stack([np.ones(n), random_starts(n, opts.starts - 1, seed=[opts.seed, j])])

        try:
            best = _solve(current, C0, tol_zero)
        except (DegenerateComponent, NonConvergence) as exc:
            exc.args = (f"component {j}: {exc.args[0]}",)
            raise
        components.append(best)
        # The winner cleared K's band with deflate()'s own product, and on a
        # positive semidefinite kernel max|K_j| <= max|K|, so deflate() cannot
        # refuse it. Nothing reads the last deflated matrix.
        if j + 1 < p:
            current = deflate(current, best.sign_vector)

    return KpcaModel(components=components, spec=gram_matrix.spec, train_ref=gram_matrix.data)


def _chain_map(components: list[ComponentModel]) -> np.ndarray:
    """The n x p linear map W that scores cross-Gram rows: scores = G W.

    Component j scores query rows through the deflated cross-Gram
    G_j = G - sum_{i<j} q_i t_i', where t_i are the training scores, so
    q_j = G w_j with

        w_j = (c_j - sum_{i<j} w_i (t_i . c_j)) / sqrt(s_j).

    W is triangular in the components: the map of the first p components
    is the first p columns of the full map.
    """
    W = np.array([comp.sign_vector for comp in components], dtype=float).T
    B = np.column_stack([comp.train_scores for comp in components]).T @ W
    # In place: columns before j already hold w_i, column j still holds c_j.
    for j, comp in enumerate(components):
        W[:, j] = (W[:, j] - W[:, :j] @ B[:j, j]) / np.sqrt(comp.objective)
    return W


def chain_scores(components: list[ComponentModel], cross: np.ndarray) -> np.ndarray:
    """Score query rows against a component sequence via cross-Gram deflation.

    cross holds kernel evaluations G between query rows and the training
    rows in the original (undeflated) feature coordinates. The scores are
    the one product G W with the map W of KpcaModel.projection; G is
    neither copied nor deflated.
    """
    return _project(cross, _chain_map(components))


def transform(model, raw) -> np.ndarray:
    """m x p score matrix of raw query rows under an L1 or L2 model.

    raw holds samples as read, in the training data's columns. They are
    mapped into the training coordinates once, with the column means and
    stds of model.train_ref; a model without training data raises
    InvalidData. The model's projection W is built once; query rows are
    then scored one row tile (about 1 MB of cross-Gram entries) at a time,
    each with the one product tile @ W, so memory holds the standardized
    query, one tile plus W and the m x p result. A query on which the
    kernel overflows or is undefined raises InvalidData, as gram() does.
    """
    train = model.train_ref
    if train is None:
        raise InvalidData("model carries no training data; cannot score new samples")
    query = standardize_with(raw, train.column_means, train.column_stds)
    W = model.projection()
    m, step = query.n_samples, _tile_rows(train.n_samples)
    out = np.empty((m, W.shape[1]))
    # A non-finite kernel value makes its whole score row non-finite (inf * w is
    # inf or NaN), so one check of the result refuses it; its float warnings are noise.
    with np.errstate(all="ignore"):
        for a in range(0, m, step):
            tile = replace(query, values=query.values[a:a + step])
            out[a:a + step] = _project(cross_gram(model.spec, train, tile), W)
    if not np.all(np.isfinite(out)):
        raise InvalidData(f"the {model.spec.family} kernel gives non-finite values on this query data")
    return out
