"""Kernel functions, Gram matrices, and input standardization.

Data is column-standardized (mean 0, sample std 1 with divisor n-1) before
any kernel is evaluated; there is no feature-space centering anywhere in
this package. Three kernel families are supported:

    linear       k(a, b) = a.b
    gaussian     k(a, b) = exp(-||a - b||^2 / (2 sigma^2))
    polynomial   k(a, b) = (a.b + offset)^degree,  offset >= 0

All three give positive semidefinite Gram matrices, which the sign
iteration in l1 needs to reach a fixed point in finitely many passes.

Datasets, kernel specs and every kernel form are frozen after construction
(arrays are marked read-only), so no later step can change them in place.

The L1 solver takes a kernel in one of three forms, each a KernelForm. It
asks a form for products only, K C and the row patch delta @ K[rows], plus
its zero band's scale max|K| and its deflated form:

- GramMatrix, the dense n x n matrix, for every family; it deflates into
  a new dense matrix;
- LinearFactor, the n x d factor X of a linear Gram K = XX'. K is never
  formed: each product the solver needs is one with X and X', in
  O(n (d + m)) memory for m columns, and no n cap applies.
- DeflatedGram, a dense undeflated Gram K_0 with the n x j training
  scores T of the components taken out of it, standing for
  K_j = K_0 - TT'. K_j is never formed: each product is one with K_0 and
  a skinny one with T, and a deflation appends a column to T, so a fit
  holds K_0 and O(n (j + m)) more, not a new n x n matrix per component.

Memory: a Gram matrix of any family peaks at about n^2 floats plus one
~1 MB working tile (3.2 GB at the n = 20 000 cap), a cross-Gram at about
m*n floats plus the m + n row norms. The polynomial kernel is evaluated
in place on the product a.b. Every kernel matrix is one matrix product,
the gaussian through the norm expansion ||a-b||^2 = ||a||^2 + ||b||^2 -
2 a.b (it matches kernel_eval within the rounding of that expansion),
with one exception: gram() evaluates the gaussian in row tiles of explicit
differences, so its entries keep the dense formula's bits. Those bits
settle the sign of a fitted component where starts tie, and fitted signs
are output (model files, transform scores). Every family's Gram is
mirrored in place, tile by tile.

Which command builds which form: fit, fit-l2, oracle and bench fit on
gram(), whose signs they output or time; an L1 fit there deflates the
dense matrix. detect prints no sign (only variances, squared scores and
PR-AUC), so it takes the cheaper forms: a LinearFactor for the linear L1
fit, a DeflatedGram over the one-product _gram() for the gaussian and
polynomial L1 fits, and _gram() itself for the L2 fit. The robustness
sweep's TEV is sign-invariant too, and it fits on _gram().
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .errors import InvalidData

KERNEL_FAMILIES = ("linear", "gaussian", "polynomial")

# Dense Gram matrices only; cap n to bound the O(n^2) memory footprint:
# n^2 floats plus one working tile, 3.2 GB at the cap.
MAX_GRAM_SIZE = 20_000

# Target size of one working tile: a block of gaussian differences, or the
# source block of one mirror copy. A tile holds at least one row.
_TILE_BYTES = 1 << 20


@dataclass(frozen=True)
class Dataset:
    """Column-standardized sample matrix with optional outlier labels.

    values has one row per sample; column_means / column_stds are the
    statistics recorded at standardization time so held-out data can be
    mapped into the same coordinates.
    """

    values: np.ndarray
    column_means: np.ndarray
    column_stds: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        for arr in (self.values, self.column_means, self.column_stds, self.labels):
            if arr is not None:
                arr.flags.writeable = False

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


def _overflows_float(value) -> bool:
    """True for a real number, such as 10**400, that float() cannot hold."""
    try:
        float(value)
    except OverflowError:
        return True
    return False


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its parameters."""

    family: str = "linear"
    sigma: float = 1.0
    degree: int = 2
    offset: float = 1.0

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise InvalidData(f"unknown kernel family {self.family!r}")
        # The checks below compare and convert the fields: anything but a real
        # number that a float can hold (a string, None, an int past 1.8e308) is
        # refused first.
        for name in ("sigma", "degree", "offset"):
            value = getattr(self, name)
            if not isinstance(value, (numbers.Real, np.bool_)) or _overflows_float(value):
                raise InvalidData(f"kernel {name} must be a finite number, got {value!r}")
        if self.family == "gaussian" and not self.sigma > 0:
            raise InvalidData(f"gaussian width must be positive, got {self.sigma}")
        if self.family == "polynomial":
            if not self.degree >= 1:
                raise InvalidData(f"polynomial degree must be a positive integer, got {self.degree}")
            # A negative offset can make K indefinite, where the sign iteration may cycle.
            if not self.offset >= 0:
                raise InvalidData(f"polynomial offset must be non-negative, got {self.offset}")
        # Model files store every field, whatever the family, and read back finite
        # numbers only (no booleans), through a float: the degree must be exact there.
        for name in ("sigma", "degree", "offset"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not math.isfinite(value):
                raise InvalidData(f"kernel {name} must be a finite number, got {value}")
        if int(self.degree) != self.degree or abs(self.degree) > 2**53:
            raise InvalidData(f"kernel degree must be a whole number of size at most 2**53, "
                              f"got {self.degree}")
        for name, kind in (("sigma", float), ("degree", int), ("offset", float)):
            object.__setattr__(self, name, kind(getattr(self, name)))

    def to_dict(self) -> dict:
        return {"family": self.family, "sigma": self.sigma,
                "degree": self.degree, "offset": self.offset}


class KernelForm(Protocol):
    """What the L1 solver asks of a kernel K, whatever its form.

    Every form stands for a symmetric positive semidefinite n x n K.
    deflated(c, v, s), given v = Kc and s = c'Kc > 0, returns the same form
    of K - vv'/s.
    """

    @property
    def shape(self) -> tuple[int, int]: ...

    def __matmul__(self, C: np.ndarray) -> np.ndarray:
        """K @ C."""

    def row_patch(self, delta: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """delta @ K[rows]: the change of Kc when the entries rows of c change by delta."""

    def max_abs(self) -> float:
        """The scale of the solver's zero band, max|K|."""

    def deflated(self, c: np.ndarray, v: np.ndarray, s: float) -> KernelForm: ...


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric n x n kernel matrix; data is the Dataset gram() built it from, else None.

    The L1 solver's dense form of K. Its entries are read-only, so its
    max|K| is computed on first use and kept.
    """

    entries: np.ndarray
    spec: KernelSpec = field(default_factory=KernelSpec)
    data: Dataset | None = None

    def __post_init__(self):
        self.entries.flags.writeable = False

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def __matmul__(self, C: np.ndarray) -> np.ndarray:
        return self.entries @ C

    def row_patch(self, delta: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """delta @ K[rows]."""
        # K is exactly symmetric: gather contiguous rows, not strided columns.
        return delta.dot(self.entries.take(rows, axis=0))

    def max_abs(self) -> float:
        """max|K|."""
        return self._max_abs

    @functools.cached_property
    def _max_abs(self) -> float:
        # Without materializing np.abs(K); K is O(n^2). max and min propagate
        # NaN and reach any infinity, so the result is finite iff every entry is.
        return float(max(self.entries.max(), -self.entries.min()))

    def deflated(self, c: np.ndarray, v: np.ndarray, s: float) -> GramMatrix:
        """The dense K - vv'/s, exactly symmetric; like every deflated form, it has no data."""
        # outer(v, v) is exactly symmetric, so the difference stays exactly
        # symmetric. One n x n array holds outer(v, v), then / s, then K - it.
        entries = np.outer(v, v)
        entries /= s
        np.subtract(self.entries, entries, out=entries)
        return GramMatrix(entries=entries, spec=self.spec)


@dataclass(frozen=True)
class LinearFactor:
    """The n x d factor X = values of a linear Gram K = XX', which is never formed.

    The L1 solver's factor form of K: it answers every product the solver
    asks for through X and X', and a deflated factor is again a factor.
    data is the Dataset the factor came from, else None, as GramMatrix.data;
    like a deflated Gram, a deflated factor has none.
    """

    values: np.ndarray
    spec: KernelSpec = field(default_factory=KernelSpec)
    data: Dataset | None = None

    def __post_init__(self):
        if self.spec.family != "linear":
            raise InvalidData(f"a linear factor stands for a linear Gram, "
                              f"not a {self.spec.family} one")
        self.values.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        """The shape of K, n x n."""
        return (self.values.shape[0],) * 2

    def __matmul__(self, C: np.ndarray) -> np.ndarray:
        """K @ C as X (X'C)."""
        return self.values @ (self.values.T @ C)

    def row_patch(self, delta: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """delta @ K[rows] as X (X[rows]' delta); no row of K is built."""
        return self.values @ delta.dot(self.values.take(rows, axis=0))

    def max_abs(self) -> float:
        """max_i ||x_i||^2, the largest diagonal entry of K.

        K is positive semidefinite, so |K_ij| <= sqrt(K_ii K_jj) and this
        equals max|K| in exact arithmetic.
        """
        return float(np.einsum("ij,ij->i", self.values, self.values).max())

    def deflated(self, c: np.ndarray, v: np.ndarray, s: float) -> LinearFactor:
        """X - (Xu)u' with the unit vector u = X'c / sqrt(s): its Gram is K - vv'/s."""
        X = self.values
        u = (X.T @ c) / math.sqrt(s)
        return LinearFactor(values=X - np.outer(X @ u, u), spec=self.spec)


@dataclass(frozen=True)
class DeflatedGram:
    """K_j = K_0 - TT' for the dense Gram K_0 = base and T = scores, n x j; K_j is never formed.

    The L1 solver's implicitly deflated form of K. Its products are
    K_0's plus a skinny correction with T, and deflating it by c appends
    t = K_j c / sqrt(c'K_j c) to T, since tt' is the dense deflation's
    (K_j c)(K_j c)' / (c'K_j c). max|K_0| is computed once, on base, and
    every deflated form reads it there. The zero band stays K_0's, the
    band fit uses for every component anyway; on a positive semidefinite
    K_0 it bounds K_j's. scores defaults to no column, K_0 itself. A base
    that is not square or has a non-finite entry raises InvalidData. data
    is base's, and like a deflated Gram, a deflated form has none.
    """

    base: GramMatrix
    scores: np.ndarray | None = None

    def __post_init__(self):
        shape = self.base.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise InvalidData(f"expected a square kernel matrix, got shape {shape}")
        if not math.isfinite(self.base.max_abs()):
            raise _non_finite(self.base.spec)
        if self.scores is None:
            object.__setattr__(self, "scores", np.empty((shape[0], 0)))
        self.scores.flags.writeable = False

    @property
    def spec(self) -> KernelSpec:
        return self.base.spec

    @property
    def data(self) -> Dataset | None:
        return self.base.data if self.scores.shape[1] == 0 else None

    @property
    def shape(self) -> tuple[int, int]:
        return self.base.shape

    def __matmul__(self, C: np.ndarray) -> np.ndarray:
        """K_j @ C as K_0 C - T (T'C)."""
        return self.base @ C - self.scores @ (self.scores.T @ C)

    def row_patch(self, delta: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """delta @ K_j[rows] as delta @ K_0[rows] - T (T[rows]' delta)."""
        return (self.base.row_patch(delta, rows)
                - self.scores @ delta.dot(self.scores.take(rows, axis=0)))

    def max_abs(self) -> float:
        """max|K_0|."""
        return self.base.max_abs()

    def deflated(self, c: np.ndarray, v: np.ndarray, s: float) -> DeflatedGram:
        """The same K_0 with t = v / sqrt(s) appended to T."""
        return DeflatedGram(base=self.base, scores=np.column_stack([self.scores, v / np.sqrt(s)]))


def _check_matrix(raw) -> np.ndarray:
    try:
        mat = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidData(f"input is not numeric: {exc}") from exc
    if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
        raise InvalidData(f"expected a non-empty 2-d matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise InvalidData("input matrix contains non-finite entries")
    return mat


def standardize(raw, labels=None) -> Dataset:
    """Standardize each column to mean 0, sample std 1 (divisor n-1).

    Constant columns (and the single-sample case, where a sample std does
    not exist) map to zeros with a recorded std of 1 so that downstream
    kernels see them as contributing nothing. labels ride along unchanged.
    """
    mat = _check_matrix(raw)
    means = mat.mean(axis=0)
    if mat.shape[0] > 1:
        stds = mat.std(axis=0, ddof=1)
    else:
        stds = np.zeros(mat.shape[1])
    stds = np.where(stds > 0, stds, 1.0)
    return Dataset(values=(mat - means) / stds, column_means=means, column_stds=stds,
                   labels=labels)


def standardize_with(raw, means, stds) -> Dataset:
    """Map raw samples into a training set's standardized coordinates."""
    mat = _check_matrix(raw)
    means = np.asarray(means, dtype=float)
    stds = np.asarray(stds, dtype=float)
    if mat.shape[1] != means.shape[0]:
        raise InvalidData(f"feature count {mat.shape[1]} does not match recorded statistics ({means.shape[0]})")
    return Dataset(values=(mat - means) / stds, column_means=means.copy(),
                   column_stds=stds.copy())


def kernel_eval(spec: KernelSpec, a, b) -> float:
    """Evaluate the kernel on a single pair of vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise InvalidData(f"kernel arguments must be same-length vectors, got {a.shape} and {b.shape}")
    if spec.family == "linear":
        return float(a @ b)
    if spec.family == "gaussian":
        diff = a - b
        return float(np.exp(-(diff @ diff) / (2.0 * spec.sigma**2)))
    return float((a @ b + spec.offset) ** spec.degree)


def _tile_rows(row_floats: int) -> int:
    """Rows per tile when each row of the tile holds row_floats floats."""
    return max(1, _TILE_BYTES // (8 * row_floats))


def _gaussian(spec: KernelSpec, values: np.ndarray) -> np.ndarray:
    """Upper triangle of the gaussian Gram of values, one row tile at a time.

    Each tile starts at its first row's diagonal column, so only the upper
    triangle plus each tile's strict lower corner is filled; the rest of
    the result is left uninitialized.
    """
    n = values.shape[0]
    out = np.empty((n, n))
    a = 0
    while a < n:
        b = min(n, a + _tile_rows((n - a) * values.shape[1]))
        # Explicit differences, not the norm expansion that _pairwise uses,
        # for gram() alone: its bits drive the sign iteration, where starts
        # converging to +c and -c tie and rounding settles which one wins,
        # and the winner's signs are output. With the expansion here, two
        # benchmark seeds flipped a component's sign. Sign-invariant
        # results (the robustness sweep's TEV) use the expansion; moving
        # gram() waits for a canonical sign per component.
        diff = values[a:b, None, :] - values[None, a:, :]
        sqdist = np.einsum("ijk,ijk->ij", diff, diff)
        out[a:b, a:] = np.exp(-sqdist / (2.0 * spec.sigma**2))
        a = b
    return out


def _pairwise(spec: KernelSpec, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """m x n kernel matrix between left rows and right rows.

    The gaussian uses ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b: one product
    left @ right.T, then in-place updates on that m x n result, so memory
    is the result plus the m + n row norms. Squared distances that round
    below 0 are clamped to 0. Entries differ from the explicit-difference
    formula by cancellation in the expansion: at most about
    4 (d + 2) eps (||a||^2 + ||b||^2) / (2 sigma^2) relative.
    """
    out = left @ right.T
    if spec.family == "linear":
        return out
    if spec.family == "gaussian":
        out *= -2.0
        out += np.einsum("ij,ij->i", left, left)[:, None]
        out += np.einsum("ij,ij->i", right, right)
        np.maximum(out, 0.0, out=out)
        out /= -2.0 * spec.sigma**2
        return np.exp(out, out=out)
    out += spec.offset
    out **= spec.degree
    return out


def _mirror_upper(entries: np.ndarray) -> None:
    """Copy the upper triangle onto the lower one in place, one row tile at a time.

    Only strict-lower entries are written, so the upper triangle is kept
    as computed even where BLAS left full[a, b] != full[b, a].
    """
    n = entries.shape[0]
    step = _tile_rows(n)
    for a in range(0, n, step):
        b = min(n, a + step)
        block = entries[a:b, a:b]
        np.copyto(block, block.T, where=np.tri(b - a, k=-1, dtype=bool))
        entries[b:, a:b] = entries[a:b, b:].T


def _non_finite(spec: KernelSpec) -> InvalidData:
    return InvalidData(f"the {spec.family} kernel gives non-finite Gram entries on this data")


def require_finite(spec: KernelSpec, entries: np.ndarray) -> None:
    """Raise InvalidData unless every entry of a kernel matrix is finite."""
    # max and min propagate NaN and reach any infinity without an n x n temporary.
    if not (np.isfinite(entries.max()) and np.isfinite(entries.min())):
        raise _non_finite(spec)


def gram(spec: KernelSpec, data: Dataset) -> GramMatrix:
    """Pairwise kernel matrix of a dataset, exactly symmetric by mirroring.

    The gaussian kernel is evaluated on the upper triangle only, with
    explicit differences. A kernel whose values overflow or are undefined
    on this data (a gaussian width so small that 2 sigma^2 rounds to 0, a
    polynomial past the float range) raises InvalidData.
    """
    return _gram(spec, data, one_product=spec.family != "gaussian")


def _gram(spec: KernelSpec, data: Dataset, one_product: bool = True) -> GramMatrix:
    """gram(), with every family evaluated as the one product of _pairwise.

    one_product=False evaluates the gaussian's explicit-difference tiles
    instead (gaussian specs only). With the product, gaussian entries
    differ from gram()'s in the last bits, which can flip which of +c and
    -c a fit returns: use it only where the result cannot see a sign.
    The size cap is checked before anything is evaluated.
    """
    n = data.n_samples
    if n > MAX_GRAM_SIZE:
        raise InvalidData(f"n={n} exceeds the dense Gram cap of {MAX_GRAM_SIZE}")
    values = data.values
    # Non-finite entries are refused below, so their float warnings are noise.
    with np.errstate(all="ignore"):
        entries = _pairwise(spec, values, values) if one_product else _gaussian(spec, values)
    # l1._iterate_batch gathers rows for columns, so K must be exactly symmetric.
    _mirror_upper(entries)
    require_finite(spec, entries)
    return GramMatrix(entries=entries, spec=spec, data=data)


def cross_gram(spec: KernelSpec, train: Dataset, query: Dataset) -> np.ndarray:
    """m x n matrix of kernel evaluations between query rows and training rows.

    The query is expected to be standardized with the training set's
    recorded statistics when it represents held-out samples. Gaussian
    entries come from the norm expansion (see _pairwise), so they match
    kernel_eval and gram within rounding, not bit for bit.
    """
    if query.n_features != train.n_features:
        raise InvalidData(f"query has {query.n_features} features, train has {train.n_features}")
    return _pairwise(spec, query.values, train.values)
