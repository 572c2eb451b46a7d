"""Kernel functions, Gram matrices, and input standardization.

Data is column-standardized (mean 0, sample std 1 with divisor n-1) before
any kernel is evaluated; there is no feature-space centering anywhere in
this package. Three kernel families are supported:

    linear       k(a, b) = a.b
    gaussian     k(a, b) = exp(-||a - b||^2 / (2 sigma^2))
    polynomial   k(a, b) = (a.b + offset)^degree

Datasets, kernel specs and Gram matrices are frozen after construction
(arrays are marked read-only), so they can be shared across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidData

KERNEL_FAMILIES = ("linear", "gaussian", "polynomial")

# Dense Gram matrices only; cap n to bound the O(n^2) memory footprint.
MAX_GRAM_SIZE = 20_000


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
        if self.family == "gaussian" and not self.sigma > 0:
            raise InvalidData(f"gaussian width must be positive, got {self.sigma}")
        if self.family == "polynomial":
            if int(self.degree) != self.degree or self.degree < 1:
                raise InvalidData(f"polynomial degree must be a positive integer, got {self.degree}")

    def to_dict(self) -> dict:
        return {"family": self.family, "sigma": self.sigma,
                "degree": self.degree, "offset": self.offset}

    @classmethod
    def from_dict(cls, d: dict) -> "KernelSpec":
        return cls(family=d["family"], sigma=d.get("sigma", 1.0),
                   degree=d.get("degree", 2), offset=d.get("offset", 1.0))


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric n x n matrix of pairwise kernel evaluations."""

    entries: np.ndarray
    spec: KernelSpec = field(default_factory=KernelSpec)

    def __post_init__(self):
        self.entries.flags.writeable = False

    @property
    def n(self) -> int:
        return self.entries.shape[0]


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


def standardize(raw) -> Dataset:
    """Standardize each column to mean 0, sample std 1 (divisor n-1).

    Constant columns (and the single-sample case, where a sample std does
    not exist) map to zeros with a recorded std of 1 so that downstream
    kernels see them as contributing nothing.
    """
    mat = _check_matrix(raw)
    means = mat.mean(axis=0)
    if mat.shape[0] > 1:
        stds = mat.std(axis=0, ddof=1)
    else:
        stds = np.zeros(mat.shape[1])
    stds = np.where(stds > 0, stds, 1.0)
    return Dataset(values=(mat - means) / stds, column_means=means, column_stds=stds)


def standardize_with(raw, means, stds, labels=None) -> Dataset:
    """Map raw samples into a training set's standardized coordinates."""
    mat = _check_matrix(raw)
    means = np.asarray(means, dtype=float)
    stds = np.asarray(stds, dtype=float)
    if mat.shape[1] != means.shape[0]:
        raise InvalidData(f"feature count {mat.shape[1]} does not match recorded statistics ({means.shape[0]})")
    return Dataset(values=(mat - means) / stds, column_means=means.copy(),
                   column_stds=stds.copy(), labels=labels)


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


def _pairwise(spec: KernelSpec, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    if spec.family == "linear":
        return left @ right.T
    if spec.family == "gaussian":
        # Explicit differences (not the dot-product expansion) so entries
        # match kernel_eval to rounding for every pair.
        diff = left[:, None, :] - right[None, :, :]
        sqdist = np.einsum("ijk,ijk->ij", diff, diff)
        return np.exp(-sqdist / (2.0 * spec.sigma**2))
    return (left @ right.T + spec.offset) ** spec.degree


def gram(spec: KernelSpec, data: Dataset) -> GramMatrix:
    """Pairwise kernel matrix of a dataset, exactly symmetric by mirroring."""
    n = data.n_samples
    if n > MAX_GRAM_SIZE:
        raise InvalidData(f"n={n} exceeds the dense Gram cap of {MAX_GRAM_SIZE}")
    full = _pairwise(spec, data.values, data.values)
    upper = np.triu(full)
    entries = upper + np.triu(full, 1).T
    return GramMatrix(entries=entries, spec=spec)


def cross_gram(spec: KernelSpec, train: Dataset, query: Dataset) -> np.ndarray:
    """m x n matrix of kernel evaluations between query rows and training rows.

    The query is expected to be standardized with the training set's
    recorded statistics when it represents held-out samples.
    """
    if query.n_features != train.n_features:
        raise InvalidData(f"query has {query.n_features} features, train has {train.n_features}")
    return _pairwise(spec, query.values, train.values)
