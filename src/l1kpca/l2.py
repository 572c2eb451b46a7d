"""L2-norm kernel PCA baseline: symmetric eigendecomposition of the Gram.

Used for robustness and runtime comparisons against the L1 solver and as
the orthonormal-maximum denominator of the explained-variation metric.
No feature-space centering (inputs are column-standardized instead).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateComponent, InvalidData, NumericalFailure
from .kernel import Dataset, GramMatrix, KernelSpec


@dataclass
class EigenModel:
    """Top-p eigenpairs of a Gram matrix.

    eigenvalues are descending and nonnegative; coefficient_vectors is the
    n x p matrix of unit-norm eigenvectors, each column's sign fixed by
    making its largest-magnitude entry positive. spec/train_ref are
    optional attachments for persistence and out-of-sample scoring.
    Shares training_scores() / scores(cross) with l1.KpcaModel.
    """

    eigenvalues: np.ndarray
    coefficient_vectors: np.ndarray
    spec: KernelSpec | None = None
    train_ref: Dataset | None = None

    @property
    def n_components(self) -> int:
        return self.eigenvalues.shape[0]

    def training_scores(self) -> np.ndarray:
        """Training scores without re-projecting: column j is sqrt(mu_j) u_j."""
        return self.coefficient_vectors * np.sqrt(self.eigenvalues)

    def scores(self, cross: np.ndarray, p: int | None = None) -> np.ndarray:
        """Scores of cross-Gram rows on the first p components (default all)."""
        return l2_scores(EigenModel(eigenvalues=self.eigenvalues[:p],
                                    coefficient_vectors=self.coefficient_vectors[:, :p]), cross)


def _fix_signs(U: np.ndarray) -> np.ndarray:
    idx = np.abs(U).argmax(axis=0)
    signs = np.sign(U[idx, np.arange(U.shape[1])])
    signs[signs == 0] = 1.0
    return U * signs


def l2_fit(gram_matrix: GramMatrix, p: int) -> EigenModel:
    """Top-p eigenpairs of K, eigenvalues descending.

    Slightly negative eigenvalues (magnitude <= 1e-8 * the largest) are
    clipped to zero; anything more negative among the top p means the
    kernel is not positive semidefinite and raises InvalidData.
    """
    K = gram_matrix.entries
    n = K.shape[0]
    if not 1 <= p <= n:
        raise InvalidData(f"component count {p} not in [1, {n}]")
    try:
        eigvals, eigvecs = np.linalg.eigh(K)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(eigvals)[::-1][:p]
    mu = eigvals[order]
    U = _fix_signs(eigvecs[:, order])
    top = float(mu[0])
    if top < 0:
        raise InvalidData("kernel matrix has no nonnegative eigenvalue")
    negative = mu < 0
    if np.any(mu < -1e-8 * max(top, 1e-300)):
        raise InvalidData(f"kernel matrix is not positive semidefinite (eigenvalue {mu.min():.3e})")
    mu = np.where(negative, 0.0, mu)
    return EigenModel(eigenvalues=mu, coefficient_vectors=U, spec=gram_matrix.spec)


def l2_scores(model: EigenModel, gram_or_cross: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Project rows of a (cross-)Gram matrix: column j is (G u_j)/sqrt(mu_j).

    On the training Gram itself this reduces to sqrt(mu_j) u_j.
    """
    G = np.asarray(gram_or_cross, dtype=float)
    n = model.coefficient_vectors.shape[0]
    if G.ndim != 2 or G.shape[1] != n:
        raise InvalidData(f"expected matrix with {n} columns, got shape {G.shape}")
    mu = model.eigenvalues
    if np.any(mu <= tol):
        raise DegenerateComponent(f"eigenvalue {mu.min():.3e} too small to scale scores")
    return (G @ model.coefficient_vectors) / np.sqrt(mu)

