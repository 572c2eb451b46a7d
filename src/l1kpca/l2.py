"""L2-norm kernel PCA baseline: symmetric eigendecomposition of the Gram.

Used for robustness and runtime comparisons against the L1 solver. Its
eigenvalue rule, applied to an eigenvalue-only solve (top_eigenvalues),
gives the orthonormal-maximum denominator of the explained-variation metric.
No feature-space centering (inputs are column-standardized instead).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateComponent, InvalidData, NumericalFailure
from .kernel import Dataset, GramMatrix, KernelSpec
from .l1 import _project, _require_count


@dataclass
class EigenModel:
    """Top-p eigenpairs of a Gram matrix.

    eigenvalues are descending and nonnegative; coefficient_vectors is the
    n x p matrix of unit-norm eigenvectors, each column's sign fixed by
    making its largest-magnitude entry positive. spec is the kernel the
    Gram came from; train_ref is its data field, the training data that
    out-of-sample scoring needs. Shares training_scores() / projection(p) /
    scores(cross) with l1.KpcaModel.
    """

    eigenvalues: np.ndarray
    coefficient_vectors: np.ndarray
    spec: KernelSpec
    train_ref: Dataset | None = None

    @property
    def n_components(self) -> int:
        return self.eigenvalues.shape[0]

    def training_scores(self) -> np.ndarray:
        """Training scores without re-projecting: column j is sqrt(mu_j) u_j."""
        return self.coefficient_vectors * np.sqrt(self.eigenvalues)

    def projection(self, p: int | None = None) -> np.ndarray:
        """n x p map W scoring the first p components (default all) as cross @ W.

        Column j is u_j / sqrt(mu_j). p must be in [1, n_components]; any
        other count raises InvalidData, and an eigenvalue among the first p
        that is not positive (zero or NaN) raises DegenerateComponent.
        """
        p = _require_count(p, self.n_components)
        mu = self.eigenvalues[:p]
        _require_positive(mu)
        return self.coefficient_vectors[:, :p] / np.sqrt(mu)

    def scores(self, cross: np.ndarray, p: int | None = None) -> np.ndarray:
        """Scores of cross-Gram rows on the first p components (default all).

        p must be in [1, n_components]; any other count raises InvalidData.
        """
        return _project(cross, self.projection(p))


def _require_positive(mu: np.ndarray) -> None:
    """Raise DegenerateComponent unless every eigenvalue in mu is positive (not zero or NaN)."""
    if not np.all(mu > 0):
        raise DegenerateComponent(f"eigenvalue {mu.min():.3e} too small to scale scores")


def _fix_signs(U: np.ndarray) -> np.ndarray:
    idx = np.abs(U).argmax(axis=0)
    signs = np.sign(U[idx, np.arange(U.shape[1])])
    signs[signs == 0] = 1.0
    return U * signs


def _eigenvalue_rule(eigvals: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions and values of the top p eigenvalues, by l2_fit's rule."""
    order = np.argsort(eigvals)[::-1][:p]
    mu = eigvals[order]
    top = float(mu[0])
    if top < 0:
        raise InvalidData("kernel matrix has no nonnegative eigenvalue")
    if np.any(mu < -1e-8 * max(top, 1e-300)):
        raise InvalidData(f"kernel matrix is not positive semidefinite (eigenvalue {mu.min():.3e})")
    return order, np.where(mu <= 1e-12 * eigvals.shape[0] * top, 0.0, mu)


def _solve(eig, K: np.ndarray, p: int):
    """eig(K), np.linalg.eigh or eigvalsh, for the top p; failures as package errors."""
    _require_count(p, K.shape[0])
    try:
        return eig(K)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc


def l2_fit(gram_matrix: GramMatrix, p: int) -> EigenModel:
    """Top-p eigenpairs of K, eigenvalues descending.

    Eigenvalues inside the zero band (<= 1e-12 * n * the largest) are
    rounding noise past the kernel's rank and are clipped to zero, so
    scoring on them raises DegenerateComponent.
    Slightly negative eigenvalues (magnitude <= 1e-8 * the largest) are
    clipped too; anything more negative among the top p means the kernel
    is not positive semidefinite and raises InvalidData.
    """
    eigvals, eigvecs = _solve(np.linalg.eigh, gram_matrix.entries, p)
    order, mu = _eigenvalue_rule(eigvals, p)
    return EigenModel(eigenvalues=mu, coefficient_vectors=_fix_signs(eigvecs[:, order]),
                      spec=gram_matrix.spec, train_ref=gram_matrix.data)


def top_eigenvalues(K: np.ndarray, p: int) -> np.ndarray:
    """The eigenvalues l2_fit keeps for K, from a solve without eigenvectors.

    np.linalg.eigvalsh reads the lower triangle of K only, so K may be a
    kernel matrix that is symmetric only up to rounding.
    """
    return _eigenvalue_rule(_solve(np.linalg.eigvalsh, K, p), p)[1]


def l2_scores(model: EigenModel, gram_or_cross: np.ndarray) -> np.ndarray:
    """Project rows of a (cross-)Gram matrix: column j is (G u_j)/sqrt(mu_j).

    On the training Gram itself this reduces to sqrt(mu_j) u_j.
    """
    return model.scores(gram_or_cross)
