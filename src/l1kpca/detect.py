"""PCA-based outlier detection and precision-recall evaluation.

A fitted kernel PCA model (either flavor) yields a training score matrix
Y; components whose score variance reaches the 80%-of-total cutoff are
retained, and each sample is scored by its squared distance to the origin
in the variance-scaled retained score space:

    s_i = sum over retained j of Y_ij^2 / lambda_j.

Samples with s_i above a threshold are flagged; sweeping the threshold
over the observed scores gives a precision-recall curve whose area is
computed as average precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateComponent, InvalidData
from .kernel import Dataset

# Score variances this far below the largest are never retained, whatever
# alpha says; they would divide by numerical zeros.
RELATIVE_VARIANCE_FLOOR = 1e-12


@dataclass
class DetectionModel:
    """Training scores, per-component variances, and the retention cutoff."""

    score_matrix: np.ndarray
    variances: np.ndarray
    alpha: float
    retained: list[int]
    threshold: float | None = None


@dataclass
class PRCurve:
    """Precision-recall pairs swept over thresholds, plus the area under them.

    points are ordered by rising threshold, so recalls are nonincreasing
    along the list. auc is the average-precision value.
    """

    points: list[tuple[float, float]] = field(default_factory=list)
    auc: float = 0.0


def select_alpha(variances) -> float:
    """Largest variance cutoff whose retained set explains >= 80% of the total.

    The cutoff always equals one of the variance values; retention is
    lambda_j >= alpha.
    """
    lam = np.asarray(variances, dtype=float)
    if lam.size == 0 or np.any(lam < 0):
        raise InvalidData("variances must be a nonempty list of nonnegative reals")
    total = float(lam.sum())
    if total <= 0:
        raise DegenerateComponent("all score variances are zero")
    for alpha in sorted(set(lam.tolist()), reverse=True):
        if float(lam[lam >= alpha].sum()) >= 0.8 * total:
            return float(alpha)
    return float(lam.min())  # unreachable: the full set always qualifies


def _retained_indices(variances: np.ndarray, alpha: float) -> list[int]:
    floor = RELATIVE_VARIANCE_FLOOR * float(variances.max())
    return [int(j) for j in np.flatnonzero((variances >= alpha) & (variances > floor))]


def outlier_scores(model: DetectionModel) -> np.ndarray:
    """Squared scaled distance to the origin over the retained components."""
    if not model.retained:
        raise DegenerateComponent("no components retained")
    lam = model.variances[model.retained]
    if np.any(lam <= 0):
        raise DegenerateComponent("retained component has zero variance")
    Y = model.score_matrix[:, model.retained]
    return (Y * Y / lam).sum(axis=1)


def classify(scores, threshold: float) -> np.ndarray:
    """1 where the outlier score strictly exceeds the threshold, else 0."""
    scores = np.asarray(scores, dtype=float)
    return (scores > threshold).astype(int)


def pr_auc(scores, labels) -> PRCurve:
    """Precision-recall curve and average precision of scores against labels.

    Thresholds sweep the distinct score values; tied scores are processed
    as a single step. Each point is (recall, precision) of the rule
    "flag everything scoring >= that value".
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise InvalidData(f"scores and labels must be equal-length vectors, got {scores.shape} and {labels.shape}")
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise InvalidData("labels contain no positives")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # Last index of each tied block of equal scores.
    block_end = np.flatnonzero(np.r_[sorted_scores[:-1] != sorted_scores[1:], True])
    tp = np.cumsum(sorted_labels)[block_end]
    flagged = block_end + 1
    precision = tp / flagged
    recall = tp / n_pos

    tp_steps = np.diff(np.r_[0, tp])
    auc = float((precision * tp_steps).sum() / n_pos)

    points = [(float(r), float(p)) for r, p in zip(recall[::-1], precision[::-1])]
    return PRCurve(points=points, auc=auc)


def build_detector(model, data: Dataset, threshold: float | None = None) -> DetectionModel:
    """Detection model from an L1 or L2 kernel PCA model fit on this data.

    Training scores come straight from the fitted model; per-component
    variances use the population convention (divisor n), which makes the
    L2 path's variances equal eigenvalue/n on mean-zero score columns.
    """
    Y = model.training_scores()
    if Y.shape[0] != data.n_samples:
        raise InvalidData(f"model was fit on {Y.shape[0]} samples, data has {data.n_samples}")
    variances = Y.var(axis=0)
    alpha = select_alpha(variances)
    retained = _retained_indices(variances, alpha)
    return DetectionModel(score_matrix=Y, variances=variances, alpha=alpha,
                          retained=retained, threshold=threshold)
