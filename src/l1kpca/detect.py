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

@dataclass
class DetectionModel:
    """Per-component variances, the retention cutoff, and each training sample's outlier score."""

    variances: np.ndarray
    alpha: float
    retained: list[int]
    scores: np.ndarray


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
    lambda_j >= alpha; the smallest value, retaining all, always qualifies.
    """
    lam = np.asarray(variances, dtype=float)
    if lam.size == 0 or not np.all(np.isfinite(lam) & (lam >= 0)):
        raise InvalidData("variances must be a nonempty list of finite nonnegative reals")
    total = float(lam.sum())
    if total <= 0:
        raise DegenerateComponent("all score variances are zero")
    return next(float(alpha) for alpha in sorted(set(lam.tolist()), reverse=True)
                if float(lam[lam >= alpha].sum()) >= 0.8 * total)


def _check_threshold(threshold: float) -> None:
    """Raise InvalidData unless threshold is finite: classify's refusal."""
    if not np.isfinite(threshold):
        raise InvalidData(f"threshold must be a finite number, got {threshold}")


def classify(scores, threshold: float) -> np.ndarray:
    """1 where the outlier score strictly exceeds the threshold, else 0.

    A NaN or infinite threshold raises InvalidData: no score exceeds NaN
    or +inf, and every finite score exceeds -inf, so none of them is a rule.
    """
    _check_threshold(threshold)
    scores = np.asarray(scores, dtype=float)
    return (scores > threshold).astype(int)


def pr_auc(scores, labels) -> PRCurve:
    """Precision-recall curve and average precision of scores against labels.

    Thresholds sweep the distinct score values; tied scores are processed
    as a single step. Each point is (recall, precision) of the rule
    "flag everything scoring >= that value". A NaN or infinite score, or
    a label other than 0 and 1, raises InvalidData.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise InvalidData(f"scores and labels must be equal-length vectors, got {scores.shape} and {labels.shape}")
    if not np.all(np.isfinite(scores)):
        raise InvalidData("scores must be finite numbers")
    # Checked before the integer cast, which would turn 0.5 into 0.
    if not np.all((labels == 0) | (labels == 1)):
        raise InvalidData("labels must be 0 or 1")
    labels = labels.astype(int)
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


def build_detector(model) -> DetectionModel:
    """Detection model of the training samples of an L1 or L2 kernel PCA model.

    Training scores Y come straight from the fitted model; per-component
    variances use the population convention (divisor n), which makes the
    L2 path's variances equal eigenvalue/n on mean-zero score columns.
    Component j is retained when lambda_j >= alpha, alpha from
    select_alpha. alpha is at least the smallest positive variance, so the
    largest variance is always retained and no retained variance is zero.
    scores holds s_i for each sample.
    """
    Y = model.training_scores()
    variances = Y.var(axis=0)
    alpha = select_alpha(variances)
    retained = np.flatnonzero(variances >= alpha).tolist()
    Y = Y[:, retained]
    scores = (Y * Y / variances[retained]).sum(axis=1)
    return DetectionModel(variances=variances, alpha=alpha, retained=retained, scores=scores)
