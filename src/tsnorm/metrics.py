"""Evaluation metrics: ranking metrics for default prediction plus
agreement metrics for the ternary forecasting task.

The ranking metric is M = 0.5 * (G + D) where D is the share of positives
captured in the top 4% of prediction-ranked weight and G is a weighted Gini
ratio.  Ties in predictions are broken by original index, which matters for
D; the convention is pinned here and in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

CAPTURE_SHARE = 0.04
_WEIGHT_TOL = 1e-12


@dataclass
class AmexInputs:
    """Validated bundle of predictions, binary labels, and normalized weights."""

    predictions: np.ndarray
    labels: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.predictions, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        if p.shape != y.shape or p.ndim != 1:
            raise ValueError("predictions and labels must be equal-length vectors")
        if np.any((y != 0) & (y != 1)):
            raise ValueError("labels must be binary")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != p.shape:
            raise ValueError("weights length mismatch")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        self.predictions, self.labels, self.weights = p, y, w


def _bundle(predictions, labels, weights) -> AmexInputs:
    p = np.asarray(predictions, dtype=np.float64)
    if weights is None:
        weights = np.full(p.shape, 1.0 / max(len(p), 1))
    return AmexInputs(p, labels, weights)


def default_rate_captured(predictions, labels, weights=None) -> float:
    """Share of all positives captured within the top 4% of weight when
    samples are ranked by prediction (non-increasing, ties by index)."""
    inp = _bundle(predictions, labels, weights)
    if inp.labels.sum() == 0:
        raise ValueError("default rate undefined without positive labels")
    order = np.lexsort((np.arange(len(inp.predictions)), -inp.predictions))
    cum_w = np.cumsum(inp.weights[order])
    captured = np.searchsorted(cum_w, CAPTURE_SHARE + _WEIGHT_TOL, side="right")
    return float(inp.labels[order][:captured].sum() / inp.labels.sum())


def weighted_gini(predictions, labels, weights=None, ordering: str = "prediction") -> float:
    """Weighted Gini statistic of the label mass under the given ordering.

    G = 2 sum_j w_j ((y_j - ybar)/ybar) (Fhat_j - Fbar) where Fhat_j is the
    midpoint cumulative weight in the requested order ("label" or
    "prediction", non-decreasing, stable) and ybar = sum w y.  With the
    prediction ordering this measures how the positives concentrate at the
    top of the ranking; with the label ordering it attains its maximum.
    """
    inp = _bundle(predictions, labels, weights)
    y = inp.labels.astype(np.float64)
    ybar = float(inp.weights @ y)
    if ybar == 0.0:
        raise ValueError("weighted label mean is zero")
    if ordering == "label":
        order = np.lexsort((np.arange(len(y)), y))
    elif ordering == "prediction":
        order = np.lexsort((np.arange(len(y)), inp.predictions))
    else:
        raise ValueError(f"unknown ordering {ordering!r}")
    w = inp.weights[order]
    yo = y[order]
    f_hat = np.cumsum(w) - w / 2.0
    f_bar = float(w @ f_hat)
    return float(2.0 * np.sum(w * ((yo - ybar) / ybar) * (f_hat - f_bar)))


def amex_metric(predictions, labels, weights=None) -> tuple[float, float, float]:
    """Returns (M, D, G) with M = 0.5 (G + D) and G the normalized Gini
    (prediction ordering over label ordering)."""
    d = default_rate_captured(predictions, labels, weights)
    g0 = weighted_gini(predictions, labels, weights, ordering="label")
    g1 = weighted_gini(predictions, labels, weights, ordering="prediction")
    if g0 == 0.0:
        raise ValueError("normalizing Gini is zero (degenerate labels)")
    g = g1 / g0
    return 0.5 * (g + d), d, g


def binary_accuracy(probabilities, labels) -> float:
    p = np.asarray(probabilities, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    return float(((p >= 0.5).astype(np.int64) == y).mean())


def ternary_accuracy(probabilities, labels) -> float:
    p = np.asarray(probabilities, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    return float((p.argmax(axis=1) == y).mean())


def confusion_matrix(pred_labels, true_labels, num_classes: Optional[int] = None) -> np.ndarray:
    pred = np.asarray(pred_labels, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    if pred.shape != true.shape or pred.ndim != 1 or len(pred) == 0:
        raise ValueError("need equal-length nonempty label vectors")
    if num_classes is None:
        num_classes = int(max(pred.max(), true.max())) + 1
    if pred.min() < 0 or true.min() < 0 or pred.max() >= num_classes or true.max() >= num_classes:
        raise ValueError("labels out of class range")
    mat = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(mat, (true, pred), 1)
    return mat


def cohen_kappa(pred_labels, true_labels, num_classes: Optional[int] = None) -> float:
    """Agreement corrected for chance: (p_o - p_e)/(1 - p_e).

    If chance agreement is already 1 (both sides constant on the same class)
    the observed agreement is 1 as well and kappa is defined as 1.
    """
    mat = confusion_matrix(pred_labels, true_labels, num_classes)
    n = mat.sum()
    p_o = np.trace(mat) / n
    p_e = float((mat.sum(axis=0) / n) @ (mat.sum(axis=1) / n))
    if p_e >= 1.0:
        return 1.0 if p_o >= 1.0 else 0.0
    return float((p_o - p_e) / (1.0 - p_e))


def macro_f1(pred_labels, true_labels, num_classes: Optional[int] = None) -> float:
    """Unweighted mean of per-class F1; a class absent from both predictions
    and labels contributes 0 (documented convention)."""
    mat = confusion_matrix(pred_labels, true_labels, num_classes)
    scores = []
    for c in range(mat.shape[0]):
        tp = mat[c, c]
        fp = mat[:, c].sum() - tp
        fn = mat[c, :].sum() - tp
        denom = 2 * tp + fp + fn
        scores.append(0.0 if denom == 0 else 2.0 * tp / denom)
    return float(np.mean(scores))
