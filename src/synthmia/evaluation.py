"""Attack-success and structure-recovery metrics."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UndefinedMetric


@dataclass(frozen=True)
class RecoveryMetrics:
    choice_accuracy: float
    precision: float
    recall: float
    jaccard: float
    perfect_match: bool

    def to_json(self):
        return {
            "choice_accuracy": self.choice_accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "jaccard": self.jaccard,
            "perfect_match": int(self.perfect_match),
        }


def _tie_average_ranks(values):
    """Ranks 1..n with ties averaged (midrank)."""
    _, inv, cnt = np.unique(np.asarray(values, dtype=np.float64), return_inverse=True, return_counts=True)
    # a run of cnt equal values ending at rank c has midrank c - (cnt - 1) / 2
    return (np.cumsum(cnt) - 0.5 * (cnt - 1))[inv]


def _binary_labels(labels, shape, inputs, metric):
    """Labels as int64 with their counts of 1s and 0s; a typed error unless all 0/1, of ``shape``, both present."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != shape:
        raise ConfigurationError(f"{inputs} and labels must align")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos + n_neg != labels.size:
        raise ConfigurationError(f"{metric} labels must be 0 or 1")
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetric(f"{metric} needs both classes present")
    return labels, n_pos, n_neg


def auroc(scores, labels):
    """Probability a random positive outranks a random negative, ties at 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels, n_pos, n_neg = _binary_labels(labels, scores.shape, "scores", "AUROC")
    ranks = _tie_average_ranks(scores)
    rank_sum = ranks[labels == 1].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def balanced_accuracy(predictions, labels):
    """0.5 * (true-positive rate + true-negative rate)."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels, n_pos, n_neg = _binary_labels(labels, predictions.shape, "predictions", "balanced accuracy")
    tpr = float(((predictions == 1) & (labels == 1)).sum()) / n_pos
    tnr = float(((predictions == 0) & (labels == 0)).sum()) / n_neg
    return 0.5 * (tpr + tnr)


def recovery_metrics(true_structure, estimated_structure):
    """Set-overlap metrics between the keys of two ``sdg.Structure``s of one method."""
    if true_structure.method != estimated_structure.method:
        raise ConfigurationError("recovery metrics need two structures of one method")
    truth = set(true_structure.keys)
    est = set(estimated_structure.keys)
    if not truth:
        raise ConfigurationError("true structure is empty")
    inter = truth & est
    union = truth | est
    choice_accuracy = len(inter) / len(truth)
    precision = len(inter) / len(est) if est else 0.0
    recall = len(inter) / len(truth)
    jaccard = len(inter) / len(union)
    return RecoveryMetrics(choice_accuracy, precision, recall, jaccard, truth == est)
