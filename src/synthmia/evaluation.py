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
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def auroc(scores, labels):
    """Probability a random positive outranks a random negative, ties at 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape:
        raise ConfigurationError("scores and labels must align")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetric("AUROC needs both classes present")
    ranks = _tie_average_ranks(scores)
    rank_sum = ranks[labels == 1].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def balanced_accuracy(predictions, labels):
    """0.5 * (true-positive rate + true-negative rate)."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape:
        raise ConfigurationError("predictions and labels must align")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetric("balanced accuracy needs both classes present")
    tpr = float(((predictions == 1) & (labels == 1)).sum()) / n_pos
    tnr = float(((predictions == 0) & (labels == 0)).sum()) / n_neg
    return 0.5 * (tpr + tnr)


def _as_key_set(structure):
    """Normalize a structure into a set of hashable keys.

    Tree structures become sorted edge pairs; Bayesian-network structures
    become (node, parent tuple) pairs.
    """
    keys = set()
    for item in structure:
        first, second = item
        if isinstance(second, (tuple, list)) and not isinstance(first, (tuple, list)):
            keys.add((int(first), tuple(int(p) for p in second)))
        else:
            i, j = int(first), int(second)
            keys.add((min(i, j), max(i, j)))
    return keys


def recovery_metrics(true_structure, estimated_structure):
    """Set-overlap metrics between true and estimated structure keys."""
    truth = _as_key_set(true_structure)
    est = _as_key_set(estimated_structure)
    if not truth:
        raise ConfigurationError("true structure is empty")
    inter = truth & est
    union = truth | est
    choice_accuracy = len(inter) / len(truth)
    precision = len(inter) / len(est) if est else 0.0
    recall = len(inter) / len(truth)
    jaccard = len(inter) / len(union)
    return RecoveryMetrics(choice_accuracy, precision, recall, jaccard, truth == est)
