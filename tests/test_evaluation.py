import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from synthmia import evaluation, sdg
from synthmia.errors import ConfigurationError, UndefinedMetric


def tree(edges):
    return sdg.Structure("mst", edges)


def pairwise_auroc(scores, labels):
    """O(n^2) oracle: fraction of (positive, negative) pairs won, ties 1/2."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestAuroc:
    def test_perfect_separation(self):
        got = evaluation.auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert got == 1.0

    def test_all_ties(self):
        assert evaluation.auroc([3.0] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(4, 21))
            scores = rng.choice([0.1, 0.5, 0.5, 0.9, 1.3], size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            got = evaluation.auroc(scores, labels)
            assert got == pytest.approx(pairwise_auroc(scores, labels), abs=1e-12)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetric):
            evaluation.auroc([0.1, 0.2], [1, 1])

    def test_negation_symmetry_tie_free(self):
        rng = np.random.default_rng(1)
        scores = rng.permutation(20).astype(float)
        labels = rng.integers(0, 2, size=20)
        labels[:2] = [0, 1]
        a = evaluation.auroc(scores, labels)
        b = evaluation.auroc(-scores, labels)
        assert a + b == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=15)
        labels = rng.integers(0, 2, size=15)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        base = evaluation.auroc(scores, labels)
        for f in (np.exp, lambda x: 3 * x + 1, lambda x: x**3):
            assert evaluation.auroc(f(scores), labels) == pytest.approx(base, abs=1e-12)


@given(
    st.lists(st.sampled_from([-2.5, -0.0, 0.0, 1.0, 1e-300, 3.75, 1e300]), max_size=60)
    | st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=60)
)
@settings(max_examples=200, deadline=None)
def test_midranks_match_scipy(values):
    assert np.array_equal(evaluation._tie_average_ranks(values), stats.rankdata(values))


class TestBalancedAccuracy:
    def test_perfect(self):
        assert evaluation.balanced_accuracy([1, 1, 0, 0], [1, 1, 0, 0]) == 1.0

    def test_constant_prediction(self):
        assert evaluation.balanced_accuracy([1, 1, 1, 1], [1, 0, 1, 0]) == 0.5

    def test_hand_confusion_matrix(self):
        # TP=2 FN=1 (TPR=2/3); TN=3 FP=1 (TNR=3/4)
        preds = [1, 1, 0, 0, 0, 0, 1]
        labels = [1, 1, 1, 0, 0, 0, 0]
        assert evaluation.balanced_accuracy(preds, labels) == pytest.approx(
            0.5 * (2 / 3 + 3 / 4)
        )

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetric):
            evaluation.balanced_accuracy([1, 0], [0, 0])

    def test_misaligned(self):
        with pytest.raises(ConfigurationError):
            evaluation.balanced_accuracy([1, 0, 1], [0, 0])


@pytest.mark.parametrize("metric", [evaluation.auroc, evaluation.balanced_accuracy])
@pytest.mark.parametrize("bad", [2, -1])
def test_labels_other_than_0_and_1_rejected(metric, bad):
    # both classes are present, so only the stray label can fail the call
    with pytest.raises(ConfigurationError, match="0 or 1"):
        metric([5.0, 1.0, 3.0], [1, 0, bad])


@pytest.mark.parametrize("bad", [2, -1])
def test_predictions_other_than_0_and_1_rejected(bad):
    with pytest.raises(ConfigurationError, match="balanced accuracy predictions must be 0 or 1"):
        evaluation.balanced_accuracy([bad, bad, 0, 1], [1, 1, 0, 0])


class TestRecoveryMetrics:
    def test_identical_structures(self):
        m = evaluation.recovery_metrics(tree([(0, 1), (1, 2)]), tree([(1, 2), (0, 1)]))
        assert m == {"choice_accuracy": 1, "precision": 1, "recall": 1, "jaccard": 1, "perfect_match": 1}
        assert list(m) == ["choice_accuracy", "precision", "recall", "jaccard", "perfect_match"]

    def test_disjoint_edge_sets(self):
        m = evaluation.recovery_metrics(tree([(0, 1)]), tree([(1, 2)]))
        assert m["precision"] == m["recall"] == m["jaccard"] == 0.0
        assert m["perfect_match"] == 0

    def test_superset_double_size(self):
        truth = tree([(0, 1), (2, 3)])
        est = tree([(0, 1), (2, 3), (0, 2), (1, 3)])
        m = evaluation.recovery_metrics(truth, est)
        assert m["recall"] == 1.0
        assert m["precision"] == 0.5
        assert m["jaccard"] == 0.5

    def test_precision_recall_duality(self):
        rng = np.random.default_rng(2)
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        a = tree([pairs[k] for k in rng.choice(len(pairs), 4, replace=False)])
        b = tree([pairs[k] for k in rng.choice(len(pairs), 4, replace=False)])
        assert evaluation.recovery_metrics(a, b)["precision"] == pytest.approx(
            evaluation.recovery_metrics(b, a)["recall"]
        )

    def test_unordered_edges_normalized(self):
        m = evaluation.recovery_metrics(tree([(1, 0)]), tree([(0, 1)]))
        assert m["perfect_match"] == 1

    def test_bayes_structure_keys(self):
        truth = sdg.Structure("privbayes", [(0, ()), (1, (0,)), (2, (0, 1))])
        est = sdg.Structure("privbayes", [(0, ()), (1, ()), (2, (0, 1))])
        m = evaluation.recovery_metrics(truth, est)
        assert m["choice_accuracy"] == pytest.approx(2 / 3)
        assert m["perfect_match"] == 0

    @given(st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_jaccard_bounded_by_precision_recall(self, seed):
        rng = np.random.default_rng(seed)
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        a = {pairs[k] for k in rng.choice(len(pairs), int(rng.integers(1, 6)), replace=False)}
        b = {pairs[k] for k in rng.choice(len(pairs), int(rng.integers(1, 6)), replace=False)}
        m = evaluation.recovery_metrics(tree(sorted(a)), tree(sorted(b)))
        assert m["jaccard"] <= min(m["precision"], m["recall"]) + 1e-12

    def test_empty_truth_rejected(self):
        with pytest.raises(ConfigurationError):
            evaluation.recovery_metrics(tree([]), tree([(0, 1)]))

    def test_methods_must_match(self):
        with pytest.raises(ConfigurationError):
            evaluation.recovery_metrics(tree([(0, 1)]), sdg.Structure("privbayes", [(0, ()), (1, (0,))]))
