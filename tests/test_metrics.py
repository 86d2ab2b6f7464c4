"""Unit tests for evaluation metrics (accuracy / micro-F1 / ROC-AUC)."""

import numpy as np
import pytest

from repro.training import accuracy, micro_f1, roc_auc


class TestAccuracy:
    def test_perfect_predictions(self):
        logits = np.array([[5.0, 0.0], [0.0, 5.0], [9.0, 1.0]])
        assert accuracy(logits, np.array([0, 1, 0])) == 1.0

    def test_partial(self):
        logits = np.array([[5.0, 0.0], [5.0, 0.0]])
        assert accuracy(logits, np.array([0, 1])) == 0.5

    def test_mask(self):
        logits = np.array([[5.0, 0.0], [5.0, 0.0]])
        labels = np.array([0, 1])
        assert accuracy(logits, labels, np.array([True, False])) == 1.0

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.ones((2, 2)), np.zeros(2, dtype=int), np.zeros(2, bool))


class TestMicroF1:
    def test_perfect(self):
        targets = np.array([[1, 0], [0, 1]])
        logits = np.where(targets, 3.0, -3.0)
        assert micro_f1(logits, targets) == 1.0

    def test_known_value(self):
        # TP=1, FP=1, FN=1 -> F1 = 2/(2+1+1) = 0.5
        logits = np.array([[2.0, 2.0, -2.0]])
        targets = np.array([[1, 0, 1]])
        assert micro_f1(logits, targets) == pytest.approx(0.5)

    def test_all_negative_predictions(self):
        logits = -np.ones((3, 4))
        targets = np.zeros((3, 4))
        assert micro_f1(logits, targets) == 0.0

    def test_mask(self):
        logits = np.array([[3.0], [-3.0]])
        targets = np.array([[1.0], [1.0]])
        assert micro_f1(logits, targets, np.array([True, False])) == 1.0


class TestRocAuc:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0, 0, 1, 1])
        assert roc_auc(scores, labels) == 1.0

    def test_inverted_scores(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([0, 0, 1, 1])
        assert roc_auc(scores, labels) == 0.0

    def test_random_is_half(self):
        rng = np.random.default_rng(0)
        scores = rng.random(4000)
        labels = rng.integers(0, 2, 4000)
        assert roc_auc(scores, labels) == pytest.approx(0.5, abs=0.03)

    def test_tie_handling(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        labels = np.array([0, 1, 0, 1])
        assert roc_auc(scores, labels) == pytest.approx(0.5)

    def test_multilabel_averaging(self):
        # Label 0 perfectly ranked, label 1 perfectly inverted -> mean 0.5.
        logits = np.array([[0.1, 0.9], [0.9, 0.1]])
        targets = np.array([[0, 0], [1, 1]])
        assert roc_auc(logits, targets) == pytest.approx(0.5)

    def test_degenerate_labels_skipped(self):
        logits = np.array([[0.2, 0.3], [0.8, 0.9]])
        targets = np.array([[0, 1], [1, 1]])  # column 1 has one class only
        assert roc_auc(logits, targets) == 1.0

    def test_all_degenerate_rejected(self):
        with pytest.raises(ValueError):
            roc_auc(np.ones((3, 1)), np.ones((3, 1)))

    def test_matches_scipy_ranking(self):
        """Cross-check the Mann-Whitney formulation against scipy."""
        stats = pytest.importorskip("scipy.stats")

        rng = np.random.default_rng(1)
        scores = rng.normal(size=200)
        labels = rng.integers(0, 2, 200)
        n_pos = labels.sum()
        n_neg = 200 - n_pos
        statistic = stats.mannwhitneyu(
            scores[labels == 1], scores[labels == 0]
        ).statistic
        expected = statistic / (n_pos * n_neg)
        assert roc_auc(scores, labels) == pytest.approx(expected)
