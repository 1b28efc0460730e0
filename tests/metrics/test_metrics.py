"""Tests of classification, detection and generation metrics."""

import numpy as np
import pytest

from repro.metrics import (
    ProxyInception,
    accuracy,
    average_precision,
    confusion_matrix,
    evaluate_detections,
    evaluate_generator,
    frechet_distance,
    inception_score,
    per_class_accuracy,
    top_k_accuracy,
)


class TestClassificationMetrics:
    def test_accuracy_perfect_and_zero(self):
        logits = np.eye(4)
        assert accuracy(logits, np.arange(4)) == 1.0
        assert accuracy(logits, (np.arange(4) + 1) % 4) == 0.0

    def test_accuracy_partial(self):
        logits = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        assert accuracy(logits, np.array([0, 1, 1, 0])) == 0.5

    def test_top_k(self):
        logits = np.array([[0.5, 0.3, 0.2], [0.1, 0.2, 0.7]])
        assert top_k_accuracy(logits, np.array([1, 0]), k=1) == 0.0
        assert top_k_accuracy(logits, np.array([1, 0]), k=2) == 0.5
        assert top_k_accuracy(logits, np.array([1, 0]), k=3) == 1.0

    def test_top_k_larger_than_classes(self):
        logits = np.eye(3)
        assert top_k_accuracy(logits, np.arange(3), k=10) == 1.0

    def test_confusion_matrix(self):
        logits = np.array([[1, 0], [1, 0], [0, 1]], dtype=float)
        matrix = confusion_matrix(logits, np.array([0, 1, 1]), num_classes=2)
        assert matrix[0, 0] == 1 and matrix[1, 0] == 1 and matrix[1, 1] == 1

    def test_per_class_accuracy_handles_missing_class(self):
        logits = np.eye(2)
        values = per_class_accuracy(logits, np.array([0, 0]), num_classes=3)
        assert values[0] == 0.5
        assert np.isnan(values[2])

    def test_accepts_tensors(self):
        from repro.autodiff import Tensor

        logits = Tensor(np.eye(3, dtype=np.float32))
        assert accuracy(logits, Tensor(np.arange(3))) == 1.0


class TestDetectionMetrics:
    def _perfect_case(self):
        gt = [{"boxes": np.array([[0.1, 0.1, 0.4, 0.4]], dtype=np.float32),
               "labels": np.array([0])}]
        pred = [{"boxes": np.array([[0.1, 0.1, 0.4, 0.4]], dtype=np.float32),
                 "scores": np.array([0.9], dtype=np.float32),
                 "labels": np.array([0])}]
        return pred, gt

    def test_perfect_detection_map_1(self):
        pred, gt = self._perfect_case()
        result = evaluate_detections(pred, gt, num_classes=2)
        assert result["per_class_ap"][0] == pytest.approx(1.0)
        assert result["map"] == pytest.approx(1.0)

    def test_missed_detection_ap_0(self):
        gt = [{"boxes": np.array([[0.1, 0.1, 0.4, 0.4]], dtype=np.float32),
               "labels": np.array([0])}]
        pred = [{"boxes": np.zeros((0, 4), dtype=np.float32),
                 "scores": np.zeros(0, dtype=np.float32),
                 "labels": np.zeros(0, dtype=np.int64)}]
        result = evaluate_detections(pred, gt, num_classes=1)
        assert result["map"] == 0.0

    def test_wrong_location_is_false_positive(self):
        gt = [{"boxes": np.array([[0.1, 0.1, 0.3, 0.3]], dtype=np.float32),
               "labels": np.array([0])}]
        pred = [{"boxes": np.array([[0.6, 0.6, 0.9, 0.9]], dtype=np.float32),
                 "scores": np.array([0.9], dtype=np.float32),
                 "labels": np.array([0])}]
        result = evaluate_detections(pred, gt, num_classes=1)
        assert result["map"] == 0.0

    def test_duplicate_detection_counts_once(self):
        gt = [{"boxes": np.array([[0.1, 0.1, 0.4, 0.4]], dtype=np.float32),
               "labels": np.array([0])}]
        pred = [{"boxes": np.array([[0.1, 0.1, 0.4, 0.4], [0.1, 0.1, 0.4, 0.4]],
                                   dtype=np.float32),
                 "scores": np.array([0.9, 0.8], dtype=np.float32),
                 "labels": np.array([0, 0])}]
        result = evaluate_detections(pred, gt, num_classes=1)
        # Precision drops due to the duplicate but AP stays below 1 recall-wise correct.
        assert 0.5 <= result["map"] <= 1.0

    def test_absent_class_excluded_from_map(self):
        pred, gt = self._perfect_case()
        result = evaluate_detections(pred, gt, num_classes=5)
        assert result["map"] == pytest.approx(1.0)
        assert np.isnan(result["per_class_ap"][4])

    def test_11_point_close_to_all_point_for_perfect(self):
        pred, gt = self._perfect_case()
        all_point = evaluate_detections(pred, gt, num_classes=1)["map"]
        eleven = evaluate_detections(pred, gt, num_classes=1, use_11_point=True)["map"]
        assert all_point == pytest.approx(eleven, abs=0.1)

    def test_mismatched_lengths_raise(self):
        pred, gt = self._perfect_case()
        with pytest.raises(ValueError):
            evaluate_detections(pred, gt + gt, num_classes=1)

    def test_average_precision_monotone_interp(self):
        recall = np.array([0.2, 0.5, 1.0])
        precision = np.array([1.0, 0.6, 0.8])
        ap = average_precision(recall, precision)
        assert 0.6 <= ap <= 1.0

    def test_average_precision_empty(self):
        assert average_precision(np.array([]), np.array([])) == 0.0


class TestGenerationMetrics:
    def test_inception_score_bounds(self):
        # Uniform predictions -> IS = 1; confident & diverse -> IS = num classes.
        uniform = np.full((64, 4), 0.25)
        assert inception_score(uniform)[0] == pytest.approx(1.0, abs=1e-5)
        confident = np.tile(np.eye(4), (16, 1))
        assert inception_score(confident)[0] == pytest.approx(4.0, rel=0.05)

    def test_inception_score_collapsed_generator_low(self):
        collapsed = np.zeros((64, 4))
        collapsed[:, 0] = 1.0
        assert inception_score(collapsed)[0] == pytest.approx(1.0, abs=1e-5)

    def test_frechet_distance_zero_for_identical(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(200, 8)).astype(np.float32)
        assert frechet_distance(feats, feats.copy()) == pytest.approx(0.0, abs=1e-2)

    def test_frechet_distance_grows_with_mean_shift(self):
        rng = np.random.default_rng(0)
        real = rng.normal(size=(200, 8)).astype(np.float32)
        near = real + 0.1
        far = real + 3.0
        assert frechet_distance(real, far) > frechet_distance(real, near)

    def test_frechet_distance_matches_the_closed_form_for_diagonal_covariances(self):
        # Orthogonal zero-mean design columns give exactly diagonal sample
        # covariances a and b, where FID = |mu_r - mu_f|^2 + sum((sqrt a - sqrt b)^2).
        design = np.array([[1, 1, 1], [-1, 1, -1], [1, -1, -1], [-1, -1, 1]], dtype=np.float64)
        mu_r, mu_f = np.array([0.5, -1.0, 2.0]), np.array([1.5, 0.0, 2.0])
        scale_r, scale_f = np.array([1.0, 2.0, 0.5]), np.array([3.0, 0.5, 0.5])
        eps = 1e-6
        a = 4.0 / 3.0 * scale_r ** 2 + eps          # column variance (ddof=1) + eps
        b = 4.0 / 3.0 * scale_f ** 2 + eps
        expected = np.sum((mu_r - mu_f) ** 2) + np.sum((np.sqrt(a) - np.sqrt(b)) ** 2)
        distance = frechet_distance(mu_r + design * scale_r, mu_f + design * scale_f, eps=eps)
        assert distance == pytest.approx(expected, rel=1e-9)

    def test_proxy_inception_end_to_end(self):
        from repro.data.synthetic import SyntheticGenerationDataset

        dataset = SyntheticGenerationDataset(num_samples=96, image_size=16, num_modes=4)
        proxy = ProxyInception(dataset, epochs=2, batch_size=32)
        probs = proxy.probabilities(dataset.images[:32])
        assert probs.shape == (32, 4)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-4)
        feats = proxy.features(dataset.images[:32])
        assert feats.shape[0] == 32 and feats.shape[1] > 1

    def test_evaluate_generator_ranks_real_above_noise(self):
        """Real samples must score a lower FID than pure noise — the property
        that makes Table 5's comparison meaningful."""
        from repro.data.synthetic import SyntheticGenerationDataset

        dataset = SyntheticGenerationDataset(num_samples=128, image_size=16, num_modes=4)
        proxy = ProxyInception(dataset, epochs=2, batch_size=32)
        rng = np.random.default_rng(0)
        real_batch = dataset.sample(64, rng=rng)
        other_real = dataset.sample(64, rng=rng)
        noise = rng.normal(size=other_real.shape).astype(np.float32)
        scores_real = evaluate_generator(proxy, other_real, real=real_batch)
        scores_noise = evaluate_generator(proxy, noise, real=real_batch)
        assert scores_real.fid < scores_noise.fid
