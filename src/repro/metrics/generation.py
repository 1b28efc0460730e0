"""Generative-model metrics: Inception Score and FID with a proxy feature network.

The paper reports IS (Salimans et al., 2016) and FID (Heusel et al., 2017)
computed from an ImageNet Inception-v3.  Offline, the same *construction* of
both metrics is preserved but the feature extractor is a small convolutional
classifier trained on the synthetic image distribution's mode labels (the
"proxy inception").  Because both the first-order SNGAN and the quadratic
QuadraNN generator are scored by the same fixed proxy network, the relative
comparison of Table 5 carries over even though the absolute numbers are on a
different scale than the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..autodiff import no_grad
from ..autodiff.tensor import Tensor
from ..data.synthetic.generation import SyntheticGenerationDataset
from ..models.simple import SmallConvNet
from ..nn import functional as F
from ..nn.losses import CrossEntropyLoss
from ..optim.adam import Adam


@dataclass
class GenerationScores:
    """IS and FID of a batch of generated images."""

    inception_score: float
    inception_score_std: float
    fid: float


class ProxyInception:
    """A small classifier over the synthetic image distribution's modes.

    Provides class probabilities (for IS) and penultimate-layer features
    (for FID).  Train once, reuse for every generator under comparison.
    """

    def __init__(self, dataset: SyntheticGenerationDataset, epochs: int = 3,
                 batch_size: int = 64, lr: float = 2e-3, seed: int = 0) -> None:
        self.dataset = dataset
        self.model = SmallConvNet(num_classes=dataset.num_modes,
                                  in_channels=dataset.channels,
                                  image_size=dataset.image_size)
        self._train(epochs=epochs, batch_size=batch_size, lr=lr, seed=seed)

    def _train(self, epochs: int, batch_size: int, lr: float, seed: int) -> None:
        rng = np.random.default_rng(seed)
        images = self.dataset.images
        labels = self.dataset.modes
        optimizer = Adam(self.model.parameters(), lr=lr)
        loss_fn = CrossEntropyLoss()
        n = len(images)
        self.model.train(True)
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                optimizer.zero_grad()
                logits = self.model(Tensor(images[idx]))
                loss = loss_fn(logits, labels[idx])
                loss.backward()
                optimizer.step()
        self.model.train(False)

    # ------------------------------------------------------------------ probes
    def probabilities(self, images: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Class probabilities p(y|x) under the proxy classifier."""
        outputs = []
        with no_grad():
            for start in range(0, len(images), batch_size):
                logits = self.model(Tensor(images[start:start + batch_size]))
                outputs.append(F.softmax(logits, axis=-1).data)
        return np.concatenate(outputs, axis=0)

    def features(self, images: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Penultimate-layer activations used for FID."""
        feats = []
        with no_grad():
            for start in range(0, len(images), batch_size):
                x = Tensor(images[start:start + batch_size])
                h = self.model.features(x)
                h = self.model.classifier[0](h)       # Flatten
                h = self.model.classifier[1](h)       # Linear → 128
                feats.append(h.relu().data)
        return np.concatenate(feats, axis=0)


def inception_score(probabilities: np.ndarray, splits: int = 4) -> Tuple[float, float]:
    """IS = exp(E_x KL(p(y|x) || p(y))), mean ± std over splits."""
    probabilities = np.clip(probabilities, 1e-12, 1.0)
    scores = []
    n = len(probabilities)
    split_size = max(n // splits, 1)
    for i in range(0, n, split_size):
        part = probabilities[i:i + split_size]
        marginal = part.mean(axis=0, keepdims=True)
        kl = (part * (np.log(part) - np.log(marginal))).sum(axis=1)
        scores.append(float(np.exp(kl.mean())))
    return float(np.mean(scores)), float(np.std(scores))


def frechet_distance(features_real: np.ndarray, features_fake: np.ndarray,
                     eps: float = 1e-6) -> float:
    """Fréchet distance between Gaussian fits of real and generated features."""
    mu_r, mu_f = features_real.mean(axis=0), features_fake.mean(axis=0)
    cov_r = np.cov(features_real, rowvar=False) + eps * np.eye(features_real.shape[1])
    cov_f = np.cov(features_fake, rowvar=False) + eps * np.eye(features_fake.shape[1])
    diff = mu_r - mu_f
    # tr(sqrtm(cov_r @ cov_f)) without a general matrix square root: the
    # product is similar to the symmetric PSD matrix R @ cov_f @ R with
    # R = sqrtm(cov_r), so its square root's trace is the sum of the square
    # roots of that matrix's (real, non-negative) eigenvalues.
    eigenvalues, eigenvectors = np.linalg.eigh(cov_r)
    root_r = (eigenvectors * np.sqrt(np.clip(eigenvalues, 0.0, None))) @ eigenvectors.T
    product_eigenvalues = np.linalg.eigvalsh(root_r @ cov_f @ root_r)
    trace_covmean = np.sqrt(np.clip(product_eigenvalues, 0.0, None)).sum()
    return float(diff @ diff + np.trace(cov_r) + np.trace(cov_f) - 2.0 * trace_covmean)


def evaluate_generator(proxy: ProxyInception, generated: np.ndarray,
                       real: Optional[np.ndarray] = None,
                       splits: int = 4) -> GenerationScores:
    """Score generated images with the proxy IS and (if real images given) FID."""
    probs = proxy.probabilities(generated)
    is_mean, is_std = inception_score(probs, splits=splits)
    fid = float("nan")
    if real is not None:
        fid = frechet_distance(proxy.features(real), proxy.features(generated))
    return GenerationScores(inception_score=is_mean, inception_score_std=is_std, fid=fid)
