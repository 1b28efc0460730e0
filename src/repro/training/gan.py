"""SNGAN training with the hinge objective (paper Sec. 5.3, scaled down).

The adversarial loop runs through the unified engine
(:class:`repro.engine.GANAdapter`, which owns the two-optimizer step; one
call: :func:`repro.engine.run_gan`); this module holds the history it records
and the image sampler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..autodiff import no_grad
from ..autodiff.tensor import Tensor
from ..models.sngan import SNGANGenerator


@dataclass
class GANTrainingHistory:
    """Per-step generator/discriminator losses."""

    generator_loss: List[float] = field(default_factory=list)
    discriminator_loss: List[float] = field(default_factory=list)

    @property
    def final_generator_loss(self) -> float:
        return self.generator_loss[-1] if self.generator_loss else float("nan")

    @property
    def final_discriminator_loss(self) -> float:
        return self.discriminator_loss[-1] if self.discriminator_loss else float("nan")

    # ------------------------------------------------------------ persistence
    def to_dict(self) -> Dict[str, Any]:
        return {
            "generator_loss": [float(v) for v in self.generator_loss],
            "discriminator_loss": [float(v) for v in self.discriminator_loss],
        }

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, Any]]) -> "GANTrainingHistory":
        """Tolerant inverse of :meth:`to_dict` (missing/None fields → empty)."""
        data = data or {}
        return cls(
            generator_loss=[float(v) for v in (data.get("generator_loss") or [])],
            discriminator_loss=[float(v) for v in (data.get("discriminator_loss") or [])],
        )


def generate_images(generator: SNGANGenerator, num_images: int, batch_size: int = 64,
                    seed: int = 0) -> np.ndarray:
    """Sample images from a trained generator (evaluation helper)."""
    rng = np.random.default_rng(seed)
    generator.train(False)
    batches = []
    with no_grad():
        remaining = num_images
        while remaining > 0:
            n = min(batch_size, remaining)
            z = Tensor(generator.sample_latent(n, rng=rng))
            batches.append(generator(z).data)
            remaining -= n
    generator.train(True)
    return np.concatenate(batches, axis=0)
