"""GAN image generation with a quadratic generator (paper Sec. 5.3 / Table 5).

Run with::

    python examples/gan_generation.py

Trains a small SNGAN (first-order generator) and its QuadraNN variant
(every generator convolution converted to the paper's quadratic layer) on a
synthetic multi-modal image distribution, then scores both with the proxy
Inception Score and FID.
"""

import numpy as np

from repro.data.synthetic import SyntheticGenerationDataset
from repro.engine import run_gan
from repro.metrics import ProxyInception, evaluate_generator
from repro.models import sngan_pair
from repro.training import generate_images
from repro.utils import print_table, seed_everything

IMAGE = 16
STEPS = 40
BATCH = 16
EVAL_IMAGES = 96


def main() -> None:
    seed_everything(0)
    dataset = SyntheticGenerationDataset(num_samples=256, image_size=IMAGE, num_modes=6)
    print("Training the proxy feature network (stands in for Inception-v3)...")
    proxy = ProxyInception(dataset, epochs=3, batch_size=32)
    real_reference = dataset.sample(EVAL_IMAGES, rng=np.random.default_rng(1))

    rows = []
    for name, neuron_type in (("SNGAN (first-order)", "first_order"),
                              ("QuadraNN generator", "OURS")):
        seed_everything(2)
        generator, discriminator = sngan_pair(latent_dim=16, base_channels=8,
                                              image_size=IMAGE, neuron_type=neuron_type)
        print(f"Training {name} for {STEPS} adversarial steps...")
        history = run_gan(generator, discriminator, dataset, steps=STEPS, batch_size=BATCH)
        samples = generate_images(generator, EVAL_IMAGES)
        scores = evaluate_generator(proxy, samples, real=real_reference)
        rows.append([name, f"{scores.inception_score:.3f} ± {scores.inception_score_std:.3f}",
                     f"{scores.fid:.2f}", f"{history.final_generator_loss:.3f}"])

    real_scores = evaluate_generator(proxy, dataset.sample(EVAL_IMAGES), real=real_reference)
    rows.append(["Real data (upper bound)",
                 f"{real_scores.inception_score:.3f} ± {real_scores.inception_score_std:.3f}",
                 f"{real_scores.fid:.2f}", "-"])

    print()
    print_table(["Generator", "Proxy IS (↑)", "Proxy FID (↓)", "Final G loss"], rows,
                title="Table 5-style comparison on the synthetic image distribution")


if __name__ == "__main__":
    main()
