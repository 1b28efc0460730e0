"""Small reference models: the Fig. 8 ConvNet, MLPs and a LeNet-style network.

``SmallConvNet`` reproduces the network used for the hybrid-BP memory
experiment (paper Sec. 5.1): three convolution layers and two fully-connected
layers, input 32×32, in first-order, composed-quadratic or hybrid-quadratic
form.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .. import nn
from ..builder.config import QuadraticModelConfig
from ..builder.constructors import build_mlp, make_conv
from ..nn.module import Module


class SmallConvNet(Module):
    """3 conv layers + 2 fully-connected layers (the paper's Fig. 8 ConvNet)."""

    def __init__(self, num_classes: int = 10, in_channels: int = 3, image_size: int = 32,
                 channels: Sequence[int] = (32, 64, 64),
                 config: Optional[QuadraticModelConfig] = None) -> None:
        super().__init__()
        self.config = config or QuadraticModelConfig(neuron_type="first_order")
        c1, c2, c3 = (self.config.scaled(c) for c in channels)
        self.features = nn.Sequential(
            make_conv(self.config, in_channels, c1, kernel_size=3, padding=1),
            nn.BatchNorm2d(c1),
            nn.ReLU(),
            nn.MaxPool2d(2),
            make_conv(self.config, c1, c2, kernel_size=3, padding=1),
            nn.BatchNorm2d(c2),
            nn.ReLU(),
            nn.MaxPool2d(2),
            make_conv(self.config, c2, c3, kernel_size=3, padding=1),
            nn.BatchNorm2d(c3),
            nn.ReLU(),
            nn.MaxPool2d(2),
        )
        spatial = image_size // 8
        flat = c3 * spatial * spatial
        self.classifier = nn.Sequential(
            nn.Flatten(),
            nn.Linear(flat, 128),
            nn.ReLU(),
            nn.Linear(128, num_classes),
        )
        self.num_classes = num_classes

    def forward(self, x):
        return self.classifier(self.features(x))

    def inference_plan(self):
        """Execution stages for :func:`repro.inference.compile_model`."""
        return (self.features, self.classifier)


class QuadraticMLP(Module):
    """MLP whose hidden layers are quadratic (toy tasks / unit tests)."""

    def __init__(self, layer_sizes: Sequence[int], neuron_type: str = "OURS",
                 hybrid_bp: bool = False, activation: bool = False) -> None:
        super().__init__()
        config = QuadraticModelConfig(neuron_type=neuron_type, hybrid_bp=hybrid_bp)
        self.net = build_mlp(list(layer_sizes), config, quadratic_hidden=True,
                             activation=activation)

    def forward(self, x):
        return self.net(x)

    def inference_plan(self):
        """Execution stages for :func:`repro.inference.compile_model`."""
        return (self.net,)


class FirstOrderMLP(Module):
    """Plain MLP baseline for the toy comparisons."""

    def __init__(self, layer_sizes: Sequence[int], activation: bool = True) -> None:
        super().__init__()
        config = QuadraticModelConfig(neuron_type="first_order")
        self.net = build_mlp(list(layer_sizes), config, quadratic_hidden=False,
                             activation=activation)

    def forward(self, x):
        return self.net(x)

    def inference_plan(self):
        """Execution stages for :func:`repro.inference.compile_model`."""
        return (self.net,)


class LeNet(Module):
    """LeNet-style network for quick integration tests (5 layers)."""

    def __init__(self, num_classes: int = 10, in_channels: int = 3, image_size: int = 32,
                 config: Optional[QuadraticModelConfig] = None) -> None:
        super().__init__()
        self.config = config or QuadraticModelConfig(neuron_type="first_order")
        self.features = nn.Sequential(
            make_conv(self.config, in_channels, 6, kernel_size=5, padding=2),
            nn.ReLU(),
            nn.MaxPool2d(2),
            make_conv(self.config, 6, 16, kernel_size=5, padding=2),
            nn.ReLU(),
            nn.MaxPool2d(2),
        )
        spatial = image_size // 4
        self.classifier = nn.Sequential(
            nn.Flatten(),
            nn.Linear(16 * spatial * spatial, 120),
            nn.ReLU(),
            nn.Linear(120, num_classes),
        )

    def forward(self, x):
        return self.classifier(self.features(x))

    def inference_plan(self):
        """Execution stages for :func:`repro.inference.compile_model`."""
        return (self.features, self.classifier)
