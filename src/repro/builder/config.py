"""Model-structure configuration files (paper Sec. 4.2).

QuadraLib builds models from *structure configuration* objects: a list
describing depth and width, plus switches for the design insights the paper
derives (always insert BatchNorm after a quadratic layer; activation functions
are optional for shallow QDNNs but required for deep ones).  The same
configuration drives both the first-order and the quadratic construction
functions, so first-order baselines and QDNNs are structurally identical
except for the neuron type.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

#: VGG-style feature configurations: channel counts with "M" marking max-pooling.
#: These mirror the torchvision configurations at CIFAR scale.
VGG_CFGS: Dict[str, List[Union[int, str]]] = {
    # 5 conv layers + pools — the "VGG-8" used in Table 2 (plus classifier).
    "VGG8": [64, "M", 128, "M", 256, "M", 512, "M", 512, "M"],
    "VGG11": [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    # 13 conv layers — the paper's VGG-16 feature extractor (Table 3 row 1).
    "VGG16": [64, 64, "M", 128, 128, "M", 256, 256, 256, "M", 512, 512, 512, "M",
              512, 512, 512, "M"],
    # 7 conv layers — the auto-built QuadraNN version of VGG-16 (Table 3).
    "VGG16_QUADRA": [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, "M"],
}

#: ResNet (CIFAR-style) block counts per stage: paper uses [5, 5, 5] = ResNet-32
#: for the first-order baseline and [2, 2, 2] for the auto-built QuadraNN.
RESNET_BLOCKS: Dict[str, List[int]] = {
    "RESNET20": [3, 3, 3],
    "RESNET32": [5, 5, 5],
    "RESNET32_QUADRA": [2, 2, 2],
    "RESNET8": [1, 1, 1],
}

#: MobileNetV1 configurations: (out_channels, stride) per depthwise-separable
#: block.  13 blocks for the first-order baseline, 8 for the QuadraNN version.
MOBILENET_CFGS: Dict[str, List[Tuple[int, int]]] = {
    "MOBILENET13": [
        (64, 1), (128, 2), (128, 1), (256, 2), (256, 1), (512, 2),
        (512, 1), (512, 1), (512, 1), (512, 1), (512, 1), (1024, 2), (1024, 1),
    ],
    "MOBILENET8": [
        (64, 1), (128, 2), (128, 1), (256, 2), (256, 1), (512, 2), (512, 1), (1024, 2),
    ],
}


@dataclass
class QuadraticModelConfig:
    """Switches controlling how a quadratic model is constructed.

    Attributes
    ----------
    neuron_type : str
        Quadratic design to use for converted layers ("OURS", "T2_4", …) or
        ``"first_order"`` for the baseline.
    use_batchnorm : bool
        Design insight 2: quadratic layers produce extreme values, so
        BatchNorm is inserted after every (quadratic) conv by default.
    use_activation : bool
        Design insight 3: shallow QDNNs may drop ReLU; deep ones need it.
    hybrid_bp : bool
        Set ``recompute`` (hybrid back-propagation) on every quadratic layer.
    width_multiplier : float
        Scales every channel count (used to fit CPU budgets in benchmarks).
    """

    neuron_type: str = "OURS"
    use_batchnorm: bool = True
    use_activation: bool = True
    hybrid_bp: bool = False
    width_multiplier: float = 1.0

    def scaled(self, channels: int) -> int:
        return max(int(round(channels * self.width_multiplier)), 8)

    def with_(self, **changes) -> "QuadraticModelConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    @property
    def is_first_order(self) -> bool:
        from ..quadratic.neuron_types import is_first_order

        return is_first_order(self.neuron_type)


def scale_vgg_cfg(cfg: Sequence[Union[int, str]], multiplier: float) -> List[Union[int, str]]:
    """Scale the channel counts of a VGG configuration by ``multiplier``."""
    scaled: List[Union[int, str]] = []
    for item in cfg:
        if item == "M":
            scaled.append("M")
        else:
            scaled.append(max(int(round(int(item) * multiplier)), 8))
    return scaled


def conv_layer_count(cfg: Sequence[Union[int, str]]) -> int:
    """Number of convolution layers in a VGG-style configuration."""
    return sum(1 for item in cfg if item != "M")
