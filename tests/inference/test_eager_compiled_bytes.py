"""Eager and compiled forwards agree in bytes, not just in value.

Every float convolution lowers its input once per projection into
batch-innermost (G, C/G·kh·kw, OH·OW·N) columns and projects them with one
GEMM per group over the whole batch: eager ``Conv2d``, the quadratic node
under both back-propagation policies, and the compiled ``conv_step`` and
``quadratic_conv_step`` on the ``numpy`` and ``threaded`` engines.  So their
outputs must be equal in ``tobytes()`` at every batch size, stride, padding
and group count, for every composable neuron type.  Batch 32 is large enough
for ``threaded`` (two threads) to split both the lowering and the projection.

The dense quadratic node and the compiled ``quadratic_linear_step`` share one
forward over ``x.reshape(-1, in)`` rows, so they agree in bytes too, at every
batch size and with extra leading dimensions.

ReLU is pinned the same way on the values whose sign of zero a platform's
``maximum`` could pick.

Eager convolutions hand their batch-innermost rows on uncopied, while the
compiled plan copies to NCHW at batch > 1; every registered image model, in
evaluation mode, must still give the compiled plan's bytes.  That holds only
where a reduction or GEMM reads memory in the compiled order: the global
pool's mean and the classifier's left operand.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import nn
from repro.autodiff import Tensor
from repro.backends import ThreadedBackend
from repro.experiment import ModelSpec
from repro.experiment.registry import MODELS
from repro.inference import compile_model
from repro.quadratic import QuadraticConv2d, QuadraticLinear
from repro.utils import seed_everything

COMPOSABLE_TYPES = ["T2", "T3", "T4", "T4_ID", "T2_4", "OURS"]
QUADRATIC = [*COMPOSABLE_TYPES, *(f"{name}-hybrid" for name in COMPOSABLE_TYPES)]
LAYERS = ["Conv2d", *QUADRATIC]
ENGINES = ("numpy", ThreadedBackend(num_threads=2))


def with_random_bias(layer):
    # A zero bias would hide a wrong bias path.
    layer.bias.data[...] = np.random.default_rng(7).standard_normal(layer.bias.shape)
    return layer


def make_layer(kind: str, stride: int, padding: int, groups: int):
    kwargs = dict(kernel_size=3, stride=stride, padding=padding, groups=groups)
    if kind == "Conv2d":
        return with_random_bias(nn.Conv2d(4, 6, **kwargs))
    neuron_type = kind.split("-")[0]
    layer = QuadraticConv2d(4, 4 if neuron_type == "T4_ID" else 6,
                            neuron_type=neuron_type, **kwargs)
    layer.recompute = kind.endswith("-hybrid")
    return with_random_bias(layer)


def _cases():
    for kind, batch, stride, padding, groups in itertools.product(
            LAYERS, (1, 2, 7, 32), (1, 2), (0, 1), (1, 2)):
        if kind.startswith("T4_ID") and (stride, padding) != (1, 1):
            continue  # the identity path needs an H×W-preserving convolution
        yield pytest.param(kind, batch, stride, padding, groups,
                           id=f"{kind}-n{batch}-s{stride}-p{padding}-g{groups}")


@pytest.mark.parametrize("kind,batch,stride,padding,groups", list(_cases()))
def test_compiled_convolution_equals_eager_in_bytes(kind, batch, stride, padding, groups):
    layer = make_layer(kind, stride, padding, groups)
    model = nn.Sequential(layer)
    x = np.random.default_rng(batch).standard_normal((batch, 4, 7, 7)).astype(np.float32)
    assert_compiled_equals_eager(model, x)


def assert_compiled_equals_eager(model, x):
    eager = model(Tensor(x)).data
    for engine in ENGINES:
        compiled = compile_model(model, backend=engine)
        assert not compiled.fallback_modules
        out = compiled(x)
        assert out.shape == eager.shape and out.dtype == eager.dtype
        assert out.tobytes() == eager.tobytes(), f"{compiled.backend_name} differs"


IMAGE_MODELS = [name for name in MODELS.names() if name != "mlp"]


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("neuron_type", ["first_order", "OURS"])
@pytest.mark.parametrize("name", IMAGE_MODELS)
def test_zoo_model_in_eval_mode_equals_compiled_in_bytes(name, neuron_type, batch):
    seed_everything(0)
    model = ModelSpec(name=name, neuron_type=neuron_type, num_classes=4,
                      width_multiplier=0.25).build()
    model.eval()
    x = (0.1 * np.random.default_rng(batch).standard_normal((batch, 3, 32, 32))
         ).astype(np.float32)
    assert_compiled_equals_eager(model, x)


@pytest.mark.parametrize("shape", [(1, 32), (2, 32), (7, 32), (32, 32), (2, 3, 32)],
                         ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("kind", QUADRATIC)
def test_compiled_quadratic_linear_equals_eager_in_bytes(kind, shape):
    """Batch 32 at 32→24 features is enough work for ``threaded`` to split the GEMM."""
    neuron_type = kind.split("-")[0]
    layer = QuadraticLinear(32, 32 if neuron_type == "T4_ID" else 24, neuron_type=neuron_type)
    layer.recompute = kind.endswith("-hybrid")
    model = nn.Sequential(with_random_bias(layer), nn.ReLU())
    x = np.random.default_rng(shape[0]).standard_normal(shape).astype(np.float32)
    assert_compiled_equals_eager(model, x)


def test_relu_gives_one_answer_eager_and_compiled():
    values = np.array([[-np.inf, -1.0, -0.0, 0.0, 2.0, np.nan, np.inf]], dtype=np.float32)
    model = nn.Sequential(nn.ReLU())
    with np.errstate(all="raise"):
        eager = model(Tensor(values)).data
    compiled = compile_model(model)(values)
    expected = np.array([[0.0, 0.0, 0.0, 0.0, 2.0, np.nan, np.inf]], dtype=np.float32)
    assert not np.signbit(eager[0, :4]).any()
    assert eager.tobytes() == compiled.tobytes()
    np.testing.assert_array_equal(eager, expected)
