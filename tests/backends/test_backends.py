"""The compute-backend subsystem: registry and bit-identity.

**numpy vs threaded is bit-identical on every registered model**, verified
here zoo-wide.  The threaded engine's probe dispatch promises "worst case
is no speedup, never different bits", and that promise must hold at *any*
thread count — so the sweep forces a multi-threaded pool even on a
single-core CI box.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.autodiff import no_grad
from repro.autodiff.tensor import Tensor
from repro.backends import (
    BACKENDS,
    Backend,
    NumpyBackend,
    ThreadedBackend,
    backend_description,
    backend_names,
    get_backend,
    register_backend,
)
from repro.experiment import MODELS, ModelSpec
from repro.inference import compile_model
from repro.utils.seed import seed_everything

#: probe input shape per zoo model (the MLP takes 16-dim vectors).
_INPUT_SHAPES = {"mlp": (16,)}
DEFAULT_SHAPE = (3, 32, 32)


def zoo_model(name: str, neuron_type: str = "OURS"):
    seed_everything(0)
    spec = ModelSpec(name=name, neuron_type=neuron_type, num_classes=4,
                     width_multiplier=0.125)
    model = spec.build()
    model.eval()
    return model, _INPUT_SHAPES.get(name, DEFAULT_SHAPE)


def probe_input(shape, batch: int = 4) -> np.ndarray:
    # 0.1-scaled: untrained quadratic stacks overflow float32 on unit-scale
    # inputs, and NaN != NaN would vacuously break the equality sweeps.
    rng = np.random.default_rng(0)
    return (0.1 * rng.standard_normal((batch,) + shape)).astype(np.float32)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #

class TestRegistry:
    def test_both_engines_are_registered(self):
        assert backend_names() == ("numpy", "threaded")
        assert BACKENDS["numpy"] is NumpyBackend
        assert BACKENDS["threaded"] is ThreadedBackend

    def test_every_backend_has_a_description(self):
        for name in backend_names():
            assert backend_description(name), f"backend '{name}' lacks a docstring"

    def test_get_backend_default_is_the_reference_engine(self):
        assert isinstance(get_backend(None), NumpyBackend)
        assert isinstance(get_backend("numpy"), NumpyBackend)

    def test_get_backend_is_case_insensitive(self):
        assert isinstance(get_backend("  Threaded "), ThreadedBackend)

    def test_get_backend_passes_instances_through(self):
        engine = ThreadedBackend(num_threads=3)
        assert get_backend(engine) is engine

    def test_get_backend_returns_fresh_instances(self):
        # Instances cache per-shape probe verdicts, so sharing would leak.
        assert get_backend("threaded") is not get_backend("threaded")

    @pytest.mark.parametrize("name", ["cuda", "int8"])
    def test_unknown_backend_error_names_every_engine(self, name):
        with pytest.raises(ValueError) as excinfo:
            get_backend(name)
        message = str(excinfo.value)
        assert f"unknown backend '{name}'" in message
        for engine in backend_names():
            assert engine in message

    def test_register_backend_rejects_bad_names(self):
        with pytest.raises(ValueError):
            register_backend(type("Bad", (Backend,), {"name": "LOUD"}))
        with pytest.raises(ValueError):
            register_backend(type("Bad", (Backend,), {"name": ""}))
        assert "LOUD" not in BACKENDS and "" not in BACKENDS

    def test_partial_backends_inherit_reference_numerics(self):
        # A subclass that overrides nothing is the reference engine.
        class DoNothing(Backend):
            name = "donothing"

        model = nn.Sequential(nn.Linear(8, 8), nn.ReLU(), nn.Linear(8, 3))
        x = probe_input((8,))
        np.testing.assert_array_equal(
            compile_model(model, backend=DoNothing())(x),
            compile_model(model)(x))


# --------------------------------------------------------------------------- #
# The zoo property: numpy == threaded, bit for bit, on every model
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("name", MODELS.names())
def test_threaded_matches_numpy_bit_for_bit_on_every_zoo_model(name):
    model, shape = zoo_model(name)
    x = probe_input(shape)
    reference = compile_model(model, backend="numpy")(x)
    # Force a real thread pool even on a 1-core runner: exactness must not
    # depend on the split count the box happens to pick.
    threaded = compile_model(model, backend=ThreadedBackend(num_threads=4))(x)
    assert np.isfinite(reference).all(), f"{name} overflowed — weak probe input"
    np.testing.assert_array_equal(threaded, reference)


@pytest.mark.parametrize("name", MODELS.names())
def test_optimizer_levels_do_not_change_the_bits(name):
    model, shape = zoo_model(name)
    x = probe_input(shape)
    raw = compile_model(model, optimize="none")(x)
    optimized = compile_model(model, optimize="default")(x)
    np.testing.assert_array_equal(optimized, raw)


def test_full_optimization_stays_within_float_tolerance():
    # BN-into-conv refactors the arithmetic, so "full" promises allclose,
    # not bit-equality.
    model, shape = zoo_model("resnet8")
    x = probe_input(shape)
    raw = compile_model(model, optimize="none")(x)
    full = compile_model(model, optimize="full")(x)
    np.testing.assert_allclose(full, raw, atol=1e-5, rtol=1e-5)


def test_threaded_matches_even_at_one_thread_and_odd_batches():
    model, shape = zoo_model("small_convnet")
    for threads, batch in ((1, 1), (2, 3), (8, 5)):
        x = probe_input(shape, batch=batch)
        np.testing.assert_array_equal(
            compile_model(model, backend=ThreadedBackend(num_threads=threads))(x),
            compile_model(model)(x))


# --------------------------------------------------------------------------- #
# Wiring: compile_model / predictor surfaces
# --------------------------------------------------------------------------- #

class TestWiring:
    def test_compiled_model_reports_its_backend(self):
        model = nn.Sequential(nn.Linear(4, 4))
        compiled = compile_model(model, backend="threaded")
        assert compiled.backend_name == "threaded"
        assert "threaded" in repr(compiled)
        assert compile_model(model).backend_name == "numpy"

    def test_ppml_mode_rejects_backend_selection(self):
        model = nn.Sequential(nn.Linear(4, 4))
        with pytest.raises(ValueError, match="mode='float'"):
            compile_model(model, mode="ppml", backend="threaded")
        with pytest.raises(ValueError, match="mode='float'"):
            compile_model(model, mode="ppml", optimize="full")

    def test_backend_matches_eager_forward(self):
        model, shape = zoo_model("lenet")
        x = probe_input(shape)
        with no_grad():
            expected = model(Tensor(x)).data
        actual = compile_model(model, backend=ThreadedBackend(num_threads=4))(x)
        np.testing.assert_allclose(actual, expected, atol=1e-6, rtol=1e-6)

    def test_predictor_accepts_a_backend(self):
        from repro.inference import BatchedPredictor

        model, shape = zoo_model("small_convnet")
        x = probe_input(shape, batch=2)
        predictor = BatchedPredictor(model, max_batch_size=4, backend="threaded")
        try:
            out = predictor.predict(x[0])
        finally:
            predictor.close()
        np.testing.assert_array_equal(out, compile_model(model)(x[:1])[0])
