"""The compute-backend subsystem: registry, bit-identity and quantization.

The acceptance bar from the issue, verified here zoo-wide:

* **numpy vs threaded is bit-identical on every registered model.**  The
  threaded engine's probe dispatch promises "worst case is no speedup,
  never different bits", and that promise must hold at *any* thread count —
  so the sweep forces a multi-threaded pool even on a single-core CI box.
* **int8 is approximate but useful**: its top-1 predictions agree with the
  exact engine on a trained smoke model, and its quantizer is the same
  arithmetic as ``ppml.fixedpoint.encode`` plus int8 saturation.
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
    Int8Backend,
    INT8_MAX,
    NumpyBackend,
    ThreadedBackend,
    backend_description,
    backend_names,
    get_backend,
    register_backend,
)
from repro.experiment import MODELS, ModelSpec
from repro.inference import compile_model
from repro.ppml.fixedpoint import MAX_FRAC_BITS, encode
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
    def test_all_three_engines_are_registered(self):
        assert backend_names() == ("numpy", "threaded", "int8")
        assert BACKENDS["numpy"] is NumpyBackend
        assert BACKENDS["threaded"] is ThreadedBackend
        assert BACKENDS["int8"] is Int8Backend

    def test_exactness_flags(self):
        assert NumpyBackend.exact and ThreadedBackend.exact
        assert not Int8Backend.exact

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
        # Instances may cache per-weight state, so sharing would leak.
        assert get_backend("int8") is not get_backend("int8")

    def test_unknown_backend_error_names_every_engine(self):
        with pytest.raises(ValueError) as excinfo:
            get_backend("cuda")
        message = str(excinfo.value)
        assert "cuda" in message
        for name in backend_names():
            assert name in message

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
# int8: approximate, but quantified
# --------------------------------------------------------------------------- #

class TestInt8:
    def test_quantize_is_fixedpoint_encode_with_saturation(self):
        rng = np.random.default_rng(3)
        for scale in (0.01, 1.0, 37.5):
            x = (scale * rng.standard_normal(257)).astype(np.float32)
            q, bits = Int8Backend.quantize(x)
            assert -MAX_FRAC_BITS <= bits <= MAX_FRAC_BITS
            expected = np.clip(encode(x, bits) if bits >= 0
                               else np.rint(x.astype(np.float64) * 2.0 ** bits),
                               -INT8_MAX, INT8_MAX)
            np.testing.assert_array_equal(q.astype(np.int64), expected.astype(np.int64))
            assert q.dtype == np.float32
            assert float(np.abs(q).max()) <= INT8_MAX

    def test_quantize_handles_degenerate_tensors(self):
        q, bits = Int8Backend.quantize(np.zeros(5, dtype=np.float32))
        assert bits == 0 and not q.any()
        q, bits = Int8Backend.quantize(np.zeros((0,), dtype=np.float32))
        assert bits == 0 and q.size == 0

    def test_weights_are_quantized_once_and_cached_by_identity(self):
        engine = Int8Backend()
        w = np.random.default_rng(0).standard_normal((4, 4)).astype(np.float32)
        first = engine._weight(w)
        assert engine._weight(w)[0] is first[0]
        assert engine._weight(w.copy())[0] is not first[0]

    def test_int8_gemm_is_close_on_tame_inputs(self):
        engine = Int8Backend()
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 16)).astype(np.float32)
        w = rng.standard_normal((16, 4)).astype(np.float32)
        out = np.empty((8, 4), dtype=np.float32)
        engine.gemm(x, w, out=out)
        np.testing.assert_allclose(out, x @ w, atol=0.5)
        assert not np.array_equal(out, x @ w)  # it really did quantize

    def test_int8_top1_agrees_with_exact_on_a_trained_smoke_model(self):
        from repro.experiment import Experiment, get_preset

        experiment = Experiment(get_preset("smoke"))
        experiment.fit()
        _, test_set = experiment.datasets()
        x = np.stack([np.asarray(test_set[i][0], dtype=np.float32)
                      for i in range(min(32, len(test_set)))])
        exact = compile_model(experiment.model, backend="numpy")(x)
        quant = compile_model(experiment.model, backend="int8")(x)
        agreement = float(np.mean(exact.argmax(axis=-1) == quant.argmax(axis=-1)))
        assert agreement >= 0.75, f"int8 top-1 agreement {agreement:.2f}"


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
