"""Tests for the secure-inference runtime (fixed-point execution + traces).

The headline property (the issue's acceptance bar): for **every** zoo model,
the operation counts of an *executed* protocol trace equal the static
``ppml.analyse_model`` counts exactly — MACs, garbled-circuit comparisons
and Beaver-triple multiplications, all three.  The static cost tables and
the runtime measure the same thing through entirely different code paths, so
agreement is evidence both are right.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn, ppml
from repro.experiment import MODELS, Experiment, ModelSpec, get_preset
from repro.inference import compile_model
from repro.ppml import (
    ProtocolTrace,
    SecureConfig,
    SecureExecutionError,
    SecurePredictor,
    secure_compile,
)
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


def static_operations(model, input_shape):
    return [layer.operations
            for layer in ppml.analyse_model(model, input_shape, protocol="delphi").layers]


# --------------------------------------------------------------------------- #
# The zoo property: measured == static, on every registered model
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("name", MODELS.names())
def test_executed_trace_matches_static_counts_on_every_zoo_model(name):
    model, input_shape = zoo_model(name)
    secure = secure_compile(model, SecureConfig(frac_bits=12))
    probe = np.random.default_rng(0).standard_normal(
        (1,) + tuple(input_shape)).astype(np.float32)
    _, trace = secure.run(probe)
    diff = trace.count_diff(static_operations(model, input_shape))
    assert diff == {}, f"measured vs static counts disagree on {name}: {diff}"


@pytest.mark.parametrize("name", ["vgg8", "resnet8", "mobilenet_v1"])
def test_executed_trace_matches_static_counts_first_order(name):
    model, input_shape = zoo_model(name, neuron_type="first_order")
    secure = secure_compile(model)
    probe = np.zeros((1,) + tuple(input_shape), dtype=np.float32)
    _, trace = secure.run(probe)
    assert trace.count_diff(static_operations(model, input_shape)) == {}
    # A first-order ReLU model pays garbled circuits, never Beaver triples.
    assert trace.total_relu_ops > 0 and trace.total_mult_ops == 0


def test_quadratic_no_relu_conversion_executes_garbled_free():
    """The paper's claim, executed: the converted model runs with zero
    garbled-circuit operations (and still matches its static analysis)."""
    model, input_shape = zoo_model("vgg8", neuron_type="first_order")
    converted, _ = ppml.to_ppml_friendly(model, strategy="quadratic_no_relu",
                                         inplace=False)
    secure = secure_compile(converted)
    _, trace = secure.run(np.zeros((1,) + input_shape, dtype=np.float32))
    assert trace.garbled_free
    assert trace.total_mult_ops > 0
    assert trace.count_diff(static_operations(converted, input_shape)) == {}


def test_trace_counts_scale_with_batch_size():
    model, input_shape = zoo_model("small_convnet")
    secure = secure_compile(model)
    _, trace1 = secure.run(np.zeros((1,) + input_shape, dtype=np.float32))
    _, trace3 = secure.run(np.zeros((3,) + input_shape, dtype=np.float32))
    assert trace3.total_mult_ops == 3 * trace1.total_mult_ops
    assert trace3.total_macs == 3 * trace1.total_macs


@pytest.mark.parametrize("neuron_type, hybrid_bp", [
    *(pytest.param(t, False, id=t) for t in ("T2", "T3", "T4", "T4_ID", "T2_4", "OURS")),
    # hybrid_bp sets a backward policy; the layer kind and its counts stay the same.
    *(pytest.param(t, True, id=f"{t}-hybrid_bp")
      for t in ("T2", "T3", "T4", "T4_ID", "T2_4", "OURS")),
])
def test_executed_trace_matches_static_counts_for_every_composable_design(neuron_type,
                                                                          hybrid_bp):
    """Including the squared-input designs (T2, T2_4), whose X² projection
    costs one Beaver triple per input element in both static and measured."""
    from repro.quadratic import quadratic_layer
    from repro.quadratic.functional import REQUIRED_RESPONSES

    seed_everything(0)
    flat = 3 * 8 * 8
    model = nn.Sequential(
        quadratic_layer(neuron_type, 3, 3, kernel_size=3, padding=1, hybrid_bp=hybrid_bp),
        nn.Flatten(),
        # T4_ID adds the raw input, so its dense layer must preserve width.
        quadratic_layer(neuron_type, flat, flat if neuron_type == "T4_ID" else 4,
                        hybrid_bp=hybrid_bp),
    )
    model.eval()
    _, trace = secure_compile(model).run(np.zeros((1, 3, 8, 8), dtype=np.float32))
    assert trace.count_diff(static_operations(model, (3, 8, 8))) == {}
    assert trace.total_mult_ops > 0
    if "sq" in REQUIRED_RESPONSES[neuron_type]:
        # The squared-input projection adds one triple per input element.
        assert trace.total_mult_ops >= 3 * 8 * 8


@pytest.mark.parametrize("pool", [nn.MaxPool2d((2, 4)), nn.AvgPool2d((2, 4)),
                                  nn.MaxPool2d((3, 2), stride=1, padding=1)],
                         ids=["max-2x4", "avg-2x4", "max-3x2-overlapping"])
def test_executed_trace_matches_static_counts_for_non_square_pools(pool):
    """A kh x kw max-pool window costs kh*kw-1 comparisons per output element,
    in both the static count and the executed trace."""
    seed_everything(0)
    model = nn.Sequential(nn.Conv2d(3, 4, 3, padding=1), nn.ReLU(), pool,
                          nn.GlobalAvgPool2d(), nn.Linear(4, 4))
    model.eval()
    _, trace = secure_compile(model).run(np.zeros((1, 3, 8, 8), dtype=np.float32))
    assert trace.count_diff(static_operations(model, (3, 8, 8))) == {}


def test_measured_savings_match_at_batch_sizes_above_one():
    """Static conv MACs scale with the probe batch, like the runtime's."""
    model, input_shape = zoo_model("lenet", neuron_type="first_order")
    converted, _ = ppml.to_ppml_friendly(model, strategy="quadratic_no_relu",
                                         inplace=False)
    savings = ppml.ppml_savings(model, converted, input_shape, protocol="delphi",
                                batch_size=2, measured=True)
    assert savings.measured_matches is True


# --------------------------------------------------------------------------- #
# Numerics: fixed point vs the float compiled path
# --------------------------------------------------------------------------- #

def test_drift_shrinks_with_more_fractional_bits():
    model, input_shape = zoo_model("small_convnet")
    x = np.random.default_rng(1).standard_normal((2,) + input_shape).astype(np.float32)
    reference = compile_model(model)(x)
    drifts = []
    for frac_bits in (8, 12, 16):
        out, _ = secure_compile(model, SecureConfig(frac_bits=frac_bits)).run(x)
        drifts.append(float(np.max(np.abs(out - reference))))
    assert drifts[0] > drifts[1] > drifts[2]
    scale = max(float(np.max(np.abs(reference))), 1.0)
    assert drifts[2] / scale < 1e-3        # 16 bits: well under 0.1% relative


def test_nearest_truncation_is_reproducible_across_compiles():
    model, input_shape = zoo_model("lenet")
    x = np.random.default_rng(2).standard_normal((1,) + input_shape).astype(np.float32)
    out_a, _ = secure_compile(model, SecureConfig(seed=7)).run(x)
    out_b, _ = secure_compile(model, SecureConfig(seed=7)).run(x)
    assert np.array_equal(out_a, out_b)


def test_stochastic_truncation_is_seeded_per_call():
    model, input_shape = zoo_model("lenet")
    cfg = SecureConfig(truncation="stochastic", seed=3)
    x = np.random.default_rng(3).standard_normal((1,) + input_shape).astype(np.float32)
    first_model = secure_compile(model, cfg)
    out_call0, _ = first_model.run(x)
    out_call1, _ = first_model.run(x)
    # Fresh noise per call, but call k is reproducible across executions.
    assert not np.array_equal(out_call0, out_call1)
    assert np.array_equal(out_call0, secure_compile(model, cfg)(x))


def test_relu_and_maxpool_are_exact_on_the_fixed_point_grid():
    """Comparisons cost garbled circuits but introduce no numeric error."""
    seed_everything(0)
    model = nn.Sequential(nn.ReLU(), nn.MaxPool2d(2))
    model.eval()
    x = ppml.decode(ppml.encode(
        np.random.default_rng(4).standard_normal((1, 2, 8, 8)).astype(np.float32), 12), 12)
    out, trace = secure_compile(model).run(x)
    expected = np.maximum(x, 0.0).reshape(1, 2, 4, 2, 4, 2).max(axis=(3, 5))
    assert np.array_equal(out, expected)
    assert trace.total_relu_ops == 2 * 8 * 8 + 2 * 4 * 4 * 3


# --------------------------------------------------------------------------- #
# Trace costing
# --------------------------------------------------------------------------- #

def test_estimate_adds_one_round_trip_per_round():
    model, input_shape = zoo_model("lenet", neuron_type="first_order")
    secure = secure_compile(model, SecureConfig(protocol="delphi"))
    _, trace = secure.run(np.zeros((1,) + input_shape, dtype=np.float32))
    estimate = trace.estimate()
    assert trace.total_rounds > 0
    expected = trace.cost("delphi").total.microseconds \
        + trace.total_rounds * estimate.protocol.round_trip_us
    assert estimate.online_microseconds == pytest.approx(expected)


def test_relu_trace_not_runnable_under_cryptonets():
    model, input_shape = zoo_model("lenet", neuron_type="first_order")
    _, trace = secure_compile(model).run(np.zeros((1,) + input_shape, dtype=np.float32))
    assert not trace.estimate("cryptonets").runnable
    assert trace.estimate("delphi").runnable


def test_trace_round_trips_to_dict():
    model, input_shape = zoo_model("small_convnet")
    _, trace = secure_compile(model).run(np.zeros((1,) + input_shape, dtype=np.float32))
    data = trace.to_dict()
    assert data["protocol"] == "delphi"
    assert data["totals"]["mult_ops"] == trace.total_mult_ops
    assert len(data["layers"]) == len(trace.layers)
    assert isinstance(ProtocolTrace(frac_bits=data["frac_bits"]), ProtocolTrace)


# --------------------------------------------------------------------------- #
# Refusals: the secure path never silently falls back to float
# --------------------------------------------------------------------------- #

def test_layernorm_is_refused():
    model = nn.Sequential(nn.Linear(4, 4), nn.LayerNorm((4,)))
    with pytest.raises(SecureExecutionError, match="LayerNorm"):
        secure_compile(model)


def test_full_rank_t1_is_refused():
    from repro.quadratic import type1

    model = nn.Sequential(type1(4, 4))
    with pytest.raises(SecureExecutionError, match="T1"):
        secure_compile(model)


def test_batchnorm_without_running_stats_is_refused():
    model = nn.Sequential(nn.BatchNorm2d(4, track_running_stats=False))
    with pytest.raises(SecureExecutionError, match="running statistics"):
        secure_compile(model)


def test_unknown_module_is_refused_with_the_layer_name():
    class Exotic(nn.Module):
        def forward(self, x):
            return x

    model = nn.Sequential(nn.ReLU(), Exotic())
    with pytest.raises(SecureExecutionError, match="Exotic"):
        secure_compile(model)


def test_hooked_modules_run_their_secure_lowering():
    """Forward hooks observe eager float activations; the secure path runs a
    hooked module's own lowering and traces it like any other layer."""
    model, input_shape = zoo_model("small_convnet")
    probe = np.zeros((1,) + input_shape, dtype=np.float32)
    expected, expected_trace = secure_compile(model).run(probe)
    model.features.register_forward_hook(lambda *args: None)
    model.features[0].register_forward_hook(lambda *args: None)
    out, trace = secure_compile(model).run(probe)
    assert np.array_equal(out, expected)
    assert [layer.to_dict() for layer in trace.layers] == \
        [layer.to_dict() for layer in expected_trace.layers]


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #

def test_compile_model_ppml_mode_returns_secure_model():
    model, input_shape = zoo_model("small_convnet")
    secure = compile_model(model, mode="ppml", frac_bits=10, protocol="gazelle")
    assert isinstance(secure, ppml.SecureCompiledModel)
    assert secure.fmt.frac_bits == 10
    assert secure.protocol.name == "gazelle"
    out = secure(np.zeros((1,) + input_shape, dtype=np.float32))
    assert out.shape == (1, 4)
    assert secure.last_trace is not None


def test_compile_model_rejects_bad_modes_and_stray_options():
    model, _ = zoo_model("small_convnet")
    with pytest.raises(ValueError, match="compile mode"):
        compile_model(model, mode="int8")
    with pytest.raises(TypeError, match="ppml"):
        compile_model(model, frac_bits=10)


def test_secure_predictor_answers_single_queries():
    model, input_shape = zoo_model("small_convnet")
    predictor = SecurePredictor(model, protocol="delphi", frac_bits=12)
    out = predictor.predict(np.zeros(input_shape, dtype=np.float32))
    assert out.shape == (4,)
    assert predictor.last_trace is not None
    assert predictor.estimate().online_microseconds > 0


def test_experiment_secure_predictor_serves_the_converted_model():
    experiment = Experiment(get_preset("smoke"))
    predictor = experiment.secure_predictor(frac_bits=12)
    sample = np.zeros(experiment.spec.data.input_shape, dtype=np.float32)
    out = predictor.predict(sample)
    assert out.shape == (experiment.spec.model.num_classes,)
    # smoke's spec strategy is quadratic_no_relu: the executed trace is GC-free.
    assert predictor.last_trace.garbled_free
    assert experiment.results["secure"]["strategy"] == "quadratic_no_relu"
    unconverted = experiment.secure_predictor(convert=False)
    unconverted.predict(sample)
    assert not unconverted.last_trace.garbled_free


def test_ppml_savings_measured_validates_the_static_counts():
    model, input_shape = zoo_model("vgg8", neuron_type="first_order")
    converted, _ = ppml.to_ppml_friendly(model, strategy="quadratic_no_relu",
                                         inplace=False)
    savings = ppml.ppml_savings(model, converted, input_shape, protocol="delphi",
                                measured=True)
    assert savings.measured
    assert savings.measured_matches is True
    assert savings.after_trace.garbled_free
    assert savings.latency_ratio < 1.0
    unmeasured = ppml.ppml_savings(model, converted, input_shape)
    assert not unmeasured.measured and unmeasured.measured_matches is None
