"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def run(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


# --------------------------------------------------------------------------- #
# Parser behaviour
# --------------------------------------------------------------------------- #

def test_parser_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_parser_rejects_unknown_model():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["profile", "--model", "transformer"])


@pytest.mark.parametrize("argv", [["convert"], ["ppml"], ["explore"],
                                  ["train", "--model", "vgg8"]])
def test_removed_workflow_subcommands_are_usage_errors(argv, capsys):
    """Workflows run through `repro run <spec>`; `train` takes only `--resume`."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "usage: repro" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #

def test_neurons_lists_every_registered_design(capsys):
    out = run(["neurons"], capsys)
    for name in ("T1", "T2", "T3", "T4", "T2_4", "OURS"):
        assert name in out
    assert "(Wa X) ∘ (Wb X) + Wc X" in out


def test_profile_prints_parameters_and_memory(capsys):
    out = run(["profile", "--model", "vgg8", "--neuron-type", "OURS",
               "--width-multiplier", "0.25", "--image-size", "32", "--num-classes", "4",
               "--batch-size", "32"], capsys)
    assert "parameters" in out
    assert "training memory" in out
    assert "GiB" in out


def test_profile_per_layer_and_latency(capsys):
    out = run(["profile", "--model", "lenet", "--image-size", "32", "--num-classes", "4",
               "--per-layer", "--latency", "--latency-repeats", "1", "--batch-size", "4"],
              capsys)
    assert "Per-layer profile" in out
    assert "train latency / batch" in out


def test_infer_smoke(capsys):
    out = run(["infer", "smoke", "--samples", "8", "--repeats", "1",
               "--max-batch-size", "4"], capsys)
    assert "compiled latency / sample" in out
    assert "batched throughput" in out
    # The compiled path must agree with the eager forward (bit-identical on
    # the smoke model).
    diff_line = next(line for line in out.splitlines() if "max |compiled - eager|" in line)
    assert float(diff_line.split("|")[-1].strip()) <= 1e-6


def test_infer_json_output(capsys):
    import json

    out = run(["infer", "smoke", "--samples", "4", "--repeats", "1", "--json"], capsys)
    payload = json.loads(out)
    assert payload["fallback_modules"] == 0
    assert payload["max_abs_diff"] <= 1e-6
    assert payload["compiled_ms_per_sample"] > 0
