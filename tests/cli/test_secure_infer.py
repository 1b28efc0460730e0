"""Tests for ``repro secure-infer`` and the registry-regenerated CLI surfaces."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.cli.main import LIST_CHOICES, _LIST_FAMILIES


def run(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


# --------------------------------------------------------------------------- #
# secure-infer
# --------------------------------------------------------------------------- #

def test_secure_infer_smoke_runs_end_to_end(capsys):
    out = run(["secure-infer", "smoke", "--protocol", "delphi", "--frac-bits", "12",
               "--samples", "2"], capsys)
    assert "matches static analysis" in out and "NO" not in out
    assert "garbled-circuit free" in out
    assert "delphi" in out


def test_secure_infer_json_reports_trace_and_match(capsys):
    out = run(["secure-infer", "smoke", "--samples", "1", "--json"], capsys)
    results = json.loads(out)
    assert results["matches_static"] is True
    assert results["garbled_free"] is True
    assert results["trace"]["totals"]["relu_ops"] == 0
    assert results["trace"]["totals"]["mult_ops"] > 0
    assert results["top1_agreement"] == 1.0
    assert results["online_latency_ms"] > 0


def test_secure_infer_strategy_none_pays_garbled_circuits(capsys):
    out = run(["secure-infer", "smoke", "--samples", "1", "--strategy", "none",
               "--json"], capsys)
    results = json.loads(out)
    # smoke's model keeps its ReLUs when no conversion is applied.
    assert results["garbled_free"] is False
    assert results["matches_static"] is True


@pytest.mark.parametrize("neuron_type", ["T4", "T2_4"])
def test_secure_infer_hybrid_bp_matches_static_analysis(neuron_type, tmp_path, capsys):
    """The hybrid back-propagation layers are counted like their composed twins."""
    from repro.experiment import get_preset

    spec = get_preset("smoke").to_dict()
    spec["model"].update(neuron_type=neuron_type, hybrid_bp=True)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    results = json.loads(run(["secure-infer", str(path), "--samples", "1", "--json"],
                             capsys))
    assert results["matches_static"] is True


def test_secure_infer_per_layer_prints_the_trace(capsys):
    out = run(["secure-infer", "smoke", "--samples", "1", "--per-layer"], capsys)
    assert "Executed protocol trace" in out
    assert "TOTAL" in out


def test_secure_infer_rejects_unknown_protocol(capsys):
    assert main(["secure-infer", "smoke", "--protocol", "quantum"]) == 2
    assert "unknown PPML protocol" in capsys.readouterr().err


def test_secure_infer_rejects_bad_frac_bits(capsys):
    assert main(["secure-infer", "smoke", "--frac-bits", "40"]) == 2
    assert "frac_bits" in capsys.readouterr().err


def test_secure_infer_rejects_unknown_strategy(capsys):
    assert main(["secure-infer", "smoke", "--strategy", "prune"]) == 2
    assert "strategy" in capsys.readouterr().err


def test_secure_infer_rejects_zero_samples(capsys):
    assert main(["secure-infer", "smoke", "--samples", "0"]) == 2
    assert "at least 1" in capsys.readouterr().err


def test_secure_infer_writes_results_file(tmp_path, capsys):
    out_path = tmp_path / "secure.json"
    run(["secure-infer", "smoke", "--samples", "1", "--out", str(out_path)], capsys)
    payload = json.loads(out_path.read_text())
    assert payload["results"]["secure_infer"]["matches_static"] is True


# --------------------------------------------------------------------------- #
# The shared secure flag family (secure-infer and serve --secure)
# --------------------------------------------------------------------------- #

SECURE_FLAGS = ("--protocol", "--frac-bits", "--truncation", "--strategy")


def subcommand_help(name: str, capsys) -> str:
    with pytest.raises(SystemExit):
        build_parser().parse_args([name, "--help"])
    return capsys.readouterr().out


@pytest.mark.parametrize("command", ["secure-infer", "serve"])
def test_secure_flags_exist_on_both_secure_entry_points(command, capsys):
    """The flag family is a shared argparse parent: both commands must
    advertise all four flags, or the two secure surfaces have drifted."""
    help_text = subcommand_help(command, capsys)
    for flag in SECURE_FLAGS:
        assert flag in help_text, f"'repro {command} --help' omits {flag}"


def test_serve_advertises_its_secure_only_flags(capsys):
    help_text = subcommand_help("serve", capsys)
    assert "--secure" in help_text
    assert "--triple-pool-depth" in help_text


def test_secure_flag_defaults_agree_between_the_two_commands():
    """Same parent parser => same defaults; parse both and compare."""
    parser = build_parser()
    infer_args = parser.parse_args(["secure-infer", "smoke"])
    serve_args = parser.parse_args(["serve", "smoke"])
    for flag in ("protocol", "frac_bits", "truncation", "strategy"):
        assert getattr(infer_args, flag) == getattr(serve_args, flag), flag


def test_serve_secure_flags_require_secure(capsys):
    assert main(["serve", "smoke", "--frac-bits", "10"]) == 2
    assert "--secure" in capsys.readouterr().err
    assert main(["serve", "smoke", "--protocol", "gazelle",
                 "--strategy", "square"]) == 2
    err = capsys.readouterr().err
    assert "--protocol" in err and "--strategy" in err


def test_serve_secure_rejects_bad_frac_bits(capsys):
    assert main(["serve", "smoke", "--secure", "--frac-bits", "40"]) == 2
    assert "frac_bits" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# Registry-regenerated surfaces (the drift-proofing fix)
# --------------------------------------------------------------------------- #

def test_list_protocols_prints_every_registered_protocol(capsys):
    from repro.ppml import PROTOCOLS

    out = run(["list", "protocols"], capsys)
    for name in PROTOCOLS:
        assert name in out


def test_list_choices_are_generated_from_the_dispatch_table():
    # The help text, the error message and the dispatch share one source.
    assert LIST_CHOICES == tuple(_LIST_FAMILIES)
    assert "protocols" in LIST_CHOICES and "callbacks" in LIST_CHOICES


def test_list_help_text_names_every_family(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["list", "--help"])
    help_text = capsys.readouterr().out
    for family in LIST_CHOICES:
        assert family in help_text, f"'repro list --help' omits family '{family}'"


def test_list_error_names_every_family(capsys):
    assert main(["list", "gadgets"]) == 2
    err = capsys.readouterr().err
    for family in LIST_CHOICES:
        assert family in err


def test_every_list_family_prints(capsys):
    for family in LIST_CHOICES:
        out = run(["list", family], capsys)
        assert out.strip(), f"'repro list {family}' printed nothing"


def test_quadratic_layer_error_lists_every_registered_design():
    """The ValueError is regenerated from the registries on every raise."""
    from repro.quadratic.factory import quadratic_layer
    from repro.quadratic.neuron_types import ALIASES, NEURON_TYPES

    with pytest.raises(ValueError) as excinfo:
        quadratic_layer("made_up_type", 4, 4)
    message = str(excinfo.value)
    for name in NEURON_TYPES:
        assert name in message
    for alias in ALIASES:
        assert alias in message
    assert "hybrid_bp" in message
