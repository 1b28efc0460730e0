"""CLI surfaces of the compute-backend registry (drift-proofed).

Same discipline as the ``repro list`` families: every flag default, help
string, error message and table that mentions backends is *generated from*
:data:`repro.backends.BACKENDS`, so registering another engine updates all
of them at once.  These tests pin that property — they iterate the registry,
never a hard-coded name list.
"""

from __future__ import annotations

import json

import pytest

from repro.backends import backend_description, backend_names
from repro.cli import build_parser, main
from repro.cli.main import BACKEND_CHOICES, LIST_CHOICES


def run(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def subcommand_help(capsys, command: str) -> str:
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    return capsys.readouterr().out


# --------------------------------------------------------------------------- #
# Registry-regenerated surfaces
# --------------------------------------------------------------------------- #

def test_backend_choices_are_generated_from_the_registry():
    assert BACKEND_CHOICES == backend_names()
    assert "backends" in LIST_CHOICES


def test_list_backends_prints_every_registered_engine(capsys):
    out = run(["list", "backends"], capsys)
    for name in backend_names():
        assert name in out
        assert backend_description(name) in out


@pytest.mark.parametrize("command", ["infer", "serve", "profile"])
def test_backend_flag_help_names_every_engine(capsys, command):
    help_text = subcommand_help(capsys, command)
    assert "--backend" in help_text
    for name in backend_names():
        assert name in help_text, f"'repro {command} --help' omits backend '{name}'"


def test_infer_error_names_every_engine(capsys):
    assert main(["infer", "smoke", "--backend", "cuda"]) == 2
    err = capsys.readouterr().err
    assert "cuda" in err
    for name in backend_names():
        assert name in err


def test_serve_error_names_every_engine(capsys):
    assert main(["serve", "smoke", "--backend", "tpu"]) == 2
    err = capsys.readouterr().err
    for name in backend_names():
        assert name in err


def test_profile_error_names_every_engine(capsys):
    assert main(["profile", "--model", "lenet", "--num-classes", "4",
                 "--compiled", "--backend", "cuda"]) == 2
    err = capsys.readouterr().err
    for name in backend_names():
        assert name in err


# --------------------------------------------------------------------------- #
# End-to-end flag behavior
# --------------------------------------------------------------------------- #

def test_infer_reports_backend_and_optimizer(capsys):
    out = run(["infer", "smoke", "--samples", "4", "--repeats", "1",
               "--backend", "threaded", "--json"], capsys)
    payload = json.loads(out)
    assert payload["backend"] == "threaded"
    assert payload["optimization"]["level"] == "default"
    assert payload["max_abs_diff"] <= 1e-6


def test_infer_optimize_none_disables_rewrites(capsys):
    out = run(["infer", "smoke", "--samples", "4", "--repeats", "1",
               "--optimize", "none", "--json"], capsys)
    payload = json.loads(out)
    assert payload["optimization"]["level"] == "none"
    assert sum(value for key, value in payload["optimization"].items()
               if key != "level") == 0
    assert payload["max_abs_diff"] <= 1e-6


def test_infer_rejects_unknown_optimize_level(capsys):
    assert main(["infer", "smoke", "--optimize", "O3"]) == 2
    assert "none, default, full" in capsys.readouterr().err


def test_infer_table_shows_backend(capsys):
    out = run(["infer", "smoke", "--samples", "4", "--repeats", "1",
               "--backend", "threaded"], capsys)
    assert "threaded" in out
    assert "optimizer rewrites" in out


def test_profile_compiled_latency_reports_backend(capsys):
    out = run(["profile", "--model", "lenet", "--image-size", "32",
               "--num-classes", "4", "--latency", "--latency-repeats", "1",
               "--batch-size", "4", "--compiled", "--backend", "threaded"], capsys)
    assert "compiled latency / batch (threaded)" in out
