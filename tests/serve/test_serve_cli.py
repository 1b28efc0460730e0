"""The ``repro serve`` subcommand and the CLI hardening satellites."""

from __future__ import annotations

import json

import pytest

from repro import __version__
from repro.cli import build_parser, main


class TestServeSelfTest:
    def test_serve_smoke_answers_bit_identical_over_http(self, capsys):
        # The acceptance check for the subsystem: a 2-worker CLI deployment
        # answers POST /predict with the same bits as Experiment.predictor().
        exit_code = main(["serve", "smoke", "--workers", "2", "--port", "0",
                          "--self-test", "4"])
        out = capsys.readouterr().out
        assert exit_code == 0, out
        assert "serving 'smoke' on http://127.0.0.1:" in out
        assert "bit-identical to Experiment.predictor()" in out
        row = next(line for line in out.splitlines()
                   if "bit-identical to Experiment.predictor()" in line)
        assert row.split("|")[-1].strip() == "yes"

    def test_serve_self_test_json_output(self, capsys):
        exit_code = main(["serve", "smoke", "--workers", "1", "--port", "0",
                          "--self-test", "2", "--json", "--cache-size", "8"])
        out = capsys.readouterr().out
        assert exit_code == 0, out
        payload = json.loads(out[out.index("{"):])
        assert payload["bit_identical"] is True
        assert payload["cache_hit_identical"] is True
        assert payload["workers_alive"] == 1

    def test_serve_self_test_with_cache_disabled_skips_the_cache_check(self, capsys):
        exit_code = main(["serve", "smoke", "--workers", "1", "--port", "0",
                          "--self-test", "2", "--cache-size", "0"])
        out = capsys.readouterr().out
        assert exit_code == 0, out
        assert "skipped (cache disabled)" in out

    def test_serve_rejects_bad_flags_without_traceback(self, capsys):
        exit_code = main(["serve", "smoke", "--workers", "0", "--self-test", "1"])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert err.startswith("error:") and "workers" in err

    @pytest.mark.parametrize("flag", ["--max-wait", "--producer-workers"])
    def test_serve_rejects_retired_flags(self, capsys, flag):
        # The pool never waits on a timer and produces offline material on
        # one thread per triple pool, so neither flag has anything to set.
        # Parsed only: a serve command that parsed would start serving.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "smoke", flag, "1"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_serve_rejects_zero_self_test_requests(self, capsys):
        exit_code = main(["serve", "smoke", "--self-test", "0"])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert err.startswith("error:") and "at least 1 request" in err


class TestCLIHardening:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_malformed_spec_json_is_a_readable_error(self, tmp_path, capsys):
        bad = tmp_path / "bad_spec.json"
        bad.write_text('{"model": {"name": "vgg8",')        # truncated JSON
        exit_code = main(["run", str(bad)])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert err.startswith("error: could not parse spec file")
        assert "Traceback" not in err

    def test_structurally_wrong_spec_is_a_readable_error(self, tmp_path, capsys):
        bad = tmp_path / "wrong_spec.json"
        bad.write_text(json.dumps({"model": ["not", "a", "section"]}))
        exit_code = main(["run", str(bad)])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_serve_rejects_malformed_spec_too(self, tmp_path, capsys):
        bad = tmp_path / "bad_spec.json"
        bad.write_text("]]]")
        exit_code = main(["serve", str(bad), "--self-test", "1"])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert err.startswith("error: could not parse spec file")
