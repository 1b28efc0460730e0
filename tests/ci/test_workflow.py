"""Local (`act`-style) validation of the CI pipeline definition.

CI configuration is code that never runs on a developer's machine, which is
exactly why it rots.  These tests parse ``.github/workflows/ci.yml`` and
check the properties the repo depends on: it is valid YAML with the expected
jobs, every third-party action is pinned to a version, the tier-1 job
runs *exactly* the ROADMAP's tier-1 verify command, so the gate and the
documentation can never drift apart, and a clean runner has every package
the code and the tests import.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml", reason="workflow validation needs PyYAML")

REPO_ROOT = Path(__file__).resolve().parents[2]
WORKFLOW_PATH = REPO_ROOT / ".github" / "workflows" / "ci.yml"
ROADMAP_PATH = REPO_ROOT / "ROADMAP.md"

EXPECTED_JOBS = {"tests", "lint", "smoke", "bench-gate"}

#: Import names whose pip distribution is spelled differently.
PIP_NAMES = {"yaml": "pyyaml"}


@pytest.fixture(scope="module")
def workflow() -> dict:
    return yaml.safe_load(WORKFLOW_PATH.read_text())


def roadmap_tier1_command() -> str:
    """The backticked command on the ROADMAP's 'Tier-1 verify' line."""
    match = re.search(r"\*\*Tier-1 verify:\*\*\s*`([^`]+)`", ROADMAP_PATH.read_text())
    assert match, "ROADMAP.md no longer declares a tier-1 verify line"
    return match.group(1)


def all_steps(workflow: dict):
    for job_name, job in workflow["jobs"].items():
        for step in job["steps"]:
            yield job_name, step


def third_party_imports(*directories: str) -> dict:
    """Top-level imported names under ``directories`` that are neither the
    standard library nor a module of this repository -> importing files."""
    local = {path.stem for path in REPO_ROOT.rglob("*.py")}
    local |= {path.parent.name for path in REPO_ROOT.rglob("__init__.py")}
    found: dict = {}
    for directory in directories:
        for path in (REPO_ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    top = name.split(".")[0]
                    if top not in sys.stdlib_module_names and top not in local:
                        found.setdefault(PIP_NAMES.get(top, top), set()).add(
                            str(path.relative_to(REPO_ROOT)))
    return found


def test_workflow_parses_and_declares_the_expected_jobs(workflow):
    assert set(workflow["jobs"]) == EXPECTED_JOBS
    # `on:` parses as the YAML boolean key True — both push and PR trigger.
    triggers = workflow.get("on", workflow.get(True))
    assert "pull_request" in triggers and "push" in triggers


def test_every_action_is_version_pinned(workflow):
    uses = [(job, step["uses"]) for job, step in all_steps(workflow) if "uses" in step]
    assert uses, "workflow uses no actions at all?"
    for job_name, action in uses:
        assert re.search(r"@v\d+$", action), (
            f"job '{job_name}' uses unpinned action '{action}'")


def test_tier1_job_runs_the_roadmap_verify_command_verbatim(workflow):
    tier1 = roadmap_tier1_command()
    run_commands = [step.get("run", "") for _, step in all_steps(workflow)]
    assert any(tier1 in command for command in run_commands), (
        f"no CI step runs the ROADMAP tier-1 command: {tier1}")


def test_package_imports_only_its_declared_dependencies():
    """A clean install of ``pyproject.toml`` must be able to import repro."""
    match = re.search(r"^dependencies\s*=\s*\[([^\]]*)\]",
                      (REPO_ROOT / "pyproject.toml").read_text(), re.M)
    assert match, "pyproject.toml declares no dependencies list"
    declared = {re.split(r"[<>=!~\[ ;]", name, maxsplit=1)[0].lower()
                for name in re.findall(r"[\"']([^\"']+)[\"']", match.group(1))}
    undeclared = {name: files for name, files in third_party_imports("src/repro").items()
                  if name.lower() not in declared}
    assert not undeclared, f"imported but not in pyproject dependencies: {undeclared}"


def test_tier1_job_installs_everything_the_tests_import(workflow):
    installs = [step["run"] for step in workflow["jobs"]["tests"]["steps"]
                if "pip install" in step.get("run", "")]
    assert installs, "the tier-1 job installs nothing"
    installed = {token.lower() for run in installs
                 for token in run.split("pip install", 1)[1].split()}
    missing = {name: files for name, files in
               third_party_imports("tests", "bench/tests").items()
               if name.lower() not in installed}
    assert not missing, f"tests import packages the tier-1 job never installs: {missing}"


def test_tests_job_covers_the_supported_python_matrix(workflow):
    matrix = workflow["jobs"]["tests"]["strategy"]["matrix"]
    assert matrix["python-version"] == ["3.10", "3.12"]


def test_smoke_job_runs_pipeline_docs_and_serve(workflow):
    smoke_runs = [step.get("run", "") for job, step in all_steps(workflow)
                  if job == "smoke"]
    joined = " ".join(smoke_runs)
    assert "repro run smoke" in joined
    assert "tests/docs" in joined
    assert "repro serve smoke" in joined and "--self-test" in joined


def test_smoke_job_runs_the_serve_soak_under_a_time_cap(workflow):
    """The zero-copy data plane's soak + fault suite runs on every push.

    A wedged shared-memory ring hangs, it doesn't fail — so the step must
    be wrapped in a hard wall-clock cap, and it must cover both the ring
    property/soak tests and the SIGKILL fault injection.
    """
    smoke_runs = [step.get("run", "") for job, step in all_steps(workflow)
                  if job == "smoke"]
    soak = next((run for run in smoke_runs
                 if "tests/serve/test_shm_faults.py" in run), None)
    assert soak, "no smoke step runs the serve fault-injection suite"
    assert "tests/serve/test_ringbuffer.py" in soak
    assert re.search(r"\btimeout 120\b", soak), \
        "the serve soak must be capped at 120s of wall clock"


def test_bench_gate_comment_documents_the_armed_slo_gate(workflow):
    """The scale-out benchmark step carries the p99 SLO gate; its arming
    condition (>= 3 cores) is a property of the script, but CI must keep
    running it in quick mode where the gate is live."""
    runs = " ".join(step.get("run", "")
                    for job, step in all_steps(workflow) if job == "bench-gate")
    assert "bench_serving_scaleout.py --quick" in runs


def test_smoke_job_exercises_checkpoint_resume(workflow):
    """The interrupt story: stop the smoke run after epoch 1, then resume."""
    smoke_runs = [step.get("run", "") for job, step in all_steps(workflow)
                  if job == "smoke"]
    resume_step = next((run for run in smoke_runs if "--resume" in run), None)
    assert resume_step, "no smoke step resumes from a checkpoint"
    assert "--checkpoint-dir" in resume_step and "--stop-after-epoch 1" in resume_step
    assert "repro train --resume" in resume_step
    # The resume consumes the checkpoint the interrupted run wrote.
    assert "latest.npz" in resume_step


def test_bench_gate_runs_quick_benchmarks_and_uploads_results(workflow):
    steps = workflow["jobs"]["bench-gate"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    assert "bench_inference_throughput.py --quick" in runs
    assert "bench_serving_scaleout.py --quick" in runs
    assert "bench_dataloader_prefetch.py --quick" in runs
    assert "bench_secure_inference.py --quick" in runs
    assert "bench_secure_serving.py --quick" in runs
    upload = next(step for step in steps if "upload-artifact" in step.get("uses", ""))
    assert upload["with"]["path"].startswith("benchmarks/results")


def test_bench_gate_runs_the_fig8_hybrid_bp_memory_band(workflow):
    """Hybrid BP is a recompute policy of the quadratic convolution node; the
    Fig. 8 benchmark asserts its saving band and that cached bytes return to
    0.  It is a pytest benchmark, so the step runs from ``benchmarks/`` (its
    conftest makes ``common`` importable) with pytest-benchmark installed and
    timing disabled."""
    steps = workflow["jobs"]["bench-gate"]["steps"]
    runs = [step.get("run", "") for step in steps]
    fig8_idx = next((i for i, run in enumerate(runs) if "bench_fig8_hybrid_bp.py" in run), None)
    assert fig8_idx is not None, "bench-gate never runs the Fig. 8 hybrid-BP benchmark"
    fig8 = steps[fig8_idx]
    assert fig8.get("working-directory") == "benchmarks"
    assert "python -m pytest" in fig8["run"] and "--benchmark-disable" in fig8["run"]
    assert "PYTHONPATH=../src" in fig8["run"]
    install_idx = next((i for i, run in enumerate(runs)
                        if "pip install" in run and "pytest-benchmark" in run), None)
    assert install_idx is not None and install_idx < fig8_idx
    assert "pytest" in runs[install_idx].split("pip install", 1)[1].split()


def test_bench_gate_runs_the_fig5_memory_budgets(workflow):
    """Fig. 5 asserts that every quadratic model needs more training memory
    than its first-order twin, from the estimate a two-batch probe makes.
    Like Fig. 8 it is a pytest benchmark run from ``benchmarks/`` with
    pytest-benchmark installed and timing disabled."""
    steps = workflow["jobs"]["bench-gate"]["steps"]
    runs = [step.get("run", "") for step in steps]
    fig5_idx = next((i for i, run in enumerate(runs)
                     if "bench_fig5_memory_budgets.py" in run), None)
    assert fig5_idx is not None, "bench-gate never runs the Fig. 5 memory benchmark"
    fig5 = steps[fig5_idx]
    assert fig5.get("working-directory") == "benchmarks"
    assert "python -m pytest" in fig5["run"] and "--benchmark-disable" in fig5["run"]
    assert "PYTHONPATH=../src" in fig5["run"]
    install_idx = next((i for i, run in enumerate(runs)
                        if "pip install" in run and "pytest-benchmark" in run), None)
    assert install_idx is not None and install_idx < fig5_idx


def test_bench_gate_runs_the_trajectory_check_after_the_benches(workflow):
    """The trajectory-relative regression gate runs once, after every bench
    that appends to ``results/trajectory.jsonl`` — so its verdict covers all
    of them and the uploaded artifact matches what was gated."""
    steps = workflow["jobs"]["bench-gate"]["steps"]
    runs = [step.get("run", "") for step in steps]
    check_idx = next((i for i, run in enumerate(runs)
                      if "check_trajectory.py" in run), None)
    assert check_idx is not None, "bench-gate never runs check_trajectory.py"
    for bench in ("bench_serving_scaleout.py", "bench_secure_serving.py"):
        bench_idx = next(i for i, run in enumerate(runs) if bench in run)
        assert bench_idx < check_idx, (
            f"{bench} must run before the trajectory check")


def test_bench_gate_uploads_the_trajectory_history(workflow):
    """The append-only ``trajectory.jsonl`` must ship with the artifact —
    it is the history the regression bands are derived from."""
    steps = workflow["jobs"]["bench-gate"]["steps"]
    upload = next(step for step in steps if "upload-artifact" in step.get("uses", ""))
    assert "benchmarks/results/*.jsonl" in upload["with"]["path"]
    assert "benchmarks/results/*.json" in upload["with"]["path"]


def test_bench_gate_restores_the_trajectory_history_from_a_cache(workflow):
    """Without a persisted history the trajectory check can never fail: the
    cache restores it before any bench appends, keyed so only runs on the
    same OS and core count compare, and each run extends the latest save."""
    steps = workflow["jobs"]["bench-gate"]["steps"]
    runs = [step.get("run", "") for step in steps]
    cache_idx = next((i for i, step in enumerate(steps)
                      if step.get("uses", "").startswith("actions/cache@")), None)
    assert cache_idx is not None, "bench-gate does not cache the trajectory"
    cache = steps[cache_idx]["with"]
    assert cache["path"] == "benchmarks/results/trajectory.jsonl"
    key, prefix = cache["key"], cache["restore-keys"].strip()
    assert "${{ runner.os }}" in key and "nproc" in key
    assert "${{ github.run_id }}" in key, "a fixed key is saved once, then never updated"
    assert key.startswith(prefix) and "run_id" not in prefix
    cores_idx = next(i for i, run in enumerate(runs) if "$(nproc)" in run)
    first_bench = next(i for i, run in enumerate(runs) if "benchmarks/bench_" in run)
    check_idx = next(i for i, run in enumerate(runs) if "check_trajectory.py" in run)
    assert cores_idx < cache_idx < first_bench < check_idx


def test_lint_job_compiles_and_ruffs(workflow):
    runs = " ".join(step.get("run", "")
                    for job, step in all_steps(workflow) if job == "lint")
    assert "compileall" in runs
    # Warnings are errors, so an invalid escape sequence fails the gate, and
    # the benchmark harness is compiled too.
    assert "python -W error -m compileall -q -f src benchmarks tests bench" in runs
    assert "ruff check" in runs
    # The ruff config the job refers to must actually exist.
    assert "[tool.ruff" in (REPO_ROOT / "pyproject.toml").read_text()


def test_lint_job_checks_doc_links_and_docstrings(workflow):
    """The docs checker added with the ppml runtime PR runs in the lint job."""
    runs = " ".join(step.get("run", "")
                    for job, step in all_steps(workflow) if job == "lint")
    assert "tests/docs/test_doc_links.py" in runs
    assert (REPO_ROOT / "tests" / "docs" / "test_doc_links.py").exists()


def trajectory_directions() -> dict:
    """``check_trajectory.DIRECTIONS``, read from the script without running it."""
    tree = ast.parse((REPO_ROOT / "benchmarks" / "check_trajectory.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "DIRECTIONS"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("check_trajectory.py no longer defines DIRECTIONS")


def test_every_bench_gate_trajectory_record_is_gated(workflow):
    """The benches the gate job runs append exactly the registered records.

    ``check_trajectory.py`` gates only the benchmarks its ``DIRECTIONS``
    names: a record nobody registered is history that can never fail CI,
    and a registered name no gated bench writes is a gate that never fires.
    """
    runs = " ".join(step.get("run", "") for job, step in all_steps(workflow)
                    if job == "bench-gate")
    appended = set()
    for bench in set(re.findall(r"\bbench_\w+\.py", runs)):
        source = (REPO_ROOT / "benchmarks" / bench).read_text()
        appended.update(re.findall(r"append_trajectory\(\s*\"(\w+)\"", source))
    assert {"fig8_hybrid_bp", "fig5_memory_budgets", "inference_throughput",
            "backend_throughput", "serving_scaleout", "secure_serving",
            "secure_inference", "dataloader_prefetch"} <= appended
    registered = set(trajectory_directions())
    assert not appended - registered, \
        f"bench-gate records with no DIRECTIONS entry: {appended - registered}"
    assert not registered - appended, \
        f"DIRECTIONS entries no bench-gate bench writes: {registered - appended}"


def appended_record_keys(source: str) -> dict:
    """Record name -> the keys of the dict literal each ``append_trajectory`` call appends.

    The record is the call's literal second argument, or the dict literal
    last assigned to the name it passes.
    """
    tree = ast.parse(source)
    literals = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)):
            literals[node.targets[0].id] = node.value
    records = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "append_trajectory"):
            name, record = node.args
            if isinstance(record, ast.Name):
                record = literals[record.id]
            records[name.value] = {key.value for key in record.keys
                                   if isinstance(key, ast.Constant)}
    return records


def test_every_bench_gate_trajectory_record_says_whether_its_gate_was_armed(workflow):
    """The backend, scale-out, secure-serving and prefetch gates arm only on
    hosts with enough cores; a ratio from a host where its gate never armed
    must not read as a pass in the history.  Records whose gate holds on
    every host say ``armed: True``."""
    runs = " ".join(step.get("run", "") for job, step in all_steps(workflow)
                    if job == "bench-gate")
    records = {}
    for bench in set(re.findall(r"\bbench_\w+\.py", runs)):
        records.update(appended_record_keys(
            (REPO_ROOT / "benchmarks" / bench).read_text()))
    assert set(trajectory_directions()) <= set(records)
    for name, keys in sorted(records.items()):
        assert {"armed", "cpus", "quick_mode"} <= keys, name
