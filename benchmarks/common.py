"""Shared configuration and helpers for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper at a *scaled*
workload (synthetic data, reduced widths/epochs) so that the full suite runs
on a CPU in minutes.  The scaling constants live here so a user with more
time can raise them in one place; the relative comparisons the paper makes
(who wins, by roughly what factor) are preserved at any scale.

Each benchmark

* trains/evaluates the models of the corresponding experiment,
* prints the paper-style table via :func:`repro.utils.print_table`,
* saves the raw numbers to ``benchmarks/results/<experiment>.json``, and
* uses the ``benchmark`` fixture on a representative kernel (one training or
  inference step) so ``pytest --benchmark-only`` also reports timing.
"""

from __future__ import annotations

import os
from typing import Dict

import numpy as np

from repro.data.synthetic import SyntheticImageClassification
from repro.utils import save_results, seed_everything

# --------------------------------------------------------------------------- #
# Global scale knobs (raise these for a higher-fidelity reproduction)
# --------------------------------------------------------------------------- #

#: width multiplier applied to every backbone (paper uses 1.0)
WIDTH = 0.25
#: samples in the synthetic training sets (paper: 50k CIFAR images)
TRAIN_SAMPLES = 192
#: samples in the synthetic test sets (paper: 10k CIFAR images)
TEST_SAMPLES = 96
#: training epochs per model (paper: 200)
EPOCHS = 3
#: batches per epoch cap
MAX_BATCHES = 6
#: mini-batch size (paper: 256 / 128)
BATCH_SIZE = 16
#: image resolution for the classification benchmarks (paper: 32 / 64)
IMAGE_SIZE = 16
#: number of classes for the CIFAR-10 stand-in
NUM_CLASSES = 6

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def classification_data(num_classes: int = NUM_CLASSES, image_size: int = IMAGE_SIZE,
                        seed: int = 0):
    """Train/test synthetic classification datasets sharing class recipes."""
    train = SyntheticImageClassification(num_samples=TRAIN_SAMPLES, num_classes=num_classes,
                                         image_size=image_size, seed=seed, split_seed=0)
    test = SyntheticImageClassification(num_samples=TEST_SAMPLES, num_classes=num_classes,
                                        image_size=image_size, seed=seed, split_seed=1)
    return train, test


def save_experiment(name: str, results: Dict) -> str:
    """Persist an experiment's numbers under ``benchmarks/results``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    save_results(results, path)
    return path


#: Scalar types a trajectory record's values may hold (JSON scalars only:
#: nested containers would break the per-field dispersion statistics).
_TRAJECTORY_SCALARS = (str, bool, int, float, type(None))


def validate_trajectory_record(entry) -> Dict:
    """Check one parsed trajectory record against the schema; returns it.

    A record is one flat JSON object with a non-empty ``benchmark`` string,
    a numeric ``timestamp``, and scalar values everywhere else.  Raises
    ``ValueError`` on anything else — :func:`load_trajectory` turns that
    into a skipped line, so one corrupt record never poisons the history.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"trajectory record must be an object, got "
                         f"{type(entry).__name__}")
    benchmark = entry.get("benchmark")
    if not isinstance(benchmark, str) or not benchmark:
        raise ValueError(f"trajectory record needs a non-empty 'benchmark' "
                         f"string, got {benchmark!r}")
    timestamp = entry.get("timestamp")
    if isinstance(timestamp, bool) or not isinstance(timestamp, (int, float)):
        raise ValueError(f"trajectory record needs a numeric 'timestamp', "
                         f"got {timestamp!r}")
    for key, value in entry.items():
        if not isinstance(key, str):
            raise ValueError(f"trajectory field names must be strings, got {key!r}")
        if not isinstance(value, _TRAJECTORY_SCALARS):
            raise ValueError(f"trajectory field '{key}' must be a JSON scalar, "
                             f"got {type(value).__name__}")
    return entry


def append_trajectory(name: str, record: Dict) -> str:
    """Append one run's headline numbers to ``results/trajectory.jsonl``.

    One JSON object per line: ``{"benchmark", "timestamp", **record}``.
    The per-benchmark ``<name>.json`` snapshot is overwritten on every run;
    this file is the append-only history — the trend line a perf PR points
    at to show the before/after, and what :func:`load_trajectory` reads to
    compare a run against its own past (:func:`check_against_trajectory`).

    The append is **atomic**: the new history is written to a temp file in
    the same directory and ``os.replace``\\ d over the old one, so a run
    killed mid-write leaves either the previous file or the new one —
    never a torn trailing line.  (Pre-existing torn lines, from the old
    plain-append implementation or a crashed writer, are preserved
    byte-for-byte and skipped at load time.)
    """
    import json
    import time

    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "trajectory.jsonl")
    entry = validate_trajectory_record(
        {"benchmark": str(name), "timestamp": time.time(), **record})
    existing = b""
    if os.path.exists(path):
        with open(path, "rb") as handle:
            existing = handle.read()
    if existing and not existing.endswith(b"\n"):
        existing += b"\n"                  # seal a torn line from a past crash
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(existing)
            handle.write((json.dumps(entry, sort_keys=True) + "\n").encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def load_trajectory(name: str = None) -> list:
    """Validated trajectory records oldest-first, optionally one benchmark's.

    Tolerates a truncated final line (a run killed mid-append under the old
    non-atomic writer) and schema-invalid records by skipping anything that
    does not parse and validate — the trend line degrades, it never crashes
    a benchmark run.
    """
    import json

    path = os.path.join(RESULTS_DIR, "trajectory.jsonl")
    if not os.path.exists(path):
        return []
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = validate_trajectory_record(json.loads(line))
            except ValueError:
                continue
            if name is None or entry.get("benchmark") == name:
                records.append(entry)
    return records


# --------------------------------------------------------------------------- #
# Trajectory-relative regression checking
# --------------------------------------------------------------------------- #

#: Minimum comparable history records before a regression verdict is possible.
MIN_TRAJECTORY_HISTORY = 3
#: Relative floor of the tolerance band (a run must be >35 % off the
#: historical median, in the *bad* direction, to count as a regression).
TRAJECTORY_REL_FLOOR = 0.35
#: How many median-absolute-deviations of the history's own dispersion the
#: band additionally allows — noisy benchmarks earn wider bands.
TRAJECTORY_MAD_K = 4.0

#: Record fields whose values describe the run, not its performance — used
#: to restrict history to *comparable* runs before computing bands.
TRAJECTORY_CONTEXT_FIELDS = ("cpus", "quick_mode")


#: Direction suffix of a deterministic count (``"lower-exact"``): its band
#: gets no relative floor, so a constant history allows no slack at all.
EXACT_SUFFIX = "-exact"


def trajectory_band(values, rel_floor: float = TRAJECTORY_REL_FLOOR) -> tuple:
    """``(median, tolerance)`` of a metric's history.

    The tolerance is ``max(rel_floor x |median|, mad_k x MAD)``: the
    relative floor keeps quiet histories from flagging ordinary noise, and
    the MAD term widens the band to whatever spread the history itself
    exhibits — the band is derived from the trajectory's own dispersion,
    not from a hand-picked absolute threshold.  Exact fields pass
    ``rel_floor=0``.
    """
    if not values:
        raise ValueError("trajectory_band needs at least one value")
    ordered = sorted(float(v) for v in values)
    median = ordered[len(ordered) // 2]
    mad = sorted(abs(v - median) for v in ordered)[len(ordered) // 2]
    return median, max(rel_floor * abs(median), TRAJECTORY_MAD_K * mad)


def check_against_trajectory(name: str, record: Dict, directions: Dict[str, str],
                             history: list = None,
                             min_history: int = MIN_TRAJECTORY_HISTORY) -> list:
    """Compare one run's record against its own benchmark history.

    ``directions`` maps field name to ``"higher"`` or ``"lower"`` — which
    way is *better*.  Checks are one-sided: a run that got faster always
    passes.  A direction with :data:`EXACT_SUFFIX` (``"lower-exact"``)
    marks a deterministic count, gated without the relative floor.
    History is restricted to records whose context fields
    (:data:`TRAJECTORY_CONTEXT_FIELDS`, e.g. ``cpus``) match the current
    run, because a 2-core run regressing against 8-core history is not a
    code regression.  Fewer than ``min_history`` comparable records yields
    an ``insufficient-history`` finding (a pass with a note, never a
    failure) — this is what keeps the gate safe on fresh checkouts, where
    ``benchmarks/results/`` starts empty.

    Returns one finding dict per field:
    ``{"field", "status", "value", "median", "tolerance", "history"}``
    with status ``ok`` | ``regression`` | ``insufficient-history`` |
    ``missing`` (the field is absent from the current record).
    """
    if history is None:
        history = load_trajectory(name)
    comparable = [
        entry for entry in history
        if all(entry.get(ctx) == record.get(ctx)
               for ctx in TRAJECTORY_CONTEXT_FIELDS)
    ]
    findings = []
    for field, declared in sorted(directions.items()):
        exact = declared.endswith(EXACT_SUFFIX)
        direction = declared[:-len(EXACT_SUFFIX)] if exact else declared
        if direction not in ("higher", "lower"):
            raise ValueError(f"direction for '{field}' must be 'higher' or "
                             f"'lower', optionally with '{EXACT_SUFFIX}', "
                             f"got {declared!r}")
        value = record.get(field)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            findings.append({"field": field, "status": "missing", "value": value,
                             "median": None, "tolerance": None, "history": 0})
            continue
        past = [entry[field] for entry in comparable
                if isinstance(entry.get(field), (int, float))
                and not isinstance(entry.get(field), bool)]
        if len(past) < min_history:
            findings.append({"field": field, "status": "insufficient-history",
                             "value": float(value), "median": None,
                             "tolerance": None, "history": len(past)})
            continue
        median, tolerance = trajectory_band(
            past, rel_floor=0.0 if exact else TRAJECTORY_REL_FLOOR)
        if direction == "higher":
            regressed = float(value) < median - tolerance
        else:
            regressed = float(value) > median + tolerance
        findings.append({"field": field,
                         "status": "regression" if regressed else "ok",
                         "value": float(value), "median": median,
                         "tolerance": tolerance, "history": len(past)})
    return findings


def format_trajectory_findings(name: str, findings: list) -> str:
    """Human-readable one-line-per-field report of a trajectory check."""
    lines = [f"trajectory check [{name}]:"]
    for finding in findings:
        if finding["status"] in ("insufficient-history", "missing"):
            lines.append(f"  {finding['field']}: {finding['status']} "
                         f"({finding['history']} comparable records)")
        else:
            lines.append(
                f"  {finding['field']}: {finding['status']} — value "
                f"{finding['value']:.4g}, history median {finding['median']:.4g} "
                f"± {finding['tolerance']:.4g} over {finding['history']} runs")
    return "\n".join(lines)


def fresh_seed(offset: int = 0) -> None:
    """Deterministic seeding per benchmark."""
    seed_everything(1234 + offset)


def quick_mode(argv=None) -> bool:
    """True when a benchmark runs as the CI regression gate.

    Enabled by the ``--quick`` flag or the ``REPRO_BENCH_QUICK`` env var
    (any value but ``""``/``"0"``).  Quick mode shrinks measurement budgets
    but keeps every assertion — one shared detector so the CI gates cannot
    drift apart on what "quick" means.
    """
    import sys

    argv = sys.argv[1:] if argv is None else argv
    return "--quick" in argv or os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def mb(nbytes: float) -> float:
    """Bytes → mebibytes."""
    return float(nbytes) / (1024 ** 2)


def gib(nbytes: float) -> float:
    """Bytes → gibibytes."""
    return float(nbytes) / (1024 ** 3)
