"""Child process of a training workload: ``Experiment.fit`` under a deadline.

Prints ``ready`` when training begins and ``first`` when the first batch
ends, so the parent can time set-up from its own clock, then one JSON line
with every batch's end time, the losses and the process's peak RSS.
Training stops after the first batch that ends ``--seconds`` after the
first batch did (``--seconds 0`` trains one batch).

    python bench/train_child.py --workload train_vgg8 --seed 0 --seconds 15
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.engine import Callback  # noqa: E402
from repro.experiment import Experiment  # noqa: E402

from workloads import WORKLOADS, vm_hwm_mb  # noqa: E402


class Deadline(Callback):
    """Records batch end times and losses; ends the epoch at the deadline."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.ends: list = []
        self.losses: list = []

    def on_train_begin(self, trainer) -> None:
        print("ready", flush=True)

    def on_batch_end(self, trainer, epoch, batch_index, metrics) -> None:
        self.ends.append(time.perf_counter())
        self.losses.append(metrics["train_loss"])
        if len(self.ends) == 1:
            print("first", flush=True)
        if self.ends[-1] - self.ends[0] >= self.seconds:
            # The trainer reads this cap before every batch.
            trainer.adapter.max_batches_per_epoch = batch_index + 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    deadline = Deadline(args.seconds)
    Experiment(WORKLOADS[args.workload].spec(args.seed, args.seconds)).fit(callbacks=[deadline])
    print(json.dumps({"batch_ends": deadline.ends, "losses": deadline.losses,
                      "peak_rss_mb": vm_hwm_mb("self")}), flush=True)


if __name__ == "__main__":
    main()
