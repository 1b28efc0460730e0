"""Utility helpers: seeding, logging/tables, checkpoint serialisation."""

from .logging import MetricLogger, format_table, print_table
from .seed import current_seed, seed_everything, spawn_rng
from .serialization import (
    CHECKPOINT_FORMAT,
    load_checkpoint,
    load_results,
    load_training_checkpoint,
    rng_state,
    save_checkpoint,
    save_results,
    save_training_checkpoint,
    set_rng_state,
)

__all__ = [
    "seed_everything",
    "current_seed",
    "spawn_rng",
    "MetricLogger",
    "format_table",
    "print_table",
    "save_checkpoint",
    "load_checkpoint",
    "save_results",
    "load_results",
    "CHECKPOINT_FORMAT",
    "save_training_checkpoint",
    "load_training_checkpoint",
    "rng_state",
    "set_rng_state",
]
