"""Experiment harness: regenerates every table and figure of the paper."""

from repro.experiments.presets import SCALES, Scale
from repro.experiments.registry import EXPERIMENTS, run_experiment

__all__ = [
    "Scale",
    "SCALES",
    "EXPERIMENTS",
    "run_experiment",
]
