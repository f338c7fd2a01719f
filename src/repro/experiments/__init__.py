"""Experiment runners -- one per table/figure of the paper.

Each ``figN`` module exposes ``run(...) -> ExperimentResult``; the
registry maps experiment ids to runners; the CLI regenerates any or all
of them::

    python -m repro.experiments all
    python -m repro.experiments fig5 --phases 500
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.experiments.report import ExperimentResult, render_table
    from repro.experiments.registry import EXPERIMENTS, run_experiment

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "report": ("ExperimentResult", "render_table"),
        "registry": ("EXPERIMENTS", "run_experiment"),
    },
)

__all__ = ["ExperimentResult", "render_table", "EXPERIMENTS", "run_experiment"]
