"""Registry mapping experiment ids to their runners."""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Iterator, Mapping

from repro.experiments.report import ExperimentResult

_IDS = ("fig3", "fig4", "fig5", "fig6", "fig7", "table1", "sensitivity")


class _Registry(Mapping[str, Callable[..., ExperimentResult]]):
    """Read-only id -> runner; ``repro.experiments.<id>`` is imported on
    first lookup, so listing the ids loads no figure module."""

    def __getitem__(self, exp_id: str) -> Callable[..., ExperimentResult]:
        if exp_id not in _IDS:
            raise KeyError(exp_id)
        return import_module(f"repro.experiments.{exp_id}").run

    def __iter__(self) -> Iterator[str]:
        return iter(_IDS)

    def __len__(self) -> int:
        return len(_IDS)


EXPERIMENTS: Mapping[str, Callable[..., ExperimentResult]] = _Registry()


def run_experiment(exp_id: str, **kwargs) -> ExperimentResult:
    """Run one experiment by id."""
    try:
        runner = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    return runner(**kwargs)
