"""Closed-form performance model from Section 6.1 of the paper."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.model import (
        AnalyticalModel,
        expected_instances,
        fault_probability_per_instance,
        ft_phase_time,
        intolerant_phase_time,
        overhead,
        recovery_time_bound,
    )
    from repro.analysis.series import (
        fig3_series,
        fig4_series,
        recovery_bound_series,
    )

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "model": (
            "AnalyticalModel", "expected_instances", "fault_probability_per_instance",
            "ft_phase_time", "intolerant_phase_time", "overhead", "recovery_time_bound",
        ),
        "series": ("fig3_series", "fig4_series", "recovery_bound_series"),
    },
)

__all__ = [
    "AnalyticalModel",
    "expected_instances",
    "fault_probability_per_instance",
    "ft_phase_time",
    "intolerant_phase_time",
    "overhead",
    "recovery_time_bound",
    "fig3_series",
    "fig4_series",
    "recovery_bound_series",
]
