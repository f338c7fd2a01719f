"""Plain-text visualization helpers.

Terminal-friendly rendering of program states, trace timelines, and the
experiment series (ASCII charts) -- used by the examples and by the
experiments CLI, and handy when debugging fault scenarios.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.viz.timeline import (
        render_state,
        render_timeline,
        render_topology,
        state_glyphs,
    )
    from repro.viz.chart import (
        ascii_chart,
        ascii_histogram,
        ascii_histogram_of,
        sparkline,
    )

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "timeline": (
            "render_state", "render_timeline", "render_topology", "state_glyphs",
        ),
        "chart": ("ascii_chart", "ascii_histogram", "ascii_histogram_of", "sparkline"),
    },
)

__all__ = [
    "render_state",
    "render_timeline",
    "render_topology",
    "state_glyphs",
    "ascii_chart",
    "ascii_histogram",
    "ascii_histogram_of",
    "sparkline",
]
