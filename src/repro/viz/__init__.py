"""Plain-text rendering of the study's figures and tables.

The benchmark harness regenerates every figure of the paper as data
series; this package renders them for the terminal: multi-series line
charts and scatter plots on a character canvas, and aligned text tables.
"""

from repro.viz.ascii_chart import bar_chart, line_chart, scatter_chart
from repro.viz.heatmap import heatmap, sweep_heatmap
from repro.viz.stacked import stacked_bars
from repro.viz.tables import format_table

__all__ = [
    "bar_chart",
    "format_table",
    "heatmap",
    "line_chart",
    "stacked_bars",
    "sweep_heatmap",
    "scatter_chart",
]
