"""Trace and placement analysis: the measurement side of the paper.

Skewness (Figure 2A), stability (Figure 2B), importance dominance
(Figure 5), and plain-text reporting used by the benchmark harness.
"""

from repro.analysis.asciiplot import ascii_chart, sparkline
from repro.analysis.dominance import DominanceCurves, dominance_curves
from repro.analysis.reporting import format_series, format_table, normalize_to
from repro.analysis.skewness import pair_probability_curve, skew_ratio
from repro.analysis.stability import StabilityReport, stability_report

__all__ = [
    "DominanceCurves",
    "StabilityReport",
    "ascii_chart",
    "dominance_curves",
    "format_series",
    "format_table",
    "normalize_to",
    "pair_probability_curve",
    "skew_ratio",
    "sparkline",
    "stability_report",
]
