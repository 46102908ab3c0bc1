"""Analysis and visualization helpers.

* :mod:`repro.analysis.token_shift` — the Figure 4 analysis: per-token
  spam scores before vs after a focused attack;
* :mod:`repro.analysis.plots` — ASCII line/bar/scatter rendering used
  by the scenario renderers and examples (no plotting library required).
"""

from repro.analysis.plots import ascii_bar_chart, ascii_line_chart, ascii_scatter
from repro.analysis.token_shift import TokenShift, TokenShiftReport, token_shift_analysis

__all__ = [
    "ascii_bar_chart",
    "ascii_line_chart",
    "ascii_scatter",
    "TokenShift",
    "TokenShiftReport",
    "token_shift_analysis",
]
