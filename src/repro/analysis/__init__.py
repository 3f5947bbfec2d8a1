"""Analysis utilities: statistics, complexity fits, busy-round accounting,
the table of paper claims, and paper-style table rendering."""

from repro.analysis.density import (
    busy_round_count,
    busy_rounds,
    front_loaded_pattern,
    is_busy,
    probability_mass,
    wakeup_pattern_of,
)
from repro.analysis.fitting import (
    PowerLawFit,
    best_fit,
    fit_power_law,
)
from repro.analysis.claims import CLAIMS
from repro.analysis.report import CampaignReport, CellAggregate
from repro.analysis.stats import (
    RunningSummary,
    Summary,
    summarize,
    t_critical_95,
)
from repro.analysis.tables import render_table

__all__ = [
    "CLAIMS",
    "CampaignReport",
    "CellAggregate",
    "PowerLawFit",
    "RunningSummary",
    "Summary",
    "best_fit",
    "busy_round_count",
    "busy_rounds",
    "fit_power_law",
    "front_loaded_pattern",
    "is_busy",
    "probability_mass",
    "render_table",
    "summarize",
    "t_critical_95",
    "wakeup_pattern_of",
]
