"""Analyses built on top of TEA replay.

- :mod:`repro.analysis.coverage` — coverage accounting helpers shared by
  the harness tables.
- :mod:`repro.analysis.phases` — program-phase detection from trace exit
  ratios (the Wimmer et al. technique the paper cites: a phase is stable
  while traces rarely take side exits).
- :mod:`repro.analysis.dcfg` — the dynamic control-flow graph, TEA's
  explicit code-carrying counterpart from Section 3.
- :mod:`repro.analysis.differential` — lockstep validation of a TEA
  against reference trace execution (Properties 1+2, checked live).
"""

from repro.analysis.coverage import CoverageReport
from repro.analysis.dcfg import DcfgTool, DynamicCFG, compare_with_tea
from repro.analysis.differential import (
    DifferentialChecker,
    check_equivalence,
    validate_trace_file,
)
from repro.analysis.phases import Phase, PhaseDetector

__all__ = [
    "CoverageReport",
    "PhaseDetector",
    "Phase",
    "DynamicCFG",
    "DcfgTool",
    "compare_with_tea",
    "DifferentialChecker",
    "check_equivalence",
    "validate_trace_file",
]
