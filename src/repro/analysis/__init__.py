"""Analyses built on top of TEA replay.

- :mod:`repro.analysis.dcfg` — the dynamic control-flow graph, TEA's
  explicit code-carrying counterpart from Section 3.
- :mod:`repro.analysis.differential` — lockstep validation of a TEA
  against reference trace execution (Properties 1+2, checked live).
"""

from repro.analysis.dcfg import DcfgTool, DynamicCFG, compare_with_tea
from repro.analysis.differential import (
    DifferentialChecker,
    check_equivalence,
    validate_trace_file,
)

__all__ = [
    "DynamicCFG",
    "DcfgTool",
    "compare_with_tea",
    "DifferentialChecker",
    "check_equivalence",
    "validate_trace_file",
]
