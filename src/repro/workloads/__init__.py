"""Synthetic workloads standing in for SPEC CPU2000.

The paper evaluates 26 SPEC CPU2000 binaries.  Without SPEC (or any
binaries), each benchmark is replaced by a generated SX86 program whose
*dynamic character* is shaped to the original's qualitative behaviour:
loop nesting and trip counts, basic-block sizes, branchiness
(diamonds per loop body), indirect-branch and call mix, REP usage,
phases, and code footprint.  See DESIGN.md's substitution table and
:mod:`repro.workloads.spec` for the per-benchmark parameters.

- :mod:`repro.workloads.kernels` — parametric assembly kernels (counted
  nests, branchy loops, switch dispatch, call loops, REP copies) plus the
  paper's Figure 1/2 programs.
- :mod:`repro.workloads.generator` — composes kernels into a program.
- :mod:`repro.workloads.spec` — the 26 benchmark definitions.
"""

from repro.workloads.generator import WorkloadProgram, build_workload_program
from repro.workloads.kernels import figure1_program, figure2_program
from repro.workloads.spec import (
    BENCHMARKS,
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    BenchmarkSpec,
    get_benchmark,
    load_benchmark,
)

__all__ = [
    "BENCHMARKS",
    "FP_BENCHMARKS",
    "INT_BENCHMARKS",
    "BenchmarkSpec",
    "get_benchmark",
    "load_benchmark",
    "WorkloadProgram",
    "build_workload_program",
    "figure1_program",
    "figure2_program",
]
