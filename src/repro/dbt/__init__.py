"""StarDBT-like dynamic binary translator baseline.

The paper's baseline represents traces by *replicating* their code in a
code cache; this package provides that runtime:

- :mod:`repro.dbt.cost` — the cycle-accounting cost model shared by every
  engine (native, DBT, MiniPin, TEA replay).  All constants are
  documented there; Table 2/3 times and Table 4 slowdowns are ratios of
  these counted cycles.
- :mod:`repro.dbt.code_cache` — the replicated-trace code cache and its
  byte accounting (Table 1's "DBT" columns).
- :mod:`repro.dbt.stardbt` — the runtime: translates blocks on first
  touch, drives a trace recorder, installs traces, executes them from the
  cache, and reports coverage/time.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.dbt.code_cache import CodeCache
    from repro.dbt.cost import CostModel, CostParameters
    from repro.dbt.stardbt import DBTResult, StarDBT

__getattr__, __dir__ = lazy_exports(globals(), {
    ".code_cache": ("CodeCache",),
    ".cost": ("CostModel", "CostParameters"),
    ".stardbt": ("DBTResult", "StarDBT"),
})

__all__ = ["CostModel", "CostParameters", "CodeCache", "StarDBT", "DBTResult"]
