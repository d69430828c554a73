"""Golden digests of StarDBT's outputs on every benchmark program.

Pins the DBT runtime and the four trace-selection strategies to exact
bytes: for each program :mod:`tests.test_program_digests` covers and
each of MRET, MFET, CTT and TT at hot threshold 30, the SHA-256 of the
recorded trace set's TEAB (v2) bytes, the exact total cycles, the cost
breakdown (values and key order), the covered instruction count and the
block count.  Extra TT and CTT rows run with ``max_total_tbbs=200``, so
the budget-exhaustion paths are pinned too.  A change to the recorders,
the trace cursor or the order of cost charges shows up here.

Regenerating the snapshot (after an *intentional* change)::

    PYTHONPATH=src python -m pytest tests/test_dbt_digests.py --update-golden
"""

import hashlib
import json
from pathlib import Path

from repro.cpu import ExecutionStream
from repro.dbt import StarDBT
from repro.store import dump_tea_binary
from repro.traces.recorder import RecorderLimits
from repro.workloads import load_benchmark
from tests.test_program_digests import _cases, _key

GOLDEN_PATH = Path(__file__).parent / "golden" / "dbt_digests.json"

HOT_THRESHOLD = 30
STRATEGIES = ("mret", "mfet", "ctt", "tt")
#: Strategies also pinned under a small total budget, and that budget.
BUDGET_STRATEGIES = ("tt", "ctt")
SMALL_BUDGET = 200


def _configurations():
    for strategy in STRATEGIES:
        yield strategy, RecorderLimits(hot_threshold=HOT_THRESHOLD)
    for strategy in BUDGET_STRATEGIES:
        yield ("%s/max_total_tbbs=%d" % (strategy, SMALL_BUDGET),
               RecorderLimits(hot_threshold=HOT_THRESHOLD,
                              max_total_tbbs=SMALL_BUDGET))


def _row(program, stream, strategy, limits):
    result = StarDBT(program, strategy=strategy.split("/")[0], limits=limits,
                     stream=stream).run()
    return {
        "teab": hashlib.sha256(
            dump_tea_binary(result.trace_set)).hexdigest(),
        "cycles": repr(result.cost.cycles),
        "breakdown": repr(list(result.cost.breakdown.items())),
        "covered_dbt": result.covered_dbt,
        "blocks": result.blocks,
    }


def _digests():
    digests = {}
    for name, scale in _cases():
        program = load_benchmark(name, scale=scale).program
        stream = ExecutionStream.record(program)
        for strategy, limits in _configurations():
            digests["%s %s" % (_key(name, scale), strategy)] = _row(
                program, stream, strategy, limits)
    return digests


def test_dbt_digests_match_golden(request):
    digests = _digests()
    if request.config.getoption("--update-golden"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(digests, indent=2, sort_keys=True) + "\n")
        return
    assert GOLDEN_PATH.exists(), (
        "missing %s — generate it with `python -m pytest "
        "tests/test_dbt_digests.py --update-golden`" % GOLDEN_PATH
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(digests) == sorted(golden)
    drifted = sorted(
        "%s (%s)" % (key, field)
        for key in digests for field in golden[key]
        if digests[key][field] != golden[key][field])
    assert not drifted, "DBT digests drifted: %s" % ", ".join(drifted)
