"""Golden digests of online Algorithm 2 on every benchmark program.

Pins Table 3's recorder, ``TeaRecordTool`` (MRET at hot threshold 30)
under MiniPin, to exact bytes: for each program
:mod:`tests.test_program_digests` covers, the SHA-256 of the recorded
trace set's TEAB bytes with the automaton the tool grew, the replay
statistics, the cost breakdown and the exact total cycles.  The
breakdown is compared as sorted ``(category, repr(value))`` pairs: its
values are pinned, its key order is not.  A change to the online
recorder, its walk or the order of its cost charges shows up here.

Regenerating the snapshot (after an *intentional* change)::

    PYTHONPATH=src python -m pytest tests/test_online_digests.py --update-golden
"""

import hashlib
import json
from pathlib import Path

from repro.cpu import ExecutionStream
from repro.pin import Pin, TeaRecordTool
from repro.store import dump_tea_binary
from repro.traces.recorder import RecorderLimits
from repro.workloads import load_benchmark
from tests.test_program_digests import _cases, _key

GOLDEN_PATH = Path(__file__).parent / "golden" / "online_digests.json"

HOT_THRESHOLD = 30


def online_row(program, stream):
    """The pinned outcome of one online MRET recording on ``stream``."""
    tool = TeaRecordTool("mret",
                         limits=RecorderLimits(hot_threshold=HOT_THRESHOLD))
    result = Pin(program, tool=tool, stream=stream).run()
    return {
        "teab": hashlib.sha256(
            dump_tea_binary(tool.trace_set, tea=tool.tea)).hexdigest(),
        "stats": tool.stats.as_dict(),
        "breakdown": sorted((category, repr(value))
                            for category, value
                            in result.cost.breakdown.items()),
        "cycles": repr(result.cycles),
    }


def _digests():
    digests = {}
    for name, scale in _cases():
        program = load_benchmark(name, scale=scale).program
        digests[_key(name, scale)] = online_row(
            program, ExecutionStream.record(program))
    return digests


def test_online_digests_match_golden(request):
    digests = _normalise(_digests())
    if request.config.getoption("--update-golden"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(digests, indent=2, sort_keys=True) + "\n")
        return
    assert GOLDEN_PATH.exists(), (
        "missing %s — generate it with `python -m pytest "
        "tests/test_online_digests.py --update-golden`" % GOLDEN_PATH
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(digests) == sorted(golden)
    drifted = sorted(
        "%s (%s)" % (key, field)
        for key in digests for field in golden[key]
        if digests[key][field] != golden[key][field])
    assert not drifted, "online digests drifted: %s" % ", ".join(drifted)


def _normalise(document):
    """Round-trip through JSON so tuples compare equal to lists."""
    return json.loads(json.dumps(document))
