"""Golden digests of every benchmark's execution stream and final state.

Pins the interpreter's observable behaviour to exact bytes: for each
program :mod:`tests.test_program_digests` covers, the SHA-256 of its
recorded :class:`~repro.cpu.stream.ExecutionStream` (``to_bytes()``,
which holds every block transition and both instruction counts) and
of the machine state a run leaves behind (registers, flags, memory).
An interpreter change that alters a branch direction, a count, a
register, a flag or a memory word shows up here.

Regenerating the snapshot (after an *intentional* semantic change)::

    PYTHONPATH=src python -m pytest tests/test_stream_digests.py --update-golden
"""

import hashlib
import json
from pathlib import Path

from repro.cpu import ExecutionStream, Executor
from repro.workloads import load_benchmark
from tests.test_program_digests import _cases, _key

GOLDEN_PATH = Path(__file__).parent / "golden" / "stream_digests.json"


def _machine_digest(machine):
    snapshot = machine.snapshot()
    text = repr((snapshot["regs"], snapshot["flags"],
                 sorted(snapshot["mem"].items())))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _digests(program):
    stream = ExecutionStream.record(program)
    executor = Executor(program)
    executor.run()
    return {
        "stream": hashlib.sha256(stream.to_bytes()).hexdigest(),
        "machine": _machine_digest(executor.machine),
    }


def test_stream_and_machine_digests_match_golden(request):
    digests = {
        _key(name, scale): _digests(load_benchmark(name, scale=scale).program)
        for name, scale in _cases()
    }
    if request.config.getoption("--update-golden"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(digests, indent=2, sort_keys=True) + "\n")
        return
    assert GOLDEN_PATH.exists(), (
        "missing %s — generate it with `python -m pytest "
        "tests/test_stream_digests.py --update-golden`" % GOLDEN_PATH
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(digests) == sorted(golden)
    drifted = sorted(
        "%s (%s)" % (key, field)
        for key in digests for field in ("stream", "machine")
        if digests[key][field] != golden[key][field])
    assert not drifted, "stream digests drifted: %s" % ", ".join(drifted)
