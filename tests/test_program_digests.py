"""Golden content digests for every generated benchmark program.

:meth:`~repro.isa.program.Program.content_digest` hashes everything
execution depends on (layout, resolved assembly, data image), so this
file pins the whole SX86 front end — kernel generator, assembler layout
and label resolution — to exact bytes.  It covers all 26 benchmarks at
scales 0.25 and 1.0, plus 176.gcc at every tenth scale of the
end-to-end ``ingest`` workload (0.25, 0.255, ..., 0.345).

Regenerating the snapshot (after an *intentional* front-end change)::

    PYTHONPATH=src python -m pytest tests/test_program_digests.py --update-golden
"""

import json
from pathlib import Path

from repro.workloads import BENCHMARKS, load_benchmark

GOLDEN_PATH = Path(__file__).parent / "golden" / "program_digests.json"

SCALES = (0.25, 1.0)
INGEST_PROGRAM = "176.gcc"
INGEST_SCALES = tuple(round(0.25 + 0.005 * step, 4) for step in range(20))


def _cases():
    for name in BENCHMARKS:
        for scale in SCALES:
            yield name, scale
    for scale in INGEST_SCALES:
        if scale not in SCALES:
            yield INGEST_PROGRAM, scale


def _key(name, scale):
    return "%s@%s" % (name, scale)


def test_program_digests_match_golden(request):
    digests = {
        _key(name, scale):
            load_benchmark(name, scale=scale).program.content_digest()
        for name, scale in _cases()
    }
    if request.config.getoption("--update-golden"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(digests, indent=2, sort_keys=True) + "\n")
        return
    assert GOLDEN_PATH.exists(), (
        "missing %s — generate it with `python -m pytest "
        "tests/test_program_digests.py --update-golden`" % GOLDEN_PATH
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(digests) == sorted(golden)
    drifted = sorted(key for key in digests if digests[key] != golden[key])
    assert not drifted, "program digests drifted: %s" % ", ".join(drifted)
