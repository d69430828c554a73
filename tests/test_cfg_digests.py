"""Golden digests of the static CFG and its natural loops.

Pins :func:`~repro.cfg.cfg.build_cfg` and :func:`~repro.cfg.loops.find_loops`
on every program :mod:`tests.test_program_digests` covers: the SHA-256 of
the CFG's DOT rendering (blocks, labels and edges, in rendering order),
plus the loop headers, back edges and natural-loop bodies as sorted
lists.  A change to block decoding, edge construction, dominators or
body collection shows up here.

Regenerating the snapshot (after an *intentional* change)::

    PYTHONPATH=src python -m pytest tests/test_cfg_digests.py --update-golden
"""

import hashlib
import json
from pathlib import Path

from repro.cfg import build_cfg, find_loops
from repro.workloads import load_benchmark
from tests.test_program_digests import _cases, _key

GOLDEN_PATH = Path(__file__).parent / "golden" / "cfg_digests.json"


def cfg_row(program):
    """The pinned static CFG and loop structure of ``program``."""
    cfg = build_cfg(program)
    loops = find_loops(cfg)
    return {
        "dot": hashlib.sha256(cfg.to_dot().encode()).hexdigest(),
        "headers": sorted(loops.headers),
        "back_edges": sorted(loops.back_edges),
        "bodies": sorted((header, sorted(body))
                         for header, body in loops.bodies.items()),
    }


def _digests():
    return {
        _key(name, scale): cfg_row(load_benchmark(name, scale=scale).program)
        for name, scale in _cases()
    }


def test_cfg_digests_match_golden(request):
    digests = _normalise(_digests())
    if request.config.getoption("--update-golden"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(_dump(digests))
        return
    assert GOLDEN_PATH.exists(), (
        "missing %s — generate it with `python -m pytest "
        "tests/test_cfg_digests.py --update-golden`" % GOLDEN_PATH
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(digests) == sorted(golden)
    drifted = sorted(
        "%s (%s)" % (key, field)
        for key in digests for field in golden[key]
        if digests[key][field] != golden[key][field])
    assert not drifted, "cfg digests drifted: %s" % ", ".join(drifted)


def _dump(digests):
    """JSON with one line per field: the address lists stay diffable
    without one line per address."""
    rows = []
    for key in sorted(digests):
        fields = ",\n".join(
            "    %s: %s" % (json.dumps(field), json.dumps(value))
            for field, value in sorted(digests[key].items()))
        rows.append("  %s: {\n%s\n  }" % (json.dumps(key), fields))
    return "{\n" + ",\n".join(rows) + "\n}\n"


def _normalise(document):
    """Round-trip through JSON so tuples compare equal to lists."""
    return json.loads(json.dumps(document))
