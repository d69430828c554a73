"""CI smoke test for the TEAB v2 store pipeline.

Exercises the operator path end to end against the golden snapshot:

1. seed a fresh store with the golden v1 ``mcf_mret.teab`` and its
   program image;
2. ``repro tools store migrate`` it to v2 — the CLI must report the
   key mapping and the store must hold exactly the migrated snapshot;
3. ``repro tools verify --strict`` must pass the v2 file clean
   (deep: the v2 section and CRC rules TEA024/TEA025, the walk of the
   embedded blobs, and the rule families that need the program image);
4. ``repro tools tea info`` must report the v2 section table without
   materialising the automaton;
5. the zero-copy ``map_compiled`` automaton must be structurally
   identical to the decoded one, and ``store.mmap_opened`` must tick;
6. the migrated snapshot must hold the golden content: it loads to the
   same trace set, automaton and profile as the golden v1 file, and
   compiles structurally equal to it;
7. a second ``store migrate`` must be a no-op (v1 is only ever read,
   and v2 is never converted back).

Run from the repository root with PYTHONPATH=src.  Exits non-zero on
the first violated invariant.
"""

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from repro.cfg.basic_block import BlockIndex  # noqa: E402
from repro.store import (  # noqa: E402
    AutomatonStore,
    compile_tea_binary,
    dump_tea_binary,
    load_tea_binary,
    snapshot_key,
    snapshot_version,
)
from repro.workloads import load_benchmark  # noqa: E402

GOLDEN = os.path.join("tests", "golden", "mcf_mret.teab")
WORKDIR = ".ci_store"


def fail(message):
    print("FAIL: %s" % message)
    sys.exit(1)


def tools(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro.tools"] + list(argv),
        capture_output=True, text=True,
    )


def main():
    shutil.rmtree(WORKDIR, ignore_errors=True)
    store_dir = os.path.join(WORKDIR, "store")

    with open(GOLDEN, "rb") as handle:
        golden = handle.read()
    if snapshot_version(golden) != 1:
        fail("golden snapshot is not v1 — refresh this smoke test")
    program = load_benchmark("181.mcf", scale=0.4).program
    key_v1 = AutomatonStore(store_dir).put_bytes(golden, program=program)
    if key_v1 != snapshot_key(golden):
        fail("store key does not content-address the golden bytes")
    print("seeded store with golden v1 snapshot %s" % key_v1[:12])

    proc = tools("store", "migrate", "--dir", store_dir)
    if proc.returncode != 0:
        fail("store migrate exited %d: %s" % (proc.returncode, proc.stderr))
    print(proc.stdout.strip())
    if key_v1[:12] not in proc.stdout:
        fail("migrate output does not mention the old key")

    store = AutomatonStore(store_dir)
    keys = list(store.keys())
    if len(keys) != 1 or key_v1 in keys:
        fail("store should hold exactly the migrated snapshot, has %s"
             % keys)
    key_v2 = keys[0]
    data_v2 = store.get_bytes(key_v2)
    if snapshot_version(data_v2) != 2:
        fail("migrated snapshot is not v2")
    path_v2 = store.path_for(key_v2)

    proc = tools("verify", "--strict", path_v2)
    if proc.returncode != 0:
        fail("verify --strict rejected the migrated snapshot:\n%s"
             % proc.stdout)
    print("verify --strict: clean")

    proc = tools("tea", "info", path_v2, "--format", "json")
    if proc.returncode != 0:
        fail("tea info failed: %s" % proc.stderr)
    info = json.loads(proc.stdout)
    sections = info.get("sections")
    if not sections:
        fail("tea info reported no v2 section table")
    names = [section["name"] for section in sections]
    for required in ("summary", "traces", "trans_offset", "trans_labels",
                     "trans_dest", "label_pool"):
        if required not in names:
            fail("section %r missing from tea info output" % required)
    print("tea info: %d sections (%s...)" % (len(sections),
                                             ", ".join(names[:4])))

    mapped = store.map_compiled(key_v2)
    decoded = store.get_compiled(key_v2)
    if not mapped.structurally_equal(decoded):
        fail("zero-copy automaton differs from the decoded one")
    counters = store.obs.metrics.snapshot()["counters"]
    if counters.get("store.mmap_opened", 0) != 1:
        fail("store.mmap_opened counter did not tick exactly once")
    print("map_compiled: %d states, structurally equal, 1 mapping"
          % mapped.n_states)

    # The writer is canonical, so equal re-encodings of the two decoded
    # contents mean equal trace sets, automata, profiles and meta.
    content = [
        dump_tea_binary(*load_tea_binary(data, BlockIndex(program),
                                         with_meta=True))
        for data in (golden, data_v2)
    ]
    if content[0] != content[1]:
        fail("migrated snapshot holds other content than the golden")
    if not compile_tea_binary(data_v2).structurally_equal(
            compile_tea_binary(golden)):
        fail("migrated snapshot compiles to another automaton")
    print("content: migrated snapshot loads to the golden trace set, "
          "automaton, profile and meta")

    proc = tools("store", "migrate", "--dir", store_dir)
    if proc.returncode != 0:
        fail("second migrate exited %d: %s" % (proc.returncode, proc.stderr))
    if "migrated 0 snapshot(s)" not in proc.stdout:
        fail("second migrate was not a no-op: %s" % proc.stdout)
    if AutomatonStore(store_dir).keys() != [key_v2]:
        fail("second migrate changed the store")
    print("second migrate: no-op")

    shutil.rmtree(WORKDIR, ignore_errors=True)
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
