"""CI smoke test for the TEAB store pipeline.

Exercises the operator path end to end against the golden snapshot:

1. seed a fresh store with the golden ``mcf_mret.teab`` and its program
   image — the key must content-address the golden bytes;
2. ``repro tools verify --strict`` must pass the stored file clean
   (deep: the section and CRC rules TEA024/TEA025, the walk of the
   embedded blobs, and the rule families that need the program image);
3. ``repro tools tea info`` must report the section table without
   materialising the automaton;
4. the zero-copy ``map_compiled`` automaton must be structurally
   identical to the decoded one, and ``store.mmap_opened`` must tick;
5. the stored snapshot must hold the golden content: decoding it and
   writing it again gives the golden bytes;
6. a file with another version byte (1) planted at its store path must
   be refused by ``repro tools verify`` (TEA020) and by the store's
   readers, each saying how to rebuild it.

Run from the repository root with PYTHONPATH=src.  Exits non-zero on
the first violated invariant.
"""

import json
import os
import shutil
import struct
import subprocess
import sys
import zlib

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from repro.cfg.basic_block import BlockIndex  # noqa: E402
from repro.errors import SerializationError  # noqa: E402
from repro.store import (  # noqa: E402
    AutomatonStore,
    dump_tea_binary,
    load_tea_binary,
    snapshot_key,
)
from repro.store.binary import ENTRY_SIZE, HEADER_SIZE  # noqa: E402
from repro.workloads import load_benchmark  # noqa: E402

GOLDEN = os.path.join("tests", "golden", "mcf_mret.teab")
WORKDIR = ".ci_store"
REBUILD = "rebuild it with 'python -m repro.service build'"


def fail(message):
    print("FAIL: %s" % message)
    sys.exit(1)


def tools(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro.tools"] + list(argv),
        capture_output=True, text=True,
    )


def with_version(data, version):
    """``data`` with another version byte and its table CRC re-sealed,
    so the version is the only thing wrong with it."""
    bad = bytearray(data)
    bad[4] = version
    n_sections = struct.unpack_from("<H", bad, 6)[0]
    table_end = HEADER_SIZE + ENTRY_SIZE * n_sections
    crc = zlib.crc32(bytes(bad[HEADER_SIZE:table_end]),
                     zlib.crc32(bytes(bad[:16])))
    struct.pack_into("<I", bad, 16, crc)
    return bytes(bad)


def main():
    shutil.rmtree(WORKDIR, ignore_errors=True)
    store_dir = os.path.join(WORKDIR, "store")

    with open(GOLDEN, "rb") as handle:
        golden = handle.read()
    program = load_benchmark("181.mcf", scale=0.4).program
    store = AutomatonStore(store_dir)
    key = store.put_bytes(golden, program=program)
    if key != snapshot_key(golden):
        fail("store key does not content-address the golden bytes")
    path = store.path_for(key)
    print("seeded store with golden snapshot %s" % key[:12])

    proc = tools("verify", "--strict", path)
    if proc.returncode != 0:
        fail("verify --strict rejected the golden snapshot:\n%s"
             % proc.stdout)
    print("verify --strict: clean")

    proc = tools("tea", "info", path, "--format", "json")
    if proc.returncode != 0:
        fail("tea info failed: %s" % proc.stderr)
    info = json.loads(proc.stdout)
    sections = info.get("sections")
    if not sections:
        fail("tea info reported no section table")
    names = [section["name"] for section in sections]
    for required in ("summary", "traces", "trans_offset", "trans_labels",
                     "trans_dest", "label_pool"):
        if required not in names:
            fail("section %r missing from tea info output" % required)
    print("tea info: %d sections (%s...)" % (len(sections),
                                             ", ".join(names[:4])))

    mapped = store.map_compiled(key)
    decoded = store.get_compiled(key)
    if not mapped.structurally_equal(decoded):
        fail("zero-copy automaton differs from the decoded one")
    counters = store.obs.metrics.snapshot()["counters"]
    if counters.get("store.mmap_opened", 0) != 1:
        fail("store.mmap_opened counter did not tick exactly once")
    print("map_compiled: %d states, structurally equal, 1 mapping"
          % mapped.n_states)

    # The writer is canonical, so writing the decoded content again
    # gives the same bytes only if nothing was lost on the way.
    stored = store.get_bytes(key)
    rewritten = dump_tea_binary(*load_tea_binary(
        stored, BlockIndex(program), with_meta=True))
    if stored != golden or rewritten != golden:
        fail("the stored snapshot does not round-trip to the golden bytes")
    print("content: the stored snapshot decodes and re-encodes to the "
          "golden bytes")

    old = with_version(golden, 1)
    old_key = snapshot_key(old)
    old_path = store.path_for(old_key)
    os.makedirs(os.path.dirname(old_path), exist_ok=True)
    with open(old_path, "wb") as handle:
        handle.write(old)
    proc = tools("verify", old_path)
    if proc.returncode != 1 or "TEA020" not in proc.stdout \
            or REBUILD not in proc.stdout:
        fail("verify did not refuse a version-1 file with TEA020 and the "
             "rebuild message (exit %d):\n%s" % (proc.returncode,
                                                 proc.stdout))
    for read in (store.get_compiled, store.map_compiled):
        try:
            read(old_key)
        except SerializationError as error:
            if REBUILD not in str(error):
                fail("%s refused a version-1 file without the rebuild "
                     "message: %s" % (read.__name__, error))
        else:
            fail("%s served a version-1 file" % read.__name__)
    print("version-1 file: refused by verify (TEA020), get_compiled and "
          "map_compiled, each with the rebuild message")

    shutil.rmtree(WORKDIR, ignore_errors=True)
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
