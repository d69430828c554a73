"""Program images: the ``TEAP`` codec, its TEA027 checks, and the store
and service paths that decode an image instead of regenerating a
program.

``repro.service build`` stores the assembled program beside each
snapshot (``<snapshot-key>.teap``).  The server, ``gc``, minimization
and the tools decode it; none of them calls the workload generator.

``tests/golden/image_digests.json`` pins the SHA-256 of every golden
program's image bytes, so a change to how the encoder finds its shape
rows cannot reorder or duplicate them unnoticed.  Regenerating it
(after an *intentional* image change, with a bump of
:data:`~repro.isa.image.IMAGE_VERSION`)::

    PYTHONPATH=src python -m pytest tests/test_program_image.py --update-golden
"""

import copy
import hashlib
import json
import os
import shutil
import stat
from pathlib import Path

import pytest

from repro.cpu.stream import ExecutionStream
from repro.errors import SerializationError
from repro.isa import assemble
from repro.isa.image import (
    HEADER_SIZE,
    ImageHeader,
    decode_image,
    encode_image,
    image_crc,
)
from repro.obs import Observability
from repro.service.__main__ import main as service_main
from repro.service.protocol import E_INVALID, ServiceError
from repro.service.server import TeaService
from repro.service.testing import ServiceThread, ephemeral_config
from repro.store import AutomatonStore
from repro.verify import verify_image_bytes, verify_path
from repro.workloads import load_benchmark

GOLDEN = Path(__file__).parent / "golden" / "program_digests.json"
IMAGE_GOLDEN = Path(__file__).parent / "golden" / "image_digests.json"
OWNER = "5e" * 32
BENCHMARK = "164.gzip"


def _layout(program):
    return [(instr.addr, instr.length, instr.target, instr.opcode,
             instr.operands) for instr in program.instructions]


def _rules(report):
    return sorted({diagnostic.rule_id for diagnostic in report.diagnostics})


# ---------------------------------------------------------------------
# the codec
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def golden_images():
    """``case -> (program digest, program, image)`` for every program
    of ``program_digests.json``."""
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 71
    images = {}
    for case, digest in sorted(golden.items()):
        name, scale = case.split("@")
        program = load_benchmark(name, scale=float(scale)).program
        images[case] = (digest, program, encode_image(program, OWNER))
    return images


def test_golden_programs_round_trip_through_their_images(golden_images):
    for case, (digest, program, image) in golden_images.items():
        assert ImageHeader.parse(image).program_digest == digest, case
        decoded = decode_image(image, owner=OWNER)
        assert decoded.content_digest() == digest, case
        assert (decoded.base, decoded.entry) == (program.base,
                                                 program.entry), case
        assert decoded.labels == program.labels, case
        assert decoded.data == program.data, case
        assert _layout(decoded) == _layout(program), case
        assert decoded.code_end == program.code_end, case


def test_golden_program_images_match_their_pinned_bytes(golden_images,
                                                        request):
    digests = {case: hashlib.sha256(image).hexdigest()
               for case, (_digest, _program, image) in golden_images.items()}
    if request.config.getoption("--update-golden"):
        IMAGE_GOLDEN.write_text(
            json.dumps(digests, indent=2, sort_keys=True) + "\n")
        return
    golden = json.loads(IMAGE_GOLDEN.read_text())
    assert sorted(golden) == sorted(digests)
    drifted = sorted(case for case in digests if digests[case] != golden[case])
    assert not drifted, "image bytes drifted: %s" % ", ".join(drifted)


def test_encoding_is_canonical_and_owner_bound(nested_program):
    image = encode_image(nested_program, OWNER)
    assert encode_image(assemble(nested_program.source), OWNER) == image
    header = ImageHeader.parse(image)
    assert header.owner == OWNER
    assert header.program_digest == nested_program.content_digest()
    other = encode_image(nested_program, "a1" * 32)
    assert other[HEADER_SIZE:] == image[HEADER_SIZE:]
    with pytest.raises(SerializationError, match="filed under"):
        decode_image(other, owner=OWNER)


def test_header_reads_without_the_body(nested_program):
    image = encode_image(nested_program, OWNER)
    header = ImageHeader.parse(image[:HEADER_SIZE], size=len(image))
    assert header.program_digest == nested_program.content_digest()
    with pytest.raises(SerializationError, match="declares"):
        ImageHeader.parse(image[:HEADER_SIZE], size=len(image) + 8)


def test_program_without_a_contiguous_layout_is_refused(nested_program):
    from repro.isa.program import Program

    instructions = list(nested_program.instructions)
    gapped = Program(instructions[1:], {}, instructions[1].addr,
                     base=nested_program.base)
    with pytest.raises(SerializationError, match="does not follow"):
        encode_image(gapped, OWNER)


def test_branch_off_its_operand_is_refused(nested_program):
    from repro.isa.program import Program

    instructions = [copy.copy(instr) for instr in nested_program.instructions]
    branch = next(instr for instr in instructions if instr.target is not None)
    branch.target += 1
    moved = Program(instructions, nested_program.labels,
                    nested_program.entry, base=nested_program.base,
                    data=nested_program.data)
    with pytest.raises(SerializationError,
                       match="branch at %#x targets" % branch.addr):
        encode_image(moved, OWNER)


# ---------------------------------------------------------------------
# TEA027 on images
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def image():
    program = load_benchmark(BENCHMARK, scale=0.2).program
    return encode_image(program, OWNER)


def test_sound_image_passes_tea027(image):
    report = verify_image_bytes(image, key=OWNER)
    assert report.ok() and report.rules_run == ["TEA027"]


def test_flipped_byte_trips_tea027(image):
    for offset in (6, 40, HEADER_SIZE + 3, len(image) // 2, len(image) - 9):
        flipped = bytearray(image)
        flipped[offset] ^= 0x01
        assert _rules(verify_image_bytes(bytes(flipped), key=OWNER)) == \
            ["TEA027"], offset


def test_truncated_image_trips_tea027(image):
    for size in (len(image) - 8, HEADER_SIZE, HEADER_SIZE // 2, 0):
        assert _rules(verify_image_bytes(image[:size], key=OWNER)) == \
            ["TEA027"], size


def test_image_decoding_to_another_digest_trips_tea027(image):
    """A CRC-correct image whose body decodes to a different program
    than its header names."""
    damaged = bytearray(image)
    damaged[HEADER_SIZE + 8 * 2] ^= 0x01       # first shape's operand
    damaged[HEADER_SIZE - 8:HEADER_SIZE - 4] = \
        image_crc(damaged).to_bytes(4, "little")
    report = verify_image_bytes(bytes(damaged), key=OWNER)
    assert _rules(report) == ["TEA027"]
    assert "decodes to program" in report.diagnostics[0].message


def test_image_filed_under_another_snapshot_trips_tea027(image):
    report = verify_image_bytes(image, key="0" * 64)
    assert _rules(report) == ["TEA027"]
    assert "filed under" in report.diagnostics[0].message


# ---------------------------------------------------------------------
# the store and the service
# ---------------------------------------------------------------------

def build(store_dir, scale, label, capsys):
    """``repro.service build`` one snapshot; returns its key."""
    assert service_main(["build", "--store", str(store_dir), "--benchmark",
                         BENCHMARK, "--scale", repr(scale), "--threshold",
                         "10", "--label", label]) == 0
    return capsys.readouterr().out.split()[1]


@pytest.fixture
def two_programs(tmp_path, capsys):
    """A store built with two programs, ``a`` (gzip@0.2) and ``b``
    (gzip@0.25)."""
    keys = {"a": build(tmp_path / "store", 0.2, "a", capsys),
            "b": build(tmp_path / "store", 0.25, "b", capsys)}
    return AutomatonStore(tmp_path / "store"), keys


def _overwrite(path, data):
    os.chmod(path, stat.S_IRUSR | stat.S_IWUSR)
    with open(path, "wb") as handle:
        handle.write(data)


def test_build_writes_a_read_only_image_of_its_program(two_programs):
    store, keys = two_programs
    for label, scale in (("a", 0.2), ("b", 0.25)):
        path = store.image_path(keys[label])
        assert not os.stat(path).st_mode & stat.S_IWUSR
        program = load_benchmark(BENCHMARK, scale=scale).program
        assert store.load_program(keys[label]).content_digest() == \
            program.content_digest()
        assert verify_path(path).ok()


@pytest.mark.parametrize("damage", ["flip", "truncate", "wrong-snapshot"])
def test_damaged_image_is_quarantined_never_served(two_programs, damage):
    store, keys = two_programs
    path = store.image_path(keys["a"])
    with open(path, "rb") as handle:
        data = handle.read()
    if damage == "flip":
        data = data[:100] + bytes([data[100] ^ 0x04]) + data[101:]
    elif damage == "truncate":
        data = data[:-16]
    else:
        # B's sound image, filed under A's snapshot.
        with open(store.image_path(keys["b"]), "rb") as handle:
            data = handle.read()
    _overwrite(path, data)
    assert _rules(verify_path(path)) == ["TEA027"]

    service = TeaService(store)
    service.preload()
    assert list(service.entries) == [keys["b"]]
    invalid = service.invalid[keys["a"]]
    assert invalid["rules"] == ["TEA027"]
    assert "python -m repro.service build" in invalid["error"]
    with ServiceThread(store, config=ephemeral_config()) as served:
        with served.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.replay(snapshot=keys["a"])
            assert excinfo.value.code == E_INVALID
            assert client.replay(snapshot="b")["snapshot"] == keys["b"]


def test_served_programs_are_decoded_never_generated(two_programs,
                                                      monkeypatch):
    import repro.workloads
    import repro.workloads.generator
    import repro.workloads.spec

    def refuse(*_args, **_kwargs):
        raise AssertionError("a program was regenerated")

    # load_benchmark itself, and what every binding of it calls.
    monkeypatch.setattr(repro.workloads, "load_benchmark", refuse)
    monkeypatch.setattr(repro.workloads.spec, "build_workload_program",
                        refuse)
    monkeypatch.setattr(repro.workloads.generator,
                        "build_workload_program", refuse)
    store, keys = two_programs
    service = TeaService(store)
    entry = service._load_key(keys["a"])
    assert entry.program.content_digest() == \
        store.load_program(keys["a"]).content_digest()
    service.preload()
    assert sorted(service.entries) == sorted(keys.values())
    assert store.gc() == 0


def test_gc_drops_images_with_their_snapshots(tmp_path, capsys):
    store_dir = tmp_path / "store"
    gone = build(store_dir, 0.2, "hot", capsys)
    build(store_dir, 0.25, "hot", capsys)      # supersedes ``gone``
    build(store_dir, 0.3, "cold", capsys)
    store = AutomatonStore(store_dir)
    assert len(store.stream_keys()) == 3

    assert store.gc() == 1                 # images do not count
    counters = store.obs.metrics.snapshot()["counters"]
    assert counters["store.gc_removed"] == 1
    assert counters["store.gc_images_removed"] == 1
    assert counters["store.gc_streams_removed"] == 1
    assert gone not in store and not os.path.exists(store.image_path(gone))
    assert len(store.keys()) == 2
    for key in store.keys():
        assert os.path.exists(store.image_path(key))
    live = sorted(ExecutionStream.record(
        load_benchmark(BENCHMARK, scale=scale).program).key
        for scale in (0.25, 0.3))
    assert store.stream_keys() == live
    assert store.gc() == 0


def test_minimize_carries_the_image(two_programs):
    store, keys = two_programs
    program = store.load_program(keys["a"])
    new_key, _result = store.put_minimized(keys["a"])
    assert store.load_program(new_key).content_digest() == \
        program.content_digest()
    assert verify_path(store.image_path(new_key)).ok()
    images = sorted(name[:-len(".teap")]
                    for _root, _dirs, files in os.walk(store.root)
                    for name in files if name.endswith(".teap"))
    assert images == store.keys()


def test_tools_load_a_snapshot_with_its_image(two_programs, tmp_path,
                                             capsys):
    from repro.tools.__main__ import main

    store, keys = two_programs
    out = tmp_path / "min.teab"
    assert main(["minimize", store.path_for(keys["a"]),
                 "--out", str(out)]) == 0
    assert "no program image" not in capsys.readouterr().err
    loose = tmp_path / "loose.teab"
    shutil.copyfile(store.path_for(keys["a"]), loose)
    assert main(["minimize", str(loose)]) == 1
    assert "no program image" in capsys.readouterr().err
    assert main(["minimize", str(loose), "--benchmark", BENCHMARK,
                 "--scale", "0.2"]) == 0


def test_audit_verifies_images(two_programs):
    from repro.audit.scheduler import audit_store, store_artifact_paths

    store, keys = two_programs
    paths = store_artifact_paths(store.root)
    assert sorted(path for path in paths if path.endswith(".teap")) == \
        sorted(store.image_path(key) for key in keys.values())
    _overwrite(store.image_path(keys["b"]), b"TEAP")
    result = audit_store(store.root)
    failed = [report["target"] for report in result.reports
              if not report["ok"]]
    assert failed == [store.image_path(keys["b"])]


def test_obs_counts_image_bytes(tmp_path, nested_program, nested_traces):
    obs = Observability()
    store = AutomatonStore(tmp_path / "store", obs=obs)
    key = store.put(nested_traces, program=nested_program)
    written = obs.metrics.snapshot()["counters"]["store.bytes_written"]
    assert written == (os.path.getsize(store.path_for(key))
                       + os.path.getsize(store.image_path(key)))
    assert store.put(nested_traces, program=nested_program) == key
    assert obs.metrics.snapshot()["counters"]["store.bytes_written"] == \
        written                                    # nothing rewritten
