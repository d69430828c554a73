"""Execution-stream sidecars in the store and the replay service.

``repro.service build`` writes the program's recorded stream next to
its snapshot; the server maps it at load and replays without running
the interpreter.  Without a sound sidecar the server records the
stream once, however many first replays race for it.  Also pins the
TEA027 sidecar rule, the store's ``gc`` counting rule and the
reload-before-gc fix.
"""

import os
import stat
import struct
import sys
import threading

import pytest

from repro.core import build_tea
from repro.cpu.stream import ExecutionStream, HEADER_SIZE, stream_crc
from repro.dbt import StarDBT
from repro.obs import Observability
from repro.pin import Pin, TeaReplayTool, run_native
from repro.service.__main__ import main as service_main
from repro.service.testing import ServiceThread, ephemeral_config
from repro.store import AutomatonStore
from repro.traces.recorder import RecorderLimits
from repro.verify import verify_path, verify_stream_bytes
from repro.workloads import load_benchmark

BENCHMARK = "164.gzip"
SCALE = 0.2


def build(store_dir, scale=SCALE, label=None, capsys=None):
    argv = ["build", "--store", str(store_dir), "--benchmark", BENCHMARK,
            "--scale", repr(scale), "--threshold", "10"]
    if label:
        argv += ["--label", label]
    assert service_main(argv) == 0
    if capsys is not None:
        return capsys.readouterr().out.split()[1]
    return None


def counters(obs):
    return obs.metrics.snapshot()["counters"]


def in_process_replay():
    program = load_benchmark(BENCHMARK, scale=SCALE).program
    traces = StarDBT(program,
                     limits=RecorderLimits(hot_threshold=10)).run().trace_set
    tool = TeaReplayTool(trace_set=traces, engine="compiled")
    result = Pin(program, tool=tool).run()
    return result, tool, run_native(program)


def test_build_writes_a_sidecar_the_server_replays_from(tmp_path, capsys):
    key = build(tmp_path / "store", capsys=capsys)
    store = AutomatonStore(tmp_path / "store")
    program = load_benchmark(BENCHMARK, scale=SCALE).program
    stream = ExecutionStream.record(program)
    assert store.keys() == [key]
    assert store.stream_keys() == [stream.key]
    path = store.stream_path(stream.key)
    assert not os.stat(path).st_mode & stat.S_IWUSR        # read-only
    with open(path, "rb") as handle:
        assert handle.read() == stream.to_bytes()
    assert verify_path(path).ok()

    obs = Observability()
    with ServiceThread(store, config=ephemeral_config(), obs=obs) as service:
        with service.client() as client:
            reply = client.call("replay", config="global_local")
            again = client.call("replay", config="global_local")
    assert reply == again
    found = counters(obs)
    assert found.get("exec.runs", 0) == 0     # the interpreter never ran
    assert found["service.stream_sidecars"] == 1
    result, tool, native = in_process_replay()
    assert reply["cycles"] == result.cycles
    assert reply["native_cycles"] == native.cycles
    assert reply["stats"] == tool.stats.as_dict()


def test_build_with_profile_runs_the_interpreter_once(tmp_path, capsys,
                                                      monkeypatch):
    """StarDBT, the profile replay and the sidecar share one run."""
    from repro.cpu.executor import Executor

    runs = []
    original = Executor.run

    def counted(self, on_event=None):
        runs.append(self.program)
        return original(self, on_event)

    monkeypatch.setattr(Executor, "run", counted)
    assert service_main(["build", "--store", str(tmp_path / "store"),
                         "--benchmark", BENCHMARK, "--scale", repr(SCALE),
                         "--threshold", "10", "--profile"]) == 0
    assert "with profile" in capsys.readouterr().out
    assert len(runs) == 1
    assert len(AutomatonStore(tmp_path / "store").stream_keys()) == 1


def _snapshot_only_store(tmp_path):
    program = load_benchmark(BENCHMARK, scale=SCALE).program
    traces = StarDBT(program,
                     limits=RecorderLimits(hot_threshold=10)).run().trace_set
    store = AutomatonStore(tmp_path / "store")
    store.put(traces, tea=build_tea(traces),
              meta={"benchmark": BENCHMARK, "scale": SCALE})
    return store


def _concurrent_replays(service, count):
    replies = [None] * count
    errors = []
    barrier = threading.Barrier(count)

    def one(index):
        try:
            with service.client(timeout=120.0) as client:
                barrier.wait()
                replies[index] = client.call("replay", config="global_local")
        except Exception as error:  # noqa: BLE001 — collected below
            errors.append(error)

    threads = [threading.Thread(target=one, args=(index,))
               for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
        assert not thread.is_alive()
    assert not errors
    return replies


def test_first_replays_without_sidecar_record_once(tmp_path):
    store = _snapshot_only_store(tmp_path)
    assert store.stream_keys() == []
    obs = Observability()
    config = ephemeral_config(workers=4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # many thread switches per recording
    try:
        with ServiceThread(store, config=config, obs=obs) as service:
            before = counters(obs).get("exec.runs", 0)
            replies = _concurrent_replays(service, 8)
            after = counters(obs)["exec.runs"]
    finally:
        sys.setswitchinterval(interval)
    assert after - before == 1
    assert all(reply == replies[0] for reply in replies)
    result, _tool, native = in_process_replay()
    assert replies[0]["cycles"] == result.cycles
    assert replies[0]["native_cycles"] == native.cycles


def test_failing_sidecar_is_recorded_afresh(tmp_path, capsys):
    build(tmp_path / "store", capsys=capsys)
    store = AutomatonStore(tmp_path / "store")
    (key,) = store.stream_keys()
    path = store.stream_path(key)
    os.chmod(path, stat.S_IRUSR | stat.S_IWUSR)
    with open(path, "r+b") as handle:
        handle.seek(HEADER_SIZE + 40)
        byte = handle.read(1)
        handle.seek(HEADER_SIZE + 40)
        handle.write(bytes([byte[0] ^ 0x10]))
    obs = Observability()
    with ServiceThread(store, config=ephemeral_config(), obs=obs) as service:
        with service.client() as client:
            reply = client.call("replay", config="global_local")
    found = counters(obs)
    assert found["service.stream_invalid"] == 1
    assert found.get("service.stream_sidecars", 0) == 0
    assert found["exec.runs"] == 1
    result, _tool, _native = in_process_replay()
    assert reply["cycles"] == result.cycles
    # Rebuilding the program replaces the damaged sidecar.
    stream = ExecutionStream.record(load_benchmark(BENCHMARK,
                                                   scale=SCALE).program)
    assert store.put_stream(stream) == key
    with open(path, "rb") as handle:
        assert handle.read() == stream.to_bytes()


def test_reload_before_gc_serves_each_rebuild(tmp_path, capsys):
    """Rebuilding one label again and again with ``reload`` but no
    ``gc``: superseded snapshots stay in the store, and a reload must
    neither load them again nor lose the label."""
    store_dir = tmp_path / "store"
    first = build(store_dir, scale=0.2, label="ingest", capsys=capsys)
    store = AutomatonStore(store_dir)
    with ServiceThread(store, config=ephemeral_config()) as service:
        with service.client() as client:
            previous = first
            for scale in (0.21, 0.22, 0.23):
                key = build(store_dir, scale=scale, label="ingest",
                            capsys=capsys)
                reply = client.call("reload")
                assert reply["loaded"] == [key]
                assert reply["retired"] == [previous]
                served = client.call("replay", snapshot="ingest",
                                     config="global_local")
                assert served["snapshot"] == key
                previous = key
    assert len(store.keys()) == 4


def test_gc_prunes_unreferenced_streams_but_counts_snapshots(tmp_path,
                                                             capsys):
    store_dir = tmp_path / "store"
    old = build(store_dir, scale=0.2, label="hot", capsys=capsys)
    new = build(store_dir, scale=0.25, label="hot", capsys=capsys)
    store = AutomatonStore(store_dir)
    assert len(store.stream_keys()) == 2
    assert store.gc() == 1                     # the superseded snapshot
    assert store.keys() == [new] and old not in store
    assert counters(store.obs)["store.gc_streams_removed"] == 1
    program = load_benchmark(BENCHMARK, scale=0.25).program
    assert store.stream_keys() == [ExecutionStream.record(program).key]
    assert store.gc() == 0                     # nothing left to prune


def test_jit_replays_leave_only_snapshots_and_sidecars(tmp_path, capsys):
    """JIT code is generated in memory: a built store gains no files
    from JIT replays, served or hosted in process."""
    from repro.cfg.basic_block import BlockIndex
    from repro.core import ReplayConfig

    store_dir = tmp_path / "store"
    key = build(store_dir, capsys=capsys)
    store = AutomatonStore(store_dir)
    with ServiceThread(store, config=ephemeral_config()) as service:
        with service.client() as client:
            served = client.call("replay", config="global_local",
                                 engine="jit")
    assert served["engine"] == "jit"

    program = load_benchmark(BENCHMARK, scale=SCALE).program
    trace_set, tea, _profile = store.load(key, BlockIndex(program))
    tool = TeaReplayTool(trace_set=trace_set, tea=tea, engine="jit",
                         config=ReplayConfig.global_local(),
                         compiled=store.get_compiled(key))
    Pin(program, tool=tool).run()
    assert tool.stats.as_dict() == served["stats"]

    names = [name for _root, _dirs, files in os.walk(store_dir)
             for name in files]
    assert sorted({os.path.splitext(name)[1] for name in names}) == \
        [".teab", ".teas"]


# ---------------------------------------------------------------------
# TEA027
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def sidecar():
    program = load_benchmark(BENCHMARK, scale=SCALE).program
    stream = ExecutionStream.record(program)
    return stream.to_bytes(), stream.key, program.content_digest()


def _rules(data, key, digest):
    report = verify_stream_bytes(data, key=key, program_digest=digest)
    return sorted({diagnostic.rule_id for diagnostic in report.diagnostics})


def test_sound_sidecar_passes(sidecar):
    assert _rules(*sidecar) == []


def test_truncated_sidecar_trips_tea027(sidecar):
    data, key, digest = sidecar
    assert _rules(data[:-8], key, digest) == ["TEA027"]
    assert _rules(data[:HEADER_SIZE // 2], key, digest) == ["TEA027"]
    assert _rules(b"", key, digest) == ["TEA027"]


def test_bit_flip_trips_tea027(sidecar):
    data, key, digest = sidecar
    for offset in (HEADER_SIZE + 3, len(data) // 2, 20):
        flipped = bytearray(data)
        flipped[offset] ^= 0x01
        assert _rules(bytes(flipped), key, digest) == ["TEA027"], offset


def test_totals_mismatch_trips_tea027(sidecar):
    data, key, digest = sidecar
    damaged = bytearray(data)
    # instrs_dbt sits after magic, version, flags, digest and budget.
    offset = 4 + 2 + 2 + 32 + 8
    (total,) = struct.unpack_from("<q", damaged, offset)
    struct.pack_into("<q", damaged, offset, total + 1)
    struct.pack_into("<I", damaged, HEADER_SIZE - 8, stream_crc(damaged))
    report = verify_stream_bytes(bytes(damaged), key=key,
                                 program_digest=digest)
    assert [d.rule_id for d in report.diagnostics] == ["TEA027"]
    assert "instrs_dbt" in report.diagnostics[0].message


def test_wrong_key_or_program_trips_tea027(sidecar):
    data, key, digest = sidecar
    assert _rules(data, "0" * 64, digest) == ["TEA027"]
    assert _rules(data, key, "f" * 64) == ["TEA027"]


def test_store_never_serves_a_damaged_sidecar(tmp_path, sidecar):
    from repro.errors import VerificationError

    data, key, digest = sidecar
    store = AutomatonStore(tmp_path / "store")
    path = store.stream_path(key)
    os.makedirs(os.path.dirname(path))
    with open(path, "wb") as handle:
        handle.write(data[:-8])
    with pytest.raises(VerificationError) as error:
        store.open_stream(digest, ExecutionStream.from_buffer(data)
                          .max_instructions)
    assert error.value.rule_ids == ["TEA027"]
    assert store.open_stream("e" * 64, 1000) is None
