"""The concurrent replay service: protocol, RPCs, drain, stats.

These tests assert the ISSUE's service acceptance bar end to end over
real TCP (via :class:`ServiceThread`): >= 32 concurrent replay-family
requests all succeed with results identical to an in-process replay,
the latency metrics populate, and a graceful shutdown answers every
in-flight request before the listener dies.
"""

import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import TeaProfile, build_tea
from repro.dbt import StarDBT
from repro.pin import Pin, TeaReplayTool
from repro.service.client import ServiceClient
from repro.service.protocol import (
    E_INVALID,
    E_METHOD,
    E_PARAMS,
    E_PARSE,
    E_SHUTDOWN,
    E_SNAPSHOT,
    E_TIMEOUT,
    E_TOO_LARGE,
    HEADER,
    PayloadTooLarge,
    ProtocolError,
    ServiceError,
    decode_payload,
    encode_frame,
    error_reply,
    read_frame_blocking,
    result_reply,
    write_frame_blocking,
)
from repro.service.server import ServiceSetupError, TeaService
from repro.service.testing import (
    ServiceThread,
    ephemeral_config,
    wait_for_port_file,
)
from repro.store import AutomatonStore
from repro.traces.recorder import RecorderLimits
from repro.workloads import load_benchmark

BENCHMARK = "164.gzip"
SCALE = 0.3


# ---------------------------------------------------------------------
# fixtures: one recorded benchmark, snapshotted into a store
# ---------------------------------------------------------------------

class _World:
    """The benchmark, its traces/TEA, and a store holding the snapshot."""

    def __init__(self, root):
        self.program = load_benchmark(BENCHMARK, scale=SCALE).program
        recorded = StarDBT(
            self.program, limits=RecorderLimits(hot_threshold=10)
        ).run()
        self.trace_set = recorded.trace_set
        self.tea = build_tea(self.trace_set)
        self.store = AutomatonStore(root)
        self.key = self.store.put(
            self.trace_set, tea=self.tea,
            meta={"benchmark": BENCHMARK, "scale": SCALE, "label": "world"},
            program=self.program,
        )


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    return _World(tmp_path_factory.mktemp("service") / "store")


@pytest.fixture(scope="module")
def shared_service(world):
    with ServiceThread(world.store) as service:
        yield service


# ---------------------------------------------------------------------
# protocol unit tests (no server)
# ---------------------------------------------------------------------

def test_frame_round_trip_over_socketpair():
    left, right = socket.socketpair()
    try:
        message = {"id": 7, "method": "ping", "params": {}}
        write_frame_blocking(left, message)
        assert read_frame_blocking(right) == message
    finally:
        left.close()
        right.close()


def test_frame_encoding_is_header_plus_json():
    frame = encode_frame({"a": 1})
    (length,) = HEADER.unpack(frame[:HEADER.size])
    assert length == len(frame) - HEADER.size
    assert decode_payload(frame[HEADER.size:]) == {"a": 1}


def test_decode_payload_rejects_non_objects():
    with pytest.raises(ProtocolError):
        decode_payload(b"[1, 2]")
    with pytest.raises(ProtocolError):
        decode_payload(b"{broken")


def test_reply_shapes():
    ok = result_reply(3, {"x": 1})
    assert ok == {"id": 3, "ok": True, "result": {"x": 1}}
    bad = error_reply(4, E_PARAMS, "nope")
    assert bad["ok"] is False
    assert bad["error"] == {"code": E_PARAMS, "message": "nope"}


def test_blocking_read_eof_and_truncation():
    left, right = socket.socketpair()
    try:
        left.close()
        assert read_frame_blocking(right) is None  # clean EOF
    finally:
        right.close()
    left, right = socket.socketpair()
    try:
        left.sendall(HEADER.pack(100) + b"short")
        left.close()
        with pytest.raises(ProtocolError):
            read_frame_blocking(right)
    finally:
        right.close()


def test_ephemeral_config_pins_port_zero():
    config = ephemeral_config(debug=True, max_payload=512)
    assert config.port == 0
    assert config.debug is True and config.max_payload == 512
    with pytest.raises(ValueError):
        ephemeral_config(port=7321)


def test_wait_for_port_file(tmp_path):
    path = tmp_path / "svc.port"
    with pytest.raises(TimeoutError):
        wait_for_port_file(str(path), timeout=0.2, poll=0.05)
    path.write_text("7777\n")
    assert wait_for_port_file(str(path), timeout=1.0) == 7777


# ---------------------------------------------------------------------
# basic RPCs over real TCP
# ---------------------------------------------------------------------

def test_ping_and_snapshots(shared_service, world):
    with shared_service.client() as client:
        pong = client.ping()
        assert pong["pong"] is True and pong["snapshots"] == 1
        listing = client.snapshots()
        assert [snap["key"] for snap in listing] == [world.key]
        info = client.snapshot_info("world")       # by label alias
        assert info["key"] == world.key
        assert info["states"] == world.tea.n_states
        assert info["benchmark"] == BENCHMARK


def test_replay_matches_in_process_replay(shared_service, world):
    # The service replays via the compiled walk, over flat tables built
    # straight from the snapshot bytes; drive the same compiled
    # automaton in-process so cycles match bit-for-bit.
    compiled = world.store.get_compiled(world.key)
    direct = TeaReplayTool(trace_set=world.trace_set, tea=world.tea,
                           compiled=compiled)
    direct_result = Pin(world.program, tool=direct).run()

    with shared_service.client(timeout=120.0) as client:
        served = client.replay(snapshot=world.key)
    assert served["engine"] == "compiled"
    assert served["coverage_pin"] == direct.coverage
    assert served["stats"] == direct.stats.as_dict()
    assert served["cycles"] == direct_result.cycles
    assert served["states"] == world.tea.n_states
    assert served["slowdown"] > 1.0

    # The step() oracle walks the TeaState graph instead; transition
    # accounting is identical, only float charge interleaving differs.
    oracle = TeaReplayTool(trace_set=world.trace_set, tea=world.tea,
                           profile=TeaProfile())
    oracle_result = Pin(world.program, tool=oracle).run()
    assert oracle.stats.as_dict() == served["stats"]
    assert oracle.coverage == served["coverage_pin"]
    assert oracle_result.cycles == pytest.approx(served["cycles"],
                                                 rel=1e-12)

    # A request may still name the one engine.
    with shared_service.client(timeout=120.0) as client:
        named = client.call("replay", snapshot=world.key, engine="compiled")
    assert named == served

    with shared_service.client(timeout=120.0) as client:
        coverage = client.coverage(snapshot="world")
    assert coverage["coverage_pin"] == direct.coverage
    assert coverage["total_pin"] == direct.stats.total_pin


def test_step_batch_matches_local_simulation(shared_service, world):
    # Walk the automaton remotely along each trace's block starts and
    # check against a local tea.simulate over the same labels.
    trace = max(world.trace_set, key=lambda t: len(t.tbbs))
    labels = [tbb.block.start for tbb in trace]
    with shared_service.client() as client:
        result = client.step_batch(labels, return_states=True)
    local = list(world.tea.simulate(labels))
    assert result["states"] == [state.sid for state in local]
    assert result["final"] == local[-1].sid
    assert result["steps"] == len(labels)
    assert result["in_trace"] + result["nte"] == len(labels)
    assert result["in_trace"] == len(labels)  # a recorded trace path


def test_pipelined_requests_on_one_connection(shared_service):
    with shared_service.client() as client:
        results = client.call_many([
            ("ping", {}),
            ("snapshot-info", {}),
            ("step-batch", {"labels": [1, 2, 3]}),
            ("ping", {}),
        ])
    assert results[0]["pong"] is True
    assert results[2]["steps"] == 3
    assert results[3]["pong"] is True


def test_snapshot_param_optional_with_single_snapshot(shared_service, world):
    with shared_service.client() as client:
        assert client.snapshot_info()["key"] == world.key


# ---------------------------------------------------------------------
# structured errors
# ---------------------------------------------------------------------

def test_unknown_method(shared_service):
    with shared_service.client() as client:
        with pytest.raises(ServiceError) as excinfo:
            client.call("no-such-method")
    assert excinfo.value.code == E_METHOD


def test_unknown_snapshot(shared_service):
    with shared_service.client() as client:
        with pytest.raises(ServiceError) as excinfo:
            client.snapshot_info("missing")
    assert excinfo.value.code == E_SNAPSHOT


def test_bad_params(shared_service):
    with shared_service.client() as client:
        with pytest.raises(ServiceError) as excinfo:
            client.step_batch([])
        assert excinfo.value.code == E_PARAMS
        with pytest.raises(ServiceError) as excinfo:
            client.step_batch(["zz"])
        assert excinfo.value.code == E_PARAMS
        with pytest.raises(ServiceError) as excinfo:
            client.call("replay", config="warp-speed")
        assert excinfo.value.code == E_PARAMS
        for engine in ("llvm", "object", "jit"):
            for method in ("replay", "coverage"):
                with pytest.raises(ServiceError) as excinfo:
                    client.call(method, engine=engine)
                assert excinfo.value.code == E_PARAMS
            with pytest.raises(ServiceError) as excinfo:
                client.call("diff", b=client.snapshots()[0]["key"],
                            engine=engine)
            assert excinfo.value.code == E_PARAMS
        with pytest.raises(ServiceError) as excinfo:
            client.call("step-batch", labels=[1], start=10 ** 6)
        assert excinfo.value.code == E_PARAMS


def test_parse_error_reply(shared_service):
    host, port = shared_service.address
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(HEADER.pack(7) + b"notjson")
        reply = read_frame_blocking(sock)
    assert reply["ok"] is False
    assert reply["error"]["code"] == E_PARSE


def test_payload_too_large_reply(world):
    config = ephemeral_config(max_payload=256)
    with ServiceThread(world.store, config=config) as service:
        host, port = service.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            write_frame_blocking(
                sock,
                {"id": 1, "method": "step-batch",
                 "params": {"labels": list(range(500))}},
            )
            reply = read_frame_blocking(sock)
        assert reply["ok"] is False
        assert reply["error"]["code"] == E_TOO_LARGE


def test_client_reconnects_after_a_transport_error(shared_service):
    # The snapshots reply is larger than the client's payload cap; the
    # unread payload must not be taken for the next reply's header.
    with shared_service.client(max_payload=200) as client:
        with pytest.raises(PayloadTooLarge):
            client.call("snapshots")
        assert client.ping()["pong"] is True


def test_request_timeout(world):
    config = ephemeral_config(request_timeout=0.2, debug=True)
    with ServiceThread(world.store, config=config) as service:
        with service.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.call("sleep", seconds=5.0)
    assert excinfo.value.code == E_TIMEOUT


def test_debug_rpc_absent_by_default(shared_service):
    with shared_service.client() as client:
        with pytest.raises(ServiceError) as excinfo:
            client.call("sleep", seconds=0.0)
    assert excinfo.value.code == E_METHOD


# ---------------------------------------------------------------------
# setup failures
# ---------------------------------------------------------------------

def test_empty_store_refuses_to_start(tmp_path):
    with pytest.raises(ServiceSetupError):
        ServiceThread(AutomatonStore(tmp_path / "empty")).start()


def test_snapshot_without_program_image_is_quarantined_for_rebuild(
        tmp_path, world, nested_traces):
    store = AutomatonStore(tmp_path / "anon")
    key = store.put(nested_traces)  # no program image beside it
    with pytest.raises(ServiceSetupError):   # its one snapshot is invalid
        ServiceThread(store).start()
    store.put(world.trace_set, tea=world.tea, meta={"label": "world"},
              program=world.program)
    with ServiceThread(store) as service:
        with service.client() as client:
            (invalid,) = client.call("snapshots")["invalid"]
            assert invalid["key"] == key
            assert "no program image" in invalid["error"]
            assert "python -m repro.service build" in invalid["error"]
            with pytest.raises(ServiceError) as excinfo:
                client.replay(snapshot=key)
            assert excinfo.value.code == E_INVALID
            assert client.replay(snapshot="world")["coverage_pin"] > 0


def test_service_preload_is_idempotent(world):
    service = TeaService(world.store)
    assert service.entries == {}
    service.preload()
    assert set(service.entries) == {world.key}
    entry = service.entries[world.key]
    service.preload()  # second pass must not rebuild anything
    assert service.entries[world.key] is entry


# ---------------------------------------------------------------------
# the acceptance bar: 32 concurrent clients + consistent stats
# ---------------------------------------------------------------------

def test_32_concurrent_clients_and_stats(world):
    n_clients = 32
    sent = {"replay": 0, "coverage": 0, "step-batch": 0, "snapshot-info": 0}

    def one_query(index):
        with ServiceClient(host, port, timeout=120.0) as client:
            kind = index % 4
            if kind == 0:
                result = client.replay(snapshot="world")
                return "replay", result["coverage_pin"]
            if kind == 1:
                result = client.coverage(snapshot="world")
                return "coverage", result["coverage_pin"]
            if kind == 2:
                result = client.step_batch([1, 2, 3, 4])
                assert result["steps"] == 4
                return "step-batch", None
            assert client.snapshot_info()["states"] == world.tea.n_states
            return "snapshot-info", None

    direct = TeaReplayTool(trace_set=world.trace_set, tea=world.tea)
    Pin(world.program, tool=direct).run()

    with ServiceThread(world.store) as service:
        host, port = service.address
        with ThreadPoolExecutor(max_workers=n_clients) as pool:
            outcomes = list(pool.map(one_query, range(n_clients)))
        assert len(outcomes) == n_clients
        coverages = set()
        for method, coverage in outcomes:
            sent[method] += 1
            if coverage is not None:
                coverages.add(coverage)
        # Every replay-family answer equals the in-process replay.
        assert coverages == {direct.coverage}

        with service.client() as client:
            stats = client.stats()

    assert stats["snapshots"] == 1
    assert stats["draining"] is False
    assert stats["uptime_seconds"] > 0.0
    # Per-method counters account for exactly what we sent.
    for method, count in sent.items():
        assert stats["methods"][method] == count
    counters = stats["metrics"]["counters"]
    # Every request was answered; the stats request itself is counted
    # on arrival but not yet answered when it takes the snapshot.
    answered = counters["service.ok"] + counters["service.errors"]
    assert counters["service.requests"] == answered + 1
    assert counters["service.requests"] == n_clients + 1
    assert counters["service.errors"] == 0
    assert counters["service.connections"] == n_clients + 1
    assert counters["service.bytes_in"] > 0
    assert counters["service.bytes_out"] > 0
    # Latency timers populated for every method exercised.
    timers = stats["metrics"]["timers"]
    for method, count in sent.items():
        timer = timers["service.latency.%s" % method]
        assert timer["count"] == count
        assert timer["seconds"] > 0.0
    assert timers["service.preload"]["count"] == 1


# ---------------------------------------------------------------------
# graceful shutdown: drain answers in-flight work, then refuses
# ---------------------------------------------------------------------

def test_graceful_drain_answers_in_flight_requests(world):
    config = ephemeral_config(debug=True)
    outcome = {}

    def long_request(service):
        with service.client(timeout=60.0) as client:
            outcome["sleep"] = client.call("sleep", seconds=1.0)

    with ServiceThread(world.store, config=config) as service:
        host, port = service.address
        worker = threading.Thread(target=long_request, args=(service,))
        worker.start()
        time.sleep(0.3)  # let the sleep request get in flight
        with service.client() as client:
            assert client.shutdown() == {"stopping": True}
        worker.join(timeout=30.0)
    # The in-flight request completed and was answered, not dropped.
    assert outcome["sleep"] == {"slept": 1.0}
    # After the drain the listener is gone.
    with pytest.raises(OSError):
        socket.create_connection((host, port), timeout=2.0).close()


def test_requests_during_drain_get_shutting_down(world):
    config = ephemeral_config(debug=True)
    with ServiceThread(world.store, config=config) as service:
        client = service.client(timeout=60.0)
        with client:
            # Pipeline: a slow request, then the shutdown, then another
            # request that lands while the drain is in progress.
            sleep_id = client._send_request("sleep", {"seconds": 0.8})
            stop_id = client._send_request("shutdown", {})
            time.sleep(0.3)
            late_id = client._send_request("ping", {})
            assert client._unwrap(client._receive(stop_id)) == \
                {"stopping": True}
            assert client._unwrap(client._receive(sleep_id)) == \
                {"slept": 0.8}
            late = client._receive(late_id)
            assert late["ok"] is False
            assert late["error"]["code"] == E_SHUTDOWN
