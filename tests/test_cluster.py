"""The sharded replay cluster: ring properties, routing, chaos.

Four layers of assurance, cheapest first:

- **ring** — deterministic balance bounds for 2-16 workers plus a
  hypothesis property suite proving *exact* minimal remapping: after a
  join, a key changes owner iff its new owner is the joined node;
  after a leave, iff its old owner was the removed node;
- **policy** — backpressure (bounded queues shed with ``overloaded``),
  per-client token-bucket quotas, and the client's retry-with-backoff
  discipline, all over real TCP with in-process workers;
- **lifecycle** — worker registration, drain-hook deregistration, and
  graceful router drain (in-flight answered, listener gone);
- **chaos** — a real ``SIGKILL`` lands on a subprocess worker in the
  middle of a 32-client replay storm: no request is silently dropped,
  every surviving answer is bit-exact against a single-node
  ``engine="compiled"`` replay, the ring evicts the corpse, and the
  restarted worker rejoins.

Every bind in this file is ephemeral (``port=0``) via
:func:`repro.service.testing.ephemeral_config`; the only fixed-port
reuse is a killed worker restarting on its kernel-assigned port.
"""

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.cluster import (
    ClusterConfig,
    ClusterSetupError,
    HashRing,
    TokenBucket,
)
from repro.cluster.ring import DEFAULT_VNODES
from repro.cluster.testing import (
    ClusterProcessHarness,
    ClusterThreadHarness,
    RouterThread,
)
from repro.core import build_tea
from repro.dbt import StarDBT
from repro.service.client import RetryPolicy, ServiceClient
from repro.service.protocol import (
    E_METHOD,
    E_OVERLOADED,
    E_QUOTA,
    E_SHUTDOWN,
    E_UNAVAILABLE,
    RETRYABLE_CODES,
    ServiceError,
)
from repro.service.testing import (
    ServiceThread,
    ephemeral_config,
    free_port,
    wait_for_port_file,
)
from repro.obs import Observability
from repro.store import AutomatonStore
from repro.traces.recorder import RecorderLimits
from repro.workloads import load_benchmark

BENCHMARK = "164.gzip"
SCALE = 0.3


# ---------------------------------------------------------------------
# fixtures: one recorded benchmark in a store, plus its single-node
# compiled replay (the bit-exactness oracle)
# ---------------------------------------------------------------------

class _World:
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
    return _World(tmp_path_factory.mktemp("cluster") / "store")


@pytest.fixture(scope="module")
def single_node_results(world):
    """Replay + coverage from one ordinary (non-cluster) server.

    The chaos storm's answers must be bit-for-bit equal to these: same
    snapshot, same default ``compiled`` engine, no cluster in sight.
    """
    with ServiceThread(world.store) as service:
        with service.client(timeout=120.0) as client:
            replay = client.replay(snapshot="world")
            coverage = client.coverage(snapshot="world")
    return {"replay": replay, "coverage": coverage}


# ---------------------------------------------------------------------
# hash ring: deterministic balance bounds (2-16 workers)
# ---------------------------------------------------------------------

@pytest.mark.parametrize("n_nodes", range(2, 17))
def test_ring_balance_bounds(n_nodes):
    ring = HashRing(["worker-%d" % i for i in range(n_nodes)])
    shares = ring.arc_shares()
    assert len(shares) == n_nodes
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    ideal = 1.0 / n_nodes
    # 128 vnodes keep every worker within [0.6x, 1.5x] of its fair
    # share for realistic cluster sizes (measured ~[0.78x, 1.29x]).
    assert max(shares.values()) <= 1.5 * ideal
    assert min(shares.values()) >= 0.6 * ideal


def test_ring_balance_with_address_shaped_names():
    # Worker ids in production are host:port strings; same bounds.
    ring = HashRing(["10.0.0.%d:73%02d" % (i, i) for i in range(1, 13)])
    shares = ring.arc_shares()
    ideal = 1.0 / 12
    assert max(shares.values()) <= 1.5 * ideal
    assert min(shares.values()) >= 0.6 * ideal


def test_ring_lookup_basics():
    ring = HashRing(["a", "b", "c"])
    assert ring.nodes == ("a", "b", "c")
    assert "a" in ring and "z" not in ring
    key = "0123abcd" * 8
    assert ring.node_for(key) in ring.nodes
    # node_for is nodes_for's first entry; replica sets are distinct
    # and clockwise-stable.
    assert ring.nodes_for(key, 1) == [ring.node_for(key)]
    replicas = ring.nodes_for(key, 2)
    assert len(replicas) == 2 and len(set(replicas)) == 2
    assert ring.nodes_for(key, 99) == ring.nodes_for(key, 3)
    assert sorted(ring.nodes_for(key, 3)) == ["a", "b", "c"]


def test_ring_empty_and_membership_errors():
    ring = HashRing()
    assert ring.node_for("k") is None
    assert ring.nodes_for("k", 2) == []
    assert ring.add("a") is True
    assert ring.add("a") is False      # already a member
    assert ring.remove("b") is False   # never was one
    assert ring.remove("a") is True
    assert len(ring) == 0
    with pytest.raises(ValueError):
        HashRing(vnodes=0)


def test_ring_is_independent_of_insertion_order():
    forward = HashRing(["a", "b", "c", "d"])
    backward = HashRing(["d", "c", "b", "a"])
    for key in ("x", "y", "z", "0123abcd" * 8):
        assert forward.node_for(key) == backward.node_for(key)
        assert forward.nodes_for(key, 2) == backward.nodes_for(key, 2)


def test_ring_describe_is_json_able():
    ring = HashRing(["a", "b"], vnodes=16)
    description = json.loads(json.dumps(ring.describe()))
    assert description["vnodes"] == 16
    assert [node["node"] for node in description["nodes"]] == ["a", "b"]
    assert abs(sum(n["share"] for n in description["nodes"]) - 1.0) < 1e-9


# ---------------------------------------------------------------------
# hash ring: hypothesis property suite (exact minimal remapping)
# ---------------------------------------------------------------------

_names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1, max_size=12,
)
_node_lists = st.lists(_names, min_size=1, max_size=8, unique=True)
_keys = st.lists(st.text(max_size=24), min_size=1, max_size=32, unique=True)


@given(nodes=_node_lists, joiner=_names, keys=_keys)
@settings(max_examples=80, deadline=None)
def test_ring_join_remaps_only_onto_the_new_node(nodes, joiner, keys):
    assume(joiner not in nodes)
    ring = HashRing(nodes, vnodes=32)
    before = {key: ring.node_for(key) for key in keys}
    assert ring.add(joiner)
    for key in keys:
        after = ring.node_for(key)
        if after != before[key]:
            # The ONLY legal move is onto the joiner — any other
            # reshuffle would invalidate every worker's warm memo.
            assert after == joiner


@given(nodes=st.lists(_names, min_size=2, max_size=8, unique=True),
       index=st.integers(min_value=0, max_value=7), keys=_keys)
@settings(max_examples=80, deadline=None)
def test_ring_leave_remaps_only_the_leavers_keys(nodes, index, keys):
    leaver = nodes[index % len(nodes)]
    ring = HashRing(nodes, vnodes=32)
    before = {key: ring.node_for(key) for key in keys}
    assert ring.remove(leaver)
    for key in keys:
        after = ring.node_for(key)
        if before[key] == leaver:
            assert after != leaver     # orphaned keys found a new home
        else:
            assert after == before[key]  # everyone else is untouched


@given(nodes=_node_lists, keys=_keys,
       count=st.integers(min_value=1, max_value=4))
@settings(max_examples=80, deadline=None)
def test_ring_replica_sets_are_distinct_and_led_by_the_owner(
        nodes, keys, count):
    ring = HashRing(nodes, vnodes=32)
    for key in keys:
        replicas = ring.nodes_for(key, count)
        assert len(replicas) == min(count, len(nodes))
        assert len(set(replicas)) == len(replicas)
        assert replicas[0] == ring.node_for(key)


@given(nodes=_node_lists, extra=_names)
@settings(max_examples=60, deadline=None)
def test_ring_join_then_leave_is_identity(nodes, extra):
    assume(extra not in nodes)
    ring = HashRing(nodes, vnodes=32)
    reference = HashRing(nodes, vnodes=32)
    ring.add(extra)
    ring.remove(extra)
    for key in ("a", "b", "c", extra):
        assert ring.node_for(key) == reference.node_for(key)


# ---------------------------------------------------------------------
# token bucket (pure: the caller supplies the clock)
# ---------------------------------------------------------------------

def test_token_bucket_burst_then_refill():
    bucket = TokenBucket(rate=2.0, burst=3, now=100.0)
    assert [bucket.take(100.0) for _ in range(4)] == [True, True, True,
                                                      False]
    assert bucket.take(100.4) is False   # 0.8 tokens: not yet a whole one
    assert bucket.take(100.6) is True    # 1.2 tokens accrued
    assert bucket.take(100.6) is False
    # Refill saturates at the burst, no matter how long the idle gap.
    assert all(bucket.take(300.0) for _ in range(3))
    assert bucket.take(300.0) is False


def test_token_bucket_zero_rate_never_refills():
    bucket = TokenBucket(rate=0.0, burst=2, now=0.0)
    assert bucket.take(0.0) and bucket.take(1.0)
    assert bucket.take(10_000.0) is False


# ---------------------------------------------------------------------
# ephemeral-port helpers
# ---------------------------------------------------------------------

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


def test_free_port_is_bindable_shape():
    port = free_port()
    assert isinstance(port, int) and 0 < port < 65536


# ---------------------------------------------------------------------
# routing, backpressure, quotas (in-process workers over real TCP)
# ---------------------------------------------------------------------

def test_router_forwards_and_affinity(world):
    config = ClusterConfig(replicas=1, health_interval=5.0)
    with ClusterThreadHarness(world.store, n_workers=3,
                              router_config=config) as cluster:
        with cluster.client(timeout=120.0) as client:
            pong = client.ping()
            assert pong["role"] == "router"
            assert pong["workers"] == 3 and pong["healthy"] == 3
            # Worker pings still say who they are.
            direct = cluster.workers[0].client()
            with direct:
                assert direct.ping()["role"] == "worker"
            result = client.replay(snapshot="world")
            assert result["snapshot"] == world.key
            again = client.replay(snapshot=world.key)  # alias == digest
            assert again == result
            info = client.call("cluster-info")
        # With replicas=1, label and digest route to the SAME worker.
        ring = HashRing([w["id"] for w in info["workers"]])
        owner = ring.node_for(world.key)
        forwarded = {w["id"]: w["forwards"] for w in info["workers"]}
        assert forwarded[owner] == 2
        assert sum(forwarded.values()) == 2


def test_router_rejects_unknown_method_via_worker(world):
    with ClusterThreadHarness(world.store, n_workers=1) as cluster:
        with cluster.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.call("no-such-method")
    # Forwarded verbatim: the worker's own structured error comes back.
    assert excinfo.value.code == E_METHOD


def test_backpressure_sheds_when_all_queues_full(world):
    config = ClusterConfig(max_queue=1, replicas=2, health_interval=5.0)
    with ClusterThreadHarness(world.store, n_workers=2, debug=True,
                              router_config=config) as cluster:
        blocker = cluster.client(timeout=60.0)
        with blocker:
            # Two pipelined sleeps occupy both workers' single slots.
            first = blocker._send_request("sleep", {"seconds": 1.2})
            second = blocker._send_request("sleep", {"seconds": 1.2})
            time.sleep(0.4)  # both forwards are in flight now
            with cluster.client() as probe:
                with pytest.raises(ServiceError) as excinfo:
                    probe.call("snapshots")
                assert excinfo.value.code == E_OVERLOADED
                assert excinfo.value.code in RETRYABLE_CODES
                # Local methods are never shed.
                assert probe.ping()["pong"] is True
                stats = probe.stats()
            assert stats["shed"] >= 1
            # The blockers themselves were answered, not dropped.
            assert blocker._unwrap(blocker._receive(first)) == \
                {"slept": 1.2}
            assert blocker._unwrap(blocker._receive(second)) == \
                {"slept": 1.2}


def test_backpressure_recovers_after_load_passes(world):
    config = ClusterConfig(max_queue=1, health_interval=5.0)
    with ClusterThreadHarness(world.store, n_workers=1, debug=True,
                              router_config=config) as cluster:
        blocker = cluster.client(timeout=60.0)
        with blocker:
            sleep_id = blocker._send_request("sleep", {"seconds": 0.8})
            time.sleep(0.3)
            # A retrying client rides out the congestion window.
            retry = RetryPolicy(attempts=10, base_delay=0.2, max_delay=0.4)
            with cluster.client(retry=retry) as patient:
                listing = patient.snapshots()
            assert [snap["key"] for snap in listing] == [world.key]
            assert blocker._unwrap(blocker._receive(sleep_id)) == \
                {"slept": 0.8}


def test_quota_rejects_per_client_and_recovers_identity(world):
    config = ClusterConfig(quota_rate=0.0, quota_burst=2,
                           health_interval=5.0)
    with ClusterThreadHarness(world.store, n_workers=1,
                              router_config=config) as cluster:
        with cluster.client() as client:
            # Alice spends her burst...
            client.call("snapshots", client="alice")
            client.call("snapshots", client="alice")
            with pytest.raises(ServiceError) as excinfo:
                client.call("snapshots", client="alice")
            assert excinfo.value.code == E_QUOTA
            # ...but Bob's bucket is his own,
            assert client.call("snapshots", client="bob")
            # and local methods are not metered.
            assert client.ping()["pong"] is True
            stats = client.stats()
        assert stats["quota_rejected"] == 1


def test_client_retry_backoff_capped_and_counted(world):
    # max_queue=0 sheds every forwarded request: the retry loop runs
    # its full course deterministically.
    config = ClusterConfig(max_queue=0, health_interval=5.0)
    with ClusterThreadHarness(world.store, n_workers=1,
                              router_config=config) as cluster:
        naps = []
        policy = RetryPolicy(attempts=4, base_delay=0.05, max_delay=0.1,
                             multiplier=2.0, sleep=naps.append)
        obs = Observability()
        with cluster.client(retry=policy, obs=obs) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.call("snapshots")
        assert excinfo.value.code == E_OVERLOADED
        # Exactly attempts-1 backoffs, exponential then capped.
        assert naps == [0.05, 0.1, 0.1]
        counters = obs.metrics.snapshot()["counters"]
        assert counters["client.requests"] == 1
        assert counters["client.retries"] == 3
        assert counters["client.retry.%s" % E_OVERLOADED] == 3
        assert counters["client.retries_exhausted"] == 1
        with cluster.client() as probe:
            assert probe.stats()["shed"] == 4  # every attempt was shed


def test_client_does_not_retry_permanent_errors(world):
    with ClusterThreadHarness(world.store, n_workers=1) as cluster:
        naps = []
        policy = RetryPolicy(attempts=5, sleep=naps.append)
        obs = Observability()
        with cluster.client(retry=policy, obs=obs) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.call("bogus-method")
        assert excinfo.value.code == E_METHOD
        assert naps == []  # permanent errors fail fast, no backoff
        counters = obs.metrics.snapshot()["counters"]
        assert counters.get("client.retries", 0) == 0


def test_unavailable_when_no_worker_is_healthy(world):
    # The router's only "worker" is a port nothing listens on.
    config = ClusterConfig(health_interval=60.0, fail_after=1)
    router = RouterThread([("127.0.0.1", free_port())], config=config)
    with router:
        obs = Observability()
        naps = []
        policy = RetryPolicy(attempts=2, sleep=naps.append)
        with router.client(retry=policy, obs=obs) as client:
            assert client.ping()["healthy"] == 0
            with pytest.raises(ServiceError) as excinfo:
                client.call("snapshots")
        assert excinfo.value.code == E_UNAVAILABLE
        assert len(naps) == 1  # retried once, then gave up
        counters = obs.metrics.snapshot()["counters"]
        assert counters["client.retry.%s" % E_UNAVAILABLE] == 1


def test_router_needs_at_least_one_worker():
    with pytest.raises(ClusterSetupError):
        RouterThread([]).start()


# ---------------------------------------------------------------------
# membership lifecycle: register, drain-hook deregister, router drain
# ---------------------------------------------------------------------

def test_worker_register_rpc_joins_the_ring(world):
    with ClusterThreadHarness(world.store, n_workers=1) as cluster:
        late = ServiceThread(world.store, config=ephemeral_config())
        late.start()
        try:
            with cluster.client() as client:
                result = client.call("worker-register", host=late.host,
                                     port=late.port)
                assert result["healthy"] is True
                assert result["workers"] == 2
                info = client.call("cluster-info")
            assert "%s:%d" % (late.host, late.port) in \
                [w["id"] for w in info["workers"]]
        finally:
            late.stop()


def test_worker_drain_hook_deregisters_from_router(world):
    with ClusterThreadHarness(world.store, n_workers=2) as cluster:
        victim = cluster.workers[0]
        victim_host, victim_port = victim.address
        router_host, router_port = cluster.router_thread.address

        def deregister():
            with ServiceClient(router_host, router_port) as hook_client:
                hook_client.call("worker-deregister", host=victim_host,
                                 port=victim_port)

        victim.service.add_drain_hook(deregister)
        victim.stop()  # graceful worker drain fires the hook
        with cluster.client(timeout=120.0) as client:
            info = client.call("cluster-info")
            assert "%s:%d" % (victim_host, victim_port) not in \
                [w["id"] for w in info["workers"]]
            assert len(info["workers"]) == 1
            # The cluster still serves replays off the survivor.
            assert client.replay(snapshot="world")["snapshot"] == world.key
            assert client.stats()["leaves"] == 1


def test_router_graceful_drain_answers_in_flight(world):
    with ClusterThreadHarness(world.store, n_workers=1,
                              debug=True) as cluster:
        client = cluster.client(timeout=60.0)
        with client:
            sleep_id = client._send_request("sleep", {"seconds": 0.8})
            stop_id = client._send_request("shutdown", {})
            time.sleep(0.3)
            late_id = client._send_request("ping", {})
            assert client._unwrap(client._receive(stop_id)) == \
                {"stopping": True}
            # The in-flight forward completes and is answered.
            assert client._unwrap(client._receive(sleep_id)) == \
                {"slept": 0.8}
            late = client._receive(late_id)
            assert late["ok"] is False
            assert late["error"]["code"] == E_SHUTDOWN


# ---------------------------------------------------------------------
# chaos: SIGKILL a subprocess worker mid-storm
# ---------------------------------------------------------------------

def _poll_worker_health(cluster, worker_id, want, deadline_s=30.0):
    deadline = time.monotonic() + deadline_s
    state = None
    while time.monotonic() < deadline:
        with cluster.client() as client:
            info = client.call("cluster-info")
        state = {w["id"]: w["healthy"] for w in info["workers"]}
        if state.get(worker_id) is want:
            return state
        time.sleep(0.1)
    raise AssertionError(
        "worker %s never became healthy=%s (last: %s)"
        % (worker_id, want, state)
    )


def test_chaos_sigkill_mid_storm_drops_nothing(world, single_node_results):
    n_clients = 32
    config = ClusterConfig(replicas=2, max_queue=64,
                           health_interval=0.2, fail_after=2)
    with ClusterProcessHarness(str(world.store.root), n_workers=3,
                               router_config=config) as cluster:
        results = []
        errors = []
        lock = threading.Lock()

        def storm(index):
            policy = RetryPolicy(attempts=8, base_delay=0.05,
                                 max_delay=0.5)
            try:
                with cluster.client(timeout=120.0, retry=policy) as client:
                    if index % 2:
                        outcome = ("coverage",
                                   client.coverage(snapshot="world"))
                    else:
                        outcome = ("replay",
                                   client.replay(snapshot="world"))
                with lock:
                    results.append(outcome)
            except Exception as error:  # noqa: BLE001 — recorded, asserted
                with lock:
                    errors.append(repr(error))

        victim = cluster.workers[0]
        victim_id = "%s:%d" % (victim.host, victim.port)
        with ThreadPoolExecutor(max_workers=n_clients) as pool:
            futures = [pool.submit(storm, i) for i in range(n_clients)]
            time.sleep(0.25)          # let the storm get airborne...
            victim.kill()             # ...then SIGKILL one worker
            for future in futures:
                future.result(timeout=180.0)

        # No request was silently dropped: every client either got an
        # answer or a structured error — and with retries, an answer.
        assert len(results) + len(errors) == n_clients
        assert errors == []

        # Every surviving answer is bit-exact against the single-node
        # compiled replay (replays are deterministic end to end).
        for kind, result in results:
            assert result == single_node_results[kind]

        # The ring evicted the corpse...
        state = _poll_worker_health(cluster, victim_id, want=False)
        assert sum(state.values()) == 2
        with cluster.client() as client:
            stats = client.stats()
        assert stats["evictions"] >= 1
        # ...and the router-side accounting balances: every accepted
        # request was answered (ok or structured error), none lost.
        counters = stats["metrics"]["counters"]
        answered = counters["router.ok"] + counters["router.errors"]
        assert counters["router.requests"] == answered + 1  # +stats itself
        assert counters["router.forwards"] >= n_clients

        # A restarted worker (same port) rejoins the ring by itself.
        victim.restart()
        state = _poll_worker_health(cluster, victim_id, want=True)
        assert all(state.values())
        with cluster.client(timeout=120.0) as client:
            assert client.stats()["rejoins"] >= 1
            # And the rejoined ring still answers bit-exact.
            replay = client.replay(snapshot="world")
        assert replay == single_node_results["replay"]


# ---------------------------------------------------------------------
# CLI: offline routing plan matches the library ring
# ---------------------------------------------------------------------

def test_cluster_plan_cli_matches_library_routing(world, capsys):
    from repro.cluster.__main__ import main as cluster_main

    code = cluster_main([
        "plan", "--store", str(world.store.root),
        "--worker", "w1", "--worker", "w2", "--worker", "w3",
        "--replicas", "2",
    ])
    assert code == 0
    plan = json.loads(capsys.readouterr().out)
    assert [entry["key"] for entry in plan["snapshots"]] == [world.key]
    entry = plan["snapshots"][0]
    assert entry["label"] == "world"
    ring = HashRing(["w1", "w2", "w3"], vnodes=DEFAULT_VNODES)
    assert entry["workers"] == ring.nodes_for(world.key, 2)


def test_tools_cluster_subcommand_forwards(world, capsys):
    from repro.tools.__main__ import main as tools_main

    code = tools_main([
        "cluster", "plan", "--store", str(world.store.root),
        "--worker", "w1", "--worker", "w2",
    ])
    assert code == 0
    plan = json.loads(capsys.readouterr().out)
    assert len(plan["snapshots"]) == 1
