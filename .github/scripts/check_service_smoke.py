"""CI smoke test for the TEA snapshot store + replay service.

Exercises the full production path end to end, as subprocesses (the
way an operator would run it):

1. ``python -m repro.service build`` — record a benchmark, snapshot
   its automaton into a store;
2. ``python -m repro.service serve`` — start the server;
3. fire >= 32 concurrent client queries (replay / coverage /
   step-batch / snapshot-info) from worker threads and assert every
   one succeeds with consistent results;
4. replay the snapshot once more and compare the reply with an
   in-process replay of the same snapshot and stream through the
   ``step()`` oracle (a ``TeaReplayTool`` with a ``TeaProfile``):
   identical transition accounting and coverage, cycles only up to
   float tolerance (the Pin block-stub charge interleaves differently
   with the compiled walk's batch-boundary charges);
5. assert the ``stats`` RPC counters add up (requests == ok + errors,
   per-method counts == what we sent);
6. SIGTERM the server and assert a clean graceful drain (exit 0,
   "drained cleanly" on stdout).

Run from the repository root with PYTHONPATH=src (the harness CI job
does).  Exits non-zero on the first violated invariant.
"""

import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from repro.cfg.basic_block import BlockIndex  # noqa: E402
from repro.core import TeaProfile  # noqa: E402
from repro.cpu.executor import DEFAULT_MAX_INSTRUCTIONS  # noqa: E402
from repro.pin import Pin, TeaReplayTool  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.store import AutomatonStore  # noqa: E402

STORE = ".ci_service_store"
PORT_FILE = ".ci_service_port"
BENCHMARK = "164.gzip"
SCALE = "0.5"
N_CLIENTS = 32


def fail(message):
    print("FAIL: %s" % message)
    sys.exit(1)


def run_build():
    subprocess.run(
        [sys.executable, "-m", "repro.service", "build",
         "--store", STORE, "--benchmark", BENCHMARK, "--scale", SCALE,
         "--threshold", "10", "--profile", "--label", "smoke"],
        check=True,
    )


def start_server():
    if os.path.exists(PORT_FILE):
        os.unlink(PORT_FILE)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve",
         "--store", STORE, "--port", "0", "--port-file", PORT_FILE,
         "--workers", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.time() + 120
    while time.time() < deadline:
        if os.path.exists(PORT_FILE):
            with open(PORT_FILE) as handle:
                text = handle.read().strip()
            if text:
                return server, int(text)
        if server.poll() is not None:
            fail("server exited early:\n%s" % server.stdout.read())
        time.sleep(0.2)
    server.kill()
    fail("server did not write its port file in time")


def one_query(port, index):
    with ServiceClient("127.0.0.1", port, timeout=120.0) as client:
        kind = index % 4
        if kind == 0:
            result = client.replay(snapshot="smoke")
            assert 0.0 < result["coverage_pin"] <= 1.0
            assert result["stats"]["blocks"] > 0
            return "replay", result["coverage_pin"]
        if kind == 1:
            result = client.coverage(snapshot="smoke")
            assert 0.0 < result["coverage_pin"] <= 1.0
            return "coverage", result["coverage_pin"]
        if kind == 2:
            result = client.step_batch([1, 2, 3, 4], snapshot="smoke")
            assert result["steps"] == 4
            return "step-batch", None
        result = client.snapshot_info("smoke")
        assert result["states"] > 1 and result["profile"]
        return "snapshot-info", None


def oracle_replay(key):
    """``(stats, coverage_pin, cycles)`` of snapshot ``key`` replayed in
    process through ``TeaReplayer.step()`` on the store's stream."""
    store = AutomatonStore(STORE)
    program = store.load_program(key)
    trace_set, tea, _profile = store.load(key, BlockIndex(program))
    stream = store.open_stream(program.content_digest(),
                               DEFAULT_MAX_INSTRUCTIONS)
    if stream is None:
        fail("the store holds no execution stream for snapshot %s" % key)
    tool = TeaReplayTool(trace_set=trace_set, tea=tea, profile=TeaProfile())
    result = Pin(program, tool=tool, stream=stream).run()
    return tool.stats.as_dict(), tool.coverage, result.cycles


def check_served_matches_oracle(port, sent):
    """The served replay against the ``step()`` oracle: identical
    accounting, close cycles."""
    with ServiceClient("127.0.0.1", port, timeout=120.0) as client:
        served = client.replay(snapshot="smoke")
    sent["replay"] += 1
    if served["engine"] != "compiled":
        fail("engine field not echoed: %r" % served["engine"])
    stats, coverage, cycles = oracle_replay(served["snapshot"])
    if served["stats"] != stats:
        fail("served replay and step() oracle disagree on replay stats:"
             "\nserved: %r\noracle: %r" % (served["stats"], stats))
    if served["coverage_pin"] != coverage:
        fail("served replay and step() oracle disagree on coverage: "
             "%r vs %r" % (served["coverage_pin"], coverage))
    drift = abs(served["cycles"] - cycles)
    if drift > 1e-9 * max(abs(cycles), 1.0):
        fail("served cycle total drifted from the step() oracle: %r vs %r"
             % (served["cycles"], cycles))


def main():
    run_build()
    server, port = start_server()
    sent = {"replay": 0, "coverage": 0, "step-batch": 0,
            "snapshot-info": 0}
    try:
        with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
            outcomes = list(
                pool.map(lambda i: one_query(port, i), range(N_CLIENTS))
            )
        coverages = set()
        for method, coverage in outcomes:
            sent[method] += 1
            if coverage is not None:
                coverages.add(coverage)
        if len(outcomes) != N_CLIENTS:
            fail("expected %d results, got %d" % (N_CLIENTS, len(outcomes)))
        if len(coverages) != 1:
            fail("replay/coverage disagree across clients: %r" % coverages)

        check_served_matches_oracle(port, sent)

        with ServiceClient("127.0.0.1", port, timeout=60.0) as client:
            stats = client.stats()
        methods = stats["methods"]
        for method, count in sent.items():
            if methods.get(method, 0) != count:
                fail("stats says %s=%s, sent %d"
                     % (method, methods.get(method), count))
        counters = stats["metrics"]["counters"]
        requests = counters["service.requests"]
        answered = counters["service.ok"] + counters["service.errors"]
        # The stats request itself is counted as received but has not
        # been answered at snapshot time.
        if requests != answered + 1:
            fail("requests=%d but ok+errors=%d (+1 in-flight expected)"
                 % (requests, answered))
        if requests < N_CLIENTS + 1:
            fail("only %d requests recorded" % requests)
        if counters["service.bytes_in"] <= 0 or counters["service.bytes_out"] <= 0:
            fail("byte counters not populated")
        timers = stats["metrics"]["timers"]
        replay_timer = timers.get("service.latency.replay", {})
        if replay_timer.get("count", 0) < 1 or replay_timer.get("seconds", 0.0) <= 0.0:
            fail("replay latency timer not populated")
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            output, _ = server.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            fail("server did not drain within 60s of SIGTERM")

    if server.returncode != 0:
        fail("server exited %d after SIGTERM:\n%s"
             % (server.returncode, output))
    if "drained cleanly" not in output:
        fail("graceful-drain banner missing from server output:\n%s" % output)

    print("OK: %d concurrent queries served, stats consistent, "
          "clean drain" % N_CLIENTS)


if __name__ == "__main__":
    main()
