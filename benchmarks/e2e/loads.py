"""The two workloads of the end-to-end benchmark.

Both run against the repo's real entry points, each started as a user
would start it: ``python -m repro.service build`` and ``python -m
repro.service serve``.  A workload sets itself up
``Context.setup_repeats`` times (the median is ``setup_s``), warms up,
and then drives a closed loop for the measured window: one client
sends its next operation only after the previous one has returned.
Load comes from this one process, from one thread and one connection.
A host-speed probe (:func:`probe`) runs between each two operations
and each two set-ups, never during one.

Every reply is checked.  A reply must equal its reference in
``expected/<workload>.json`` when one is recorded there, and must equal
every other reply to the same request in the run.  A failed or
mismatched operation counts as failed.
"""

import collections
import contextlib
import functools
import hashlib
import io
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

from repro.service.__main__ import main as service_main
from repro.service.client import ServiceClient
from repro.service.protocol import ProtocolError, ServiceError
from repro.store import AutomatonStore

THRESHOLD = 30

HOT_PROGRAM = ("164.gzip", 1.0)

INGEST_STABLE = ("171.swim", 1.0)
INGEST_LABEL = "ingest"
#: Every ingest builds 176.gcc at one of these scales.  Each scale gives
#: a different program (the trip counts differ), and a run uses each
#: scale at most once.
INGEST_PROGRAM = "176.gcc"
INGEST_SCALES = tuple(round(0.25 + 0.0005 * step, 4) for step in range(200))
#: The scales form this many bands of consecutive scales (program sizes).
INGEST_BANDS = 20

CLIENT_TIMEOUT = 120.0
START_TIMEOUT = 240.0
STOP_TIMEOUT = 60.0
SETTLE = 0.05

#: The host-speed probe's program, ``(op, a, b)`` instructions of a toy
#: register machine; the steps it runs per probe; and how many probes
#: are taken between two set-ups.
PROBE_CODE = ((0, 1, 2), (1, 1, 3), (0, 3, 1), (2, 4, 1),
              (0, 2, 4), (3, 2, 7), (0, 5, 5), (1, 5, 2))
PROBE_STEPS = 172000
SETUP_PROBES = 5


class BenchError(Exception):
    """The benchmark could not set up or drive a workload."""


def digest(reply):
    """Short content digest of a JSON-able reply."""
    text = json.dumps(reply, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Answers:
    """Checks replies against references and against each other."""

    def __init__(self, expected):
        self.expected = dict(expected)
        self.seen = {}
        self.mismatches = []

    def check(self, key, reply):
        """True when ``reply`` equals every reference for ``key``."""
        got = digest(reply)
        first = self.seen.setdefault(key, got)
        want = self.expected.get(key, first)
        if got == want:
            return True
        return self.fail("%s: reply %s, reference %s" % (key, got, want))

    def require(self, condition, message):
        return True if condition else self.fail(message)

    def fail(self, message):
        self.mismatches.append(message)
        return False


def probe(samples=1):
    """Median seconds of a fixed toy-interpreter loop: the host's speed
    now.

    Like the replay path, the loop fetches instruction tuples, branches
    on them and updates registers and a memory dict.  It uses nothing
    from ``repro``, so no change to the program under test moves it;
    only the host does.
    """
    times = []
    for _ in range(samples):
        began = time.perf_counter()
        registers = [0] * 8
        memory = {}
        pc = 0
        for _ in range(PROBE_STEPS):
            op, a, b = PROBE_CODE[pc & 7]
            if op == 0:
                registers[a] = (registers[a] + registers[b] + 1) & 0xFFFF
            elif op == 1:
                memory[registers[a] & 4095] = registers[b]
            elif op == 2:
                registers[a] = memory.get(registers[b] & 4095, a)
            elif registers[a] & 1:
                pc = b - 1
            pc += 1
        times.append(time.perf_counter() - began)
    return statistics.median(times)


#: One operation: its kind, client-observed interval and outcome.
#: Warm-up operations are checked but not timed.  ``probe`` is the mean
#: of the host-speed probes just before and just after a timed one.
Op = collections.namedtuple("Op", "kind start end ok timed probe",
                            defaults=(None,))


class Outcome:
    """Everything one workload run measured."""

    def __init__(self, primary):
        #: Operation kind whose latency is ``latency_p50_s``.
        self.primary = primary
        #: ``(seconds, probe)`` of every set-up.
        self.setup = []
        self.ops = []
        self.window = (0.0, 0.0)
        self.peak_rss_mb = 0.0
        #: Pid of the server process.
        self.server_pid = None
        #: The server's ``stats`` metrics before and after the window.
        self.server_stats = ({}, {})


class Context:
    """One run's settings, working directory and child processes."""

    def __init__(self, root, work, seed, seconds, setup_repeats,
                 trace_dir=None):
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.setup_repeats = setup_repeats
        paths = [os.path.join(root, "src")]
        self.env = dict(os.environ)
        self.env.pop("E2E_TRACE_DIR", None)
        if trace_dir is not None:
            paths.append(os.path.join(os.path.dirname(
                os.path.abspath(__file__)), "_trace"))
            self.env["E2E_TRACE_DIR"] = trace_dir
        if self.env.get("PYTHONPATH"):
            paths.append(self.env["PYTHONPATH"])
        self.env["PYTHONPATH"] = os.pathsep.join(paths)
        self.children = []
        self._logs = 0

    def path(self, name):
        return os.path.join(self.work, name)

    def spawn(self, name, args):
        """Start ``python <args>`` in the work directory."""
        self._logs += 1
        log_path = self.path("%02d-%s.log" % (self._logs, name))
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                [sys.executable] + list(args), cwd=self.work, env=self.env,
                stdout=log, stderr=log,
            )
        proc.log_path = log_path
        self.children.append(proc)
        return proc

    def finish(self, proc):
        """Wait for a child that exits by itself; raise if it failed."""
        # No timeout: with one, Popen.wait polls with sleeps of up to
        # 50 ms, which would land in every timed build.
        try:
            proc.wait()
        finally:
            self.stop(proc)
        if proc.returncode != 0:
            raise BenchError("%s exited with %d:\n%s"
                             % (" ".join(proc.args[1:]), proc.returncode,
                                _tail(proc.log_path)))

    def stop(self, proc):
        """SIGTERM (the servers drain on it), then SIGKILL if needed."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc in self.children:
            self.children.remove(proc)

    def stop_all(self):
        for proc in reversed(list(self.children)):
            self.stop(proc)

    def wait_port(self, proc, port_file):
        """Block until ``proc`` publishes its port; returns it."""
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            try:
                with open(port_file, encoding="utf-8") as handle:
                    text = handle.read().strip()
            except FileNotFoundError:
                text = ""
            if text:
                return int(text)
            if proc.poll() is not None:
                raise BenchError("%s exited with %d before listening:\n%s"
                                 % (" ".join(proc.args[1:]), proc.returncode,
                                    _tail(proc.log_path)))
            if time.monotonic() > deadline:
                raise BenchError("%s did not listen within %.0f s"
                                 % (" ".join(proc.args[1:]), START_TIMEOUT))
            time.sleep(0.005)


def _tail(path, lines=20):
    with open(path, encoding="utf-8", errors="replace") as handle:
        return "".join(handle.readlines()[-lines:])


def rpc(port, method, **params):
    """One RPC on a fresh connection."""
    with ServiceClient("127.0.0.1", port, timeout=CLIENT_TIMEOUT) as client:
        return client.call(method, **params)


class Server:
    """A running ``repro.service serve`` child."""

    def __init__(self, proc, port):
        self.proc = proc
        self.port = port

    def client(self):
        return ServiceClient("127.0.0.1", self.port, timeout=CLIENT_TIMEOUT)


def build(ctx, store, benchmark, scale):
    """``python -m repro.service build`` one snapshot into ``store``."""
    ctx.finish(ctx.spawn("build", [
        "-m", "repro.service", "build", "--store", store,
        "--benchmark", benchmark, "--scale", repr(scale),
        "--threshold", str(THRESHOLD)]))


def serve(ctx, store, name):
    port_file = ctx.path(name + ".port")
    proc = ctx.spawn(name, ["-m", "repro.service", "serve", "--store", store,
                            "--port", "0", "--port-file", port_file,
                            "--workers", "2"])
    return Server(proc, ctx.wait_port(proc, port_file))


def vm_hwm_mib(pid):
    """Peak resident set of a live process, in MiB."""
    with open("/proc/%d/status" % pid, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


def attempt(outcome, operation, timed):
    """Run one operation; records it and returns False once the client
    cannot go on (its schedule ended or its connection broke)."""
    began = time.monotonic()
    try:
        result = operation()
    except ServiceError:
        outcome.ops.append(Op("error", began, time.monotonic(), False, timed))
        return True
    except (OSError, ProtocolError) as error:
        outcome.ops.append(Op("error", began, time.monotonic(), False, timed))
        print("client stopped: %s" % error, file=sys.stderr)
        return False
    if result is None:
        return False
    kind, ok = result
    outcome.ops.append(Op(kind, began, time.monotonic(), ok, timed))
    return True


def closed_loop(ctx, outcome, operation):
    """The measured window: one client runs ``operation`` back to back,
    with a host-speed probe between each two operations."""
    start = time.monotonic()
    deadline = start + ctx.seconds
    before = probe()
    while time.monotonic() < deadline:
        count = len(outcome.ops)
        going = attempt(outcome, operation, True)
        after = probe()
        if len(outcome.ops) > count:
            outcome.ops[-1] = outcome.ops[-1]._replace(
                probe=(before + after) / 2)
        before = after
        if not going:
            break
    outcome.window = (start, time.monotonic())


# ---------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------


class Workload:
    """What both workloads share: one served snapshot, one client."""

    #: Operation kind whose latency is ``latency_p50_s``.
    primary = None
    #: ``(benchmark, scale)`` of the snapshot served from the start.
    served = None

    def __init__(self, ctx, answers):
        self.ctx = ctx
        self.answers = answers
        self.store = None
        self.server = None
        self.client = None

    def setup(self, outcome):
        """Build a fresh store and start its server, ``setup_repeats``
        times; each repetition is timed from the build to the server's
        published port, with host-speed probes before and after it, and
        every server but the last is stopped."""
        benchmark, scale = self.served
        before = probe(SETUP_PROBES)
        for rep in range(self.ctx.setup_repeats):
            self.store = self.ctx.path("store%d" % rep)
            began = time.monotonic()
            build(self.ctx, self.store, benchmark, scale)
            server = serve(self.ctx, self.store, "server%d" % rep)
            seconds = time.monotonic() - began
            if rep + 1 < self.ctx.setup_repeats:
                self.ctx.stop(server.proc)
            after = probe(SETUP_PROBES)
            outcome.setup.append((seconds, (before + after) / 2))
            before = after
        self.server = server
        self.client = server.client().connect()

    def stats(self):
        return rpc(self.server.port, "stats")["metrics"]

    def warm(self, outcome):
        attempt(outcome, self.operation, False)

    def close(self):
        if self.client is not None:
            self.client.close()


class ReplayHot(Workload):
    """Identical replays of one snapshot, back to back."""

    primary = "replay"
    served = HOT_PROGRAM
    key = "replay %s global_local" % HOT_PROGRAM[0]

    def operation(self):
        # The first one, the warm-up, also runs the program natively.
        reply = self.client.call("replay", config="global_local")
        return "replay", self.answers.check(self.key, reply)

    def references(self, outcome):
        self.warm(outcome)


def ingest_order(seed):
    """The seed's order of ``INGEST_SCALES``.

    Each run of ``INGEST_BANDS`` consecutive ingests takes one scale
    from every band, so the program sizes a run ingests are spread the
    same way whatever the seed and however many it completes.
    """
    rng = random.Random("%d:ingest" % seed)
    width = len(INGEST_SCALES) // INGEST_BANDS
    bands = [list(INGEST_SCALES[first:first + width])
             for first in range(0, len(INGEST_SCALES), width)]
    for band in bands:
        rng.shuffle(band)
    order = []
    for rank in zip(*bands):
        order.extend(rng.sample(rank, len(rank)))
    return order


class Ingest(Workload):
    """Build, reload, replay and collect one never-seen program per
    operation."""

    primary = "ingest"
    served = INGEST_STABLE

    def __init__(self, ctx, answers):
        super().__init__(ctx, answers)
        self.previous = None
        self.scales = iter(ingest_order(ctx.seed))

    def ingest(self, scale):
        """Build, reload, replay and collect one program; ``ok`` is True
        when every reply was right."""
        answers = self.answers
        output = io.StringIO()
        with contextlib.redirect_stdout(output):
            status = service_main([
                "build", "--store", self.store, "--benchmark", INGEST_PROGRAM,
                "--scale", repr(scale), "--threshold", str(THRESHOLD),
                "--label", INGEST_LABEL])
        words = output.getvalue().split()
        if status != 0 or len(words) < 2 or words[0] != "snapshot":
            return "ingest", answers.fail("build of %s@%.4f failed"
                                          % (INGEST_PROGRAM, scale))
        key = words[1]
        retired = [self.previous] if self.previous else []
        reload = self.client.call("reload")
        ok = answers.require(
            reload["loaded"] == [key] and reload["retired"] == retired,
            "reload after building %s loaded %s and retired %s"
            % (key[:12], reload["loaded"], reload["retired"]))
        reply = self.client.call("replay", snapshot=INGEST_LABEL,
                                 config="global_local")
        ok &= answers.require(
            reply.get("snapshot") == key,
            "replay of %r served %s, just built %s"
            % (INGEST_LABEL, str(reply.get("snapshot"))[:12], key[:12]))
        reply.pop("snapshot", None)
        ok &= answers.check("replay %s@%.4f" % (INGEST_PROGRAM, scale), reply)
        removed = AutomatonStore(self.store).gc()
        ok &= answers.require(removed == len(retired),
                              "gc removed %d snapshots, expected %d"
                              % (removed, len(retired)))
        self.previous = key
        return "ingest", ok

    def operation(self):
        scale = next(self.scales, None)
        return None if scale is None else self.ingest(scale)

    def references(self, outcome):
        for scale in INGEST_SCALES:
            attempt(outcome, functools.partial(self.ingest, scale), False)


WORKLOADS = {
    "replay-hot": ReplayHot,
    "ingest": Ingest,
}


def run(name, ctx, expected, references=False):
    """Run workload ``name``; returns ``(Outcome, Answers)``.

    With ``references`` the workload sends every distinct request it
    can send once, untimed, instead of the measured loop, so the
    replies can be recorded as the workload's references.
    """
    answers = Answers(expected)
    workload = WORKLOADS[name](ctx, answers)
    outcome = Outcome(workload.primary)
    try:
        workload.setup(outcome)
        outcome.server_pid = workload.server.proc.pid
        if references:
            workload.references(outcome)
            return outcome, answers
        workload.warm(outcome)
        # A server updates its latency timers just after the reply is
        # on the wire; let the last one land before reading them.
        time.sleep(SETTLE)
        before = workload.stats()
        closed_loop(ctx, outcome, workload.operation)
        time.sleep(SETTLE)
        outcome.server_stats = (before, workload.stats())
        outcome.peak_rss_mb = vm_hwm_mib(outcome.server_pid)
    finally:
        workload.close()
        ctx.stop_all()
    return outcome, answers
