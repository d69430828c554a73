"""Micro-benchmarks of the load-bearing components.

Classic pytest-benchmark timing (multiple rounds) of the pieces whose
speed bounds every experiment: the interpreter, StarDBT, the B+ tree
probe, the replayer's step function, and Algorithm 1 construction.

The SX86 front end is timed on the ``ingest`` workload's program
(176.gcc at scale 0.3), one never assembled or encoded before in every
round: ``load_benchmark`` (the generator's instruction records through
the assembler's back half, the path ``build`` takes), the text
assembler over the same program's rendered source, and the program
image round trip the service's write path makes (encode with the
content digest, then decode with the digest check).

The interpreter appears twice.  The hot 20,000-iteration loop reuses
each translated block thousands of times, so translation is free there.
The ingest-shaped case records a program no executor has run before in
every round, the way the service's write path does, so block
translation is paid in full and weighed against what reuse saves.
StarDBT runs over that program's recorded stream the same way, with a
fresh runtime (and so a fresh block index and recorder) per round, and
its trace set, cycles and cost breakdown must equal the program's MRET
row of ``tests/golden/dbt_digests.json``.  Online Algorithm 2 (Table 3's
``TeaRecordTool`` under MiniPin, MRET at hot threshold 30) runs on that
stream with a fresh engine and tool per round, and its trace set and
automaton, replay stats, cost breakdown and cycles must equal the
program's row of ``tests/golden/online_digests.json``.
These are the two layers of the ``ingest`` end-to-end workload's write
path that its traced run reports as ``cpu.self_s`` and ``dbt.self_s``.
The server's load of a freshly built snapshot of that program (what its
``reload`` RPC runs: verify, decode the stored program image, decode
the automaton, map the stream) is timed with a fresh service per round.

MiniPin's charges are timed on the ``replay-hot`` program, without a
tool: once on a fresh stream per round, where the run builds the
stream's charge tape and adds it up, and once on a stream whose tape
is built, where it only adds it up, pricing each chunk of charges that
stays in one binade and folding the others one charge at a time (with
the charges the first run listed for them).  Both must give the same
cycles, bit for bit.  The fresh-stream case runs ``FRESH_ROUNDS``
rounds: with 10, its minimum moved by more than 10% between processes
on a shared 2-vCPU host.  It also reports the memory the tape keeps,
which repeats exactly where the time does not.  The warm sum is also
timed both ways, alternately in one process (the priced chunks, and
every charge folded as runs did before chunks were priced), so a
change in it shows as a ratio that does not depend on the host's
phase.

The served engine is timed the same two ways: a Pin-hosted compiled
replay of that program under the served configuration (``global_local``,
MRET traces at hot threshold 30, automaton lowered once), where a fresh
stream also builds its packed batches and a warm one hands out the ones
it holds.  Every round must give the same replay stats and cycles.
"""

import hashlib
import json
import statistics
import time
import tracemalloc
from pathlib import Path

import pytest

from repro.core import CompiledTea, ReplayConfig, TeaReplayer, build_tea
from repro.cpu import ExecutionStream, Executor
from repro.dbt import StarDBT
from repro.isa import assemble
from repro.isa.image import decode_image, encode_image
from repro.pin import Pin, TeaRecordTool, TeaReplayTool
from repro.pin.pin import _chunk_charges, _fold
from repro.service.__main__ import main as service_main
from repro.service.server import TeaService
from repro.store import AutomatonStore, dump_tea_binary
from repro.structures import BPlusTree
from repro.traces.recorder import RecorderLimits
from repro.workloads import load_benchmark

#: Rounds of the fresh-stream Pin case, and alternations of the
#: priced-against-per-charge warm case.
FRESH_ROUNDS = 50
ALTERNATIONS = 41

_LOOP = assemble("""
main:
    mov ecx, 20000
loop:
    add eax, 3
    xor eax, 7
    imul edx, 5
    dec ecx
    jnz loop
    hlt
""")


def test_executor_throughput(benchmark):
    result = benchmark(lambda: Executor(_LOOP).run(None))
    assert result.halted


def test_executor_with_events(benchmark):
    sink = []

    def run():
        sink.clear()
        return Executor(_LOOP).run(lambda e: None)

    result = benchmark(run)
    assert result.halted


_GOLDEN = Path(__file__).parent.parent / "tests" / "golden"

#: ``content_digest()`` of 176.gcc@0.3, pinned by the front-end golden.
_INGEST_DIGEST = json.loads(
    (_GOLDEN / "program_digests.json").read_text())["176.gcc@0.3"]

#: StarDBT's outputs at hot threshold 30, pinned by the DBT golden.
_DBT_DIGESTS = json.loads((_GOLDEN / "dbt_digests.json").read_text())

#: Online MRET recording's outputs at hot threshold 30, pinned by the
#: online golden.
_ONLINE_DIGESTS = json.loads(
    (_GOLDEN / "online_digests.json").read_text())


def test_load_fresh_ingest_program(benchmark):
    workload = benchmark(load_benchmark, "176.gcc", scale=0.3)
    assert workload.program.content_digest() == _INGEST_DIGEST


def test_assemble_fresh_ingest_program(benchmark):
    source = load_benchmark("176.gcc", scale=0.3).source
    program = benchmark(assemble, source)
    assert program.content_digest() == _INGEST_DIGEST


def test_image_round_trip_fresh_ingest_program(benchmark):
    source = load_benchmark("176.gcc", scale=0.3).source
    owner = "5e" * 32

    def fresh_program():
        return (assemble(source),), {}

    def round_trip(program):
        return program, decode_image(encode_image(program, owner),
                                     owner=owner)

    program, decoded = benchmark.pedantic(round_trip, setup=fresh_program,
                                          rounds=10)
    assert decoded.content_digest() == program.content_digest()
    assert program.content_digest() == _INGEST_DIGEST


def test_record_fresh_ingest_program(benchmark):
    def fresh_program():
        return (load_benchmark("176.gcc", scale=0.3).program,), {}

    stream = benchmark.pedantic(ExecutionStream.record, setup=fresh_program,
                                rounds=10)
    assert stream.halted


def test_stardbt_fresh_ingest_program(benchmark):
    program = load_benchmark("176.gcc", scale=0.3).program
    stream = ExecutionStream.record(program)

    def fresh_runtime():
        return (StarDBT(program, limits=RecorderLimits(hot_threshold=30),
                        stream=stream),), {}

    result = benchmark.pedantic(StarDBT.run, setup=fresh_runtime, rounds=10)
    assert result.halted and len(result.trace_set) > 0
    assert result.blocks == stream.n_transitions
    row = _DBT_DIGESTS["176.gcc@0.3 mret"]
    assert hashlib.sha256(
        dump_tea_binary(result.trace_set)).hexdigest() == row["teab"]
    assert repr(result.cost.cycles) == row["cycles"]
    assert repr(list(result.cost.breakdown.items())) == row["breakdown"]
    assert (result.covered_dbt, result.blocks) == (row["covered_dbt"],
                                                   row["blocks"])


def test_online_record_program(benchmark):
    program = load_benchmark("176.gcc", scale=0.3).program
    stream = ExecutionStream.record(program)

    def fresh_pin():
        tool = TeaRecordTool("mret", limits=RecorderLimits(hot_threshold=30))
        return (Pin(program, tool=tool, stream=stream),), {}

    result = benchmark.pedantic(Pin.run, setup=fresh_pin, rounds=10)
    tool = result.tool
    assert result.halted and len(tool.trace_set) > 0
    row = _ONLINE_DIGESTS["176.gcc@0.3"]
    assert hashlib.sha256(dump_tea_binary(
        tool.trace_set, tea=tool.tea)).hexdigest() == row["teab"]
    assert tool.stats.as_dict() == row["stats"]
    assert [[category, repr(value)] for category, value
            in sorted(result.cost.breakdown.items())] == row["breakdown"]
    assert repr(result.cycles) == row["cycles"]


def test_load_entry_fresh_ingest_program(benchmark, tmp_path, capsys):
    assert service_main(["build", "--store", str(tmp_path), "--benchmark",
                         "176.gcc", "--scale", "0.3", "--threshold",
                         "30"]) == 0
    key = capsys.readouterr().out.split()[1]
    entries = []

    def fresh_service():
        return (TeaService(AutomatonStore(tmp_path)), key), {}

    def load(service, key):
        entries.append(service._load_key(key))
        return entries[-1]

    entry = benchmark.pedantic(load, setup=fresh_service, rounds=10)
    for loaded in entries:
        if loaded.mapping is not None:
            loaded.mapping.close()
    assert entry.key == key
    assert entry.stream.get() is not None    # the stored sidecar, mapped


@pytest.fixture(scope="module")
def pin_stream():
    """The ``replay-hot`` program and its stream's sidecar bytes."""
    program = load_benchmark("164.gzip", scale=1.0).program
    return program, ExecutionStream.record(program).to_bytes()


def test_pin_charges_fresh_stream(benchmark, pin_stream):
    """Also reports the KiB a fresh stream keeps after one run (its
    charge tape, traced by ``tracemalloc``): unlike the time, that
    repeats exactly."""
    program, data = pin_stream
    seen = []

    def fresh_stream():
        return (ExecutionStream.from_buffer(data),), {}

    def run(stream):
        seen.append(repr(Pin(program, stream=stream).run().cycles))

    benchmark.pedantic(run, setup=fresh_stream, rounds=FRESH_ROUNDS)
    tracemalloc.start()
    try:
        stream = ExecutionStream.from_buffer(data)
        before = tracemalloc.get_traced_memory()[0]
        run(stream)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    benchmark.extra_info["tape_kept_kib"] = kept / 1024
    warm = ExecutionStream.from_buffer(data)
    Pin(program, stream=warm).run()
    assert set(seen) == {repr(Pin(program, stream=warm).run().cycles)}


def test_pin_charges_warm_stream(benchmark, pin_stream):
    program, data = pin_stream
    stream = ExecutionStream.from_buffer(data)
    fresh = repr(Pin(program, stream=stream).run().cycles)
    result = benchmark(lambda: Pin(program, stream=stream).run())
    assert repr(result.cycles) == fresh


def test_pin_charges_priced_against_per_charge(benchmark, pin_stream):
    """The warm run's tape sum both ways, alternately in this process:
    priced per chunk (what a run does) and folded one charge at a time
    (what it did before chunks were priced), over the tape's charges
    listed once, outside the timed loop.  Their medians and ratio go to
    ``extra_info``; the values must be equal."""
    program, data = pin_stream
    stream = ExecutionStream.from_buffer(data)
    Pin(program, stream=stream).run()
    tape = stream._tape[1]
    segments = range(len(tape.chunks))
    listed = [[charge for lo, hi, _whole, _pairs in chunks
               for charge in _chunk_charges(stream, tape.params, lo, hi)]
              for chunks in tape.chunks]

    def priced():
        total = 0.0
        for segment in segments:
            total = tape.fold(total, segment, stream)
        return total

    def per_charge():
        total = 0.0
        for charges in listed:
            total = _fold(total, charges)
        return total

    times = {priced: [], per_charge: []}
    for _round in range(ALTERNATIONS):
        for shape, seen in times.items():
            start = time.perf_counter()
            shape()
            seen.append(time.perf_counter() - start)
    medians = {shape.__name__: statistics.median(seen)
               for shape, seen in times.items()}
    benchmark.extra_info.update(
        ("%s_median_s" % name, value) for name, value in medians.items())
    benchmark.extra_info["per_charge_over_priced"] = (
        medians["per_charge"] / medians["priced"])
    assert repr(benchmark(priced)) == repr(per_charge())


@pytest.fixture(scope="module")
def served_replay(pin_stream):
    """A served-shape replay of the ``replay-hot`` program on a stream:
    returns ``(stats, repr(cycles))``."""
    program, _data = pin_stream
    traces = StarDBT(program, limits=RecorderLimits(hot_threshold=30)) \
        .run().trace_set
    tea = build_tea(traces)
    compiled = CompiledTea.from_tea(tea)

    def replay(stream):
        tool = TeaReplayTool(trace_set=traces, tea=tea, compiled=compiled)
        result = Pin(program, tool=tool, stream=stream).run()
        return tool.stats.as_dict(), repr(result.cycles)

    return replay


def test_served_engine_fresh_stream(benchmark, pin_stream, served_replay):
    _program, data = pin_stream
    seen = []

    def fresh_stream():
        return (ExecutionStream.from_buffer(data),), {}

    def run(stream):
        seen.append(served_replay(stream))

    benchmark.pedantic(run, setup=fresh_stream, rounds=10)
    warm = ExecutionStream.from_buffer(data)
    served_replay(warm)
    assert seen == [served_replay(warm)] * len(seen)


def test_served_engine_warm_stream(benchmark, pin_stream, served_replay):
    _program, data = pin_stream
    stream = ExecutionStream.from_buffer(data)
    fresh = served_replay(stream)
    assert benchmark(lambda: served_replay(stream)) == fresh


@pytest.fixture(scope="module")
def big_tree():
    tree = BPlusTree(order=16)
    for key in range(0, 200_000, 7):
        tree.insert(key, key)
    return tree


def test_bptree_search(benchmark, big_tree):
    def probe():
        total = 0
        for key in range(0, 20_000, 13):
            value, visited = big_tree.search(key)
            total += visited
        return total

    assert benchmark(probe) > 0


def test_bptree_insert(benchmark):
    def build():
        tree = BPlusTree(order=16)
        for key in range(5_000):
            tree.insert(key * 3, key)
        return tree

    tree = benchmark(build)
    assert len(tree) == 5_000


@pytest.fixture(scope="module")
def replay_setup():
    workload = load_benchmark("164.gzip", scale=0.5)
    result = StarDBT(workload.program,
                     limits=RecorderLimits(hot_threshold=10)).run()
    tea = build_tea(result.trace_set)
    labels = [trace.entry for trace in result.trace_set] * 200
    return tea, labels


def test_replayer_step_throughput(benchmark, replay_setup):
    tea, labels = replay_setup

    def run():
        replayer = TeaReplayer(tea, config=ReplayConfig.global_local())
        for label in labels:
            replayer.step(label, 4, 4)
        return replayer.stats.blocks

    assert benchmark(run) == len(labels)


def test_algorithm1_build(benchmark, replay_setup):
    workload = load_benchmark("164.gzip", scale=0.5)
    trace_set = StarDBT(workload.program,
                        limits=RecorderLimits(hot_threshold=10)).run().trace_set

    tea = benchmark(lambda: build_tea(trace_set))
    assert tea.n_states == 1 + trace_set.n_tbbs
