"""A stream's packed batches against flat-array wrapping.

Under :class:`~repro.pin.pin.Pin` a packed-batch tool receives the
:class:`~repro.core.compiled.PackedBatch` objects its stream built once
(the ``batches`` of the stream's :class:`~repro.pin.pin.ChargeTape`);
any other flat int sequence is wrapped by ``PackedBatch``'s constructor.
Both must replay identically, bit for bit, on every Table 4
configuration and batch size, across merged splits, over budget and on
an NTE-heavy program.  Also pins what a stream keeps (one tape, one
object per distinct PC) and that a retired snapshot's stream is freed
by reference counting alone.
"""

import gc
import operator
import sys
import threading
import weakref
from array import array

import pytest

from repro.core import PackedBatch
from repro.cpu.stream import ExecutionStream
from repro.errors import InstructionLimitExceeded
from repro.pin import Pin, TeaReplayTool
from repro.service.testing import ServiceThread, ephemeral_config
from repro.store import AutomatonStore

from tests.test_execution_stream import CONFIGS, tape_workload
from tests.test_service_streams import build

#: Merged splits, a run over its budget, and an NTE-heavy program.
STREAMS = ("splits", "164.gzip@0.15/limited", "176.gcc@0.25")
BATCHES = (1, 7, 1000, 4096)


class FlatTool(TeaReplayTool):
    """Replays a fresh ``array('q')`` copy of each batch it receives,
    wrapped by the ``PackedBatch`` constructor."""

    def on_packed(self, batch):
        super().on_packed(PackedBatch(array("q", batch.triples)))


class KeepingTool(TeaReplayTool):
    """Keeps every batch it receives."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.received = []

    def on_packed(self, batch):
        self.received.append(batch)
        super().on_packed(batch)


def fresh(stream):
    """A copy of ``stream`` with nothing cached on it yet."""
    return ExecutionStream.from_buffer(stream.to_bytes())


def replay(name, stream, config="global_local", batch=None, tool=TeaReplayTool):
    """Everything a served reply and the directory report, plus whether
    the run raised the budget error."""
    program, _stream, traces, budget = tape_workload(name)
    tool = tool(trace_set=traces, config=CONFIGS[config](),
                batch_size=batch)
    pin = Pin(program, tool=tool, max_instructions=budget, stream=stream)
    raised = False
    try:
        pin.run()
    except InstructionLimitExceeded:
        raised = True
    directory = tool.replayer.directory
    return (tool.stats.as_dict(), repr(pin.cost.cycles),
            list(pin.cost.breakdown.items()), tool.replayer.sid,
            directory.probes, directory.units, raised)


@pytest.mark.parametrize("name", STREAMS)
@pytest.mark.parametrize("batch", BATCHES, ids=lambda batch: "batch=%d" % batch)
@pytest.mark.parametrize("config", CONFIGS)
def test_stream_batches_match_flat_wrapping(name, batch, config):
    _program, stream, _traces, _budget = tape_workload(name)
    stream = fresh(stream)
    want = replay(name, stream, config, batch, tool=FlatTool)
    assert replay(name, stream, config, batch) == want       # warm batches
    assert replay(name, fresh(stream), config, batch) == want  # built first
    assert want[-1] == name.endswith("/limited")


def test_threads_share_one_streams_batches():
    name = "176.gcc@0.25"
    _program, stream, _traces, _budget = tape_workload(name)
    want = replay(name, fresh(stream), batch=100, tool=FlatTool)
    stream = fresh(stream)
    start = threading.Barrier(8)
    seen = []

    def run():
        start.wait()
        seen.append(replay(name, stream, batch=100))

    threads = [threading.Thread(target=run) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [want] * 8
    assert sum(map(len, stream._tape[1].batches)) == stream.n_transitions


def kept_batches(name, stream, batch):
    program, _stream, traces, budget = tape_workload(name)
    tool = KeepingTool(trace_set=traces, batch_size=batch)
    Pin(program, tool=tool, max_instructions=budget, stream=stream).run()
    return tool.received


def test_stream_holds_one_batch_view_per_batch_size():
    name = "176.gcc@0.25"
    stream = fresh(tape_workload(name)[1])
    first = kept_batches(name, stream, 1000)
    tape = stream._tape[1]
    assert tape.batches == first
    again = kept_batches(name, stream, 1000)
    assert all(map(operator.is_, again, first))   # served, not rebuilt
    assert stream._tape[1] is tape
    other = kept_batches(name, stream, 7)
    assert stream._tape[1] is not tape           # a new key replaces it
    assert stream._tape[1].batches == other
    assert not any(map(operator.is_, kept_batches(name, stream, 1000), first))
    for batches, size in ((first, 1000), (other, 7)):
        assert [len(batch) for batch in batches[:-1]] \
            == [size] * (len(batches) - 1)
        lo = 0
        for batch in batches:
            hi = lo + 3 * len(batch)
            assert list(batch.triples) == list(stream.transitions[lo:hi])
            assert batch.pcs == list(stream.transitions[lo:hi:3])
            assert batch.instrs_dbt == sum(stream.transitions[lo + 1:hi:3])
            assert batch.instrs_pin == sum(stream.transitions[lo + 2:hi:3])
            lo = hi
        assert lo == 3 * stream.n_transitions


def test_batch_pcs_hold_one_object_per_distinct_pc():
    name = "176.gcc@0.25"
    stream = fresh(tape_workload(name)[1])
    pcs = [pc for batch in kept_batches(name, stream, 1000)
           for pc in batch.pcs]
    assert len(pcs) == stream.n_transitions
    assert len(set(pcs)) < len(pcs) // 10
    assert len({id(pc) for pc in pcs}) == len(set(pcs))
    wrapped = PackedBatch(array("q", stream.transitions)).pcs
    assert len({id(pc) for pc in wrapped}) == len(set(pcs))


def test_retired_snapshots_free_their_streams(tmp_path, capsys):
    """Rebuild one label and reload: once a retired snapshot's entry
    drains, its stream (and so its batches) is gone, without the cycle
    collector."""
    store_dir = tmp_path / "store"
    build(store_dir, scale=0.2, label="ingest", capsys=capsys)
    refs = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        with ServiceThread(AutomatonStore(store_dir),
                           config=ephemeral_config()) as service:
            with service.client() as client:
                for scale in (0.21, 0.22, 0.23):
                    served = client.call("replay", snapshot="ingest",
                                         config="global_local")
                    entry = service.service.entries[served["snapshot"]]
                    refs.append(weakref.ref(entry.stream.get()))
                    del entry
                    build(store_dir, scale=scale, label="ingest",
                          capsys=capsys)
                    assert client.call("reload")["retired"] \
                        == [served["snapshot"]]
                assert [ref() is None for ref in refs] == [True] * 3
    finally:
        if collecting:
            gc.enable()
