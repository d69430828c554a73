"""record / replay / info CLI tests."""

import json

import pytest

from repro.tools.__main__ import main
from tests.conftest import SIMPLE_LOOP_SOURCE


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "program.s"
    path.write_text(SIMPLE_LOOP_SOURCE)
    return str(path)


@pytest.fixture
def trace_file(tmp_path, source_file, capsys):
    path = tmp_path / "traces.json"
    code = main(["record", "--source", source_file, "--threshold", "10",
                 "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    return str(path)


def test_record_benchmark(tmp_path, capsys):
    out = tmp_path / "t.json"
    code = main(["record", "--benchmark", "181.mcf", "--scale", "0.3",
                 "--threshold", "10", "--out", str(out)])
    assert code == 0
    assert out.exists()
    output = capsys.readouterr().out
    assert "recorded" in output and "savings" in output


def test_record_source_file(source_file, tmp_path, capsys):
    out = tmp_path / "t.json"
    code = main(["record", "--source", source_file, "--threshold", "10",
                 "--out", str(out)])
    assert code == 0
    assert "MRET traces" in capsys.readouterr().out


def test_record_other_strategy(source_file, tmp_path, capsys):
    out = tmp_path / "t.json"
    code = main(["record", "--source", source_file, "--strategy", "tt",
                 "--threshold", "10", "--out", str(out)])
    assert code == 0
    assert "TT traces" in capsys.readouterr().out


def test_replay_round_trip(source_file, trace_file, capsys):
    code = main(["replay", "--source", source_file, "--traces", trace_file])
    assert code == 0
    output = capsys.readouterr().out
    assert "replay coverage" in output
    assert "Global / Local" in output


def test_replay_runs_the_interpreter_once(source_file, trace_file, capsys,
                                          monkeypatch):
    """The replay and its native baseline share one recorded stream."""
    from repro.cpu.executor import Executor

    runs = []
    original = Executor.run

    def counted(self, on_event=None):
        runs.append(self.program)
        return original(self, on_event)

    monkeypatch.setattr(Executor, "run", counted)
    assert main(["replay", "--source", source_file,
                 "--traces", trace_file]) == 0
    assert "x native" in capsys.readouterr().out
    assert len(runs) == 1


def test_replay_with_profile(source_file, trace_file, capsys):
    code = main(["replay", "--source", source_file, "--traces", trace_file,
                 "--profile", "--top", "3"])
    assert code == 0
    output = capsys.readouterr().out
    assert "hottest trace blocks" in output
    assert "$$T" in output


def test_replay_alternate_config(source_file, trace_file, capsys):
    code = main(["replay", "--source", source_file, "--traces", trace_file,
                 "--config", "no_global_local"])
    assert code == 0
    assert "No Global / Local" in capsys.readouterr().out


def test_replay_link_traces(source_file, trace_file, capsys):
    code = main(["replay", "--source", source_file, "--traces", trace_file,
                 "--link-traces"])
    assert code == 0


def test_info(trace_file, capsys):
    code = main(["info", "--traces", trace_file])
    assert code == 0
    output = capsys.readouterr().out
    assert "format v1" in output
    assert "T1" in output


def test_missing_trace_file_is_clean_error(source_file, tmp_path, capsys):
    code = main(["replay", "--source", source_file,
                 "--traces", str(tmp_path / "missing.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_source_is_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.s"
    bad.write_text("main:\n    warp 9")
    out = tmp_path / "t.json"
    code = main(["record", "--source", str(bad), "--out", str(out)])
    assert code == 1
    assert "unknown opcode" in capsys.readouterr().err


def test_metrics_json_to_stdout(source_file, trace_file, capsys):
    code = main(["metrics", "--source", source_file, "--traces", trace_file])
    assert code == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert snapshot["version"] == 1
    counters = snapshot["metrics"]["counters"]
    assert counters["replay.blocks"] == counters["pin.blocks"]
    assert snapshot["metrics"]["gauges"]["replay.config"] == "Global / Local"
    assert snapshot["cost"]["cycles"] > 0


def test_metrics_records_in_process_when_no_traces(source_file, capsys):
    code = main(["metrics", "--source", source_file, "--threshold", "10",
                 "--format", "text"])
    assert code == 0
    output = capsys.readouterr().out
    assert "replay.blocks" in output
    assert "trace ring" in output


def test_metrics_batched_writes_file(source_file, trace_file, tmp_path,
                                     capsys):
    out = tmp_path / "metrics.json"
    code = main(["metrics", "--source", source_file, "--traces", trace_file,
                 "--batch", "32", "--events", "16", "--out", str(out)])
    assert code == 0
    assert "metrics written" in capsys.readouterr().out
    snapshot = json.loads(out.read_text())
    batches = [event for event in snapshot["trace"]["events"]
               if event["category"] == "replay.batch"]
    assert batches, "batched replay should emit replay.batch events"


def test_tea_info_json_document(source_file, tmp_path, capsys):
    from repro.cfg.basic_block import BlockIndex
    from repro.core.serialization import save_tea
    from repro.isa import assemble
    from repro.traces import load_trace_set

    program = assemble(open(source_file).read())
    out = tmp_path / "t.json"
    assert main(["record", "--source", source_file, "--threshold", "10",
                 "--out", str(out)]) == 0
    trace_set = load_trace_set(str(out), BlockIndex(program))
    tea_path = tmp_path / "tea.json"
    save_tea(str(tea_path), trace_set)
    capsys.readouterr()

    code = main(["tea", "info", str(tea_path)])
    assert code == 0
    output = capsys.readouterr().out
    assert "json format v1" in output
    assert "profile: absent" in output
    assert "on disk:" in output


def test_tea_info_binary_snapshot(source_file, tmp_path, capsys):
    from repro.cfg.basic_block import BlockIndex
    from repro.isa import assemble
    from repro.store import save_tea_binary
    from repro.traces import load_trace_set

    program = assemble(open(source_file).read())
    out = tmp_path / "t.json"
    assert main(["record", "--source", source_file, "--threshold", "10",
                 "--out", str(out)]) == 0
    trace_set = load_trace_set(str(out), BlockIndex(program))
    snap_path = tmp_path / "snap.teab"
    save_tea_binary(str(snap_path), trace_set, meta={"label": "cli"})
    capsys.readouterr()

    code = main(["tea", "info", str(snap_path)])
    assert code == 0
    output = capsys.readouterr().out
    assert "binary format v2" in output
    assert "states" in output and "heads" in output
    assert '"label": "cli"' in output


def test_tea_info_missing_file_is_clean_error(tmp_path, capsys):
    code = main(["tea", "info", str(tmp_path / "missing.teab")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_tea_info_garbage_is_clean_error(tmp_path, capsys):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"\x00\x01 not a snapshot")
    code = main(["tea", "info", str(path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------
# tea info on a tree recording / store gc
# ---------------------------------------------------------------------


@pytest.fixture
def nested_source_file(tmp_path):
    from tests.conftest import NESTED_DIAMOND_SOURCE

    path = tmp_path / "nested.s"
    path.write_text(NESTED_DIAMOND_SOURCE)
    return str(path)


@pytest.fixture
def teab_file(tmp_path, nested_source_file):
    """A TEAB snapshot of a tree-strategy recording."""
    from tests.conftest import record_traces
    from repro.core import build_tea
    from repro.isa import assemble
    from repro.store import dump_tea_binary

    program = assemble(open(nested_source_file).read())
    trace_set = record_traces(program, strategy="tt").trace_set
    path = tmp_path / "nested.teab"
    path.write_bytes(dump_tea_binary(trace_set, tea=build_tea(trace_set),
                                     meta={"label": "nested"}))
    return str(path)


def test_tea_info_json_format(teab_file, capsys):
    code = main(["tea", "info", teab_file, "--format", "json"])
    assert code == 0
    info = json.loads(capsys.readouterr().out)
    assert info["file"] == teab_file
    assert info["states"] > 0
    assert info["meta"]["label"] == "nested"


def test_tea_info_text_reports_shape(teab_file, capsys):
    code = main(["tea", "info", teab_file])
    assert code == 0
    output = capsys.readouterr().out
    assert "automaton: " in output
    assert "shape:" not in output


def test_store_gc_cli(tmp_path, capsys):
    from tests.conftest import NESTED_DIAMOND_SOURCE, record_traces
    from repro.core import build_tea
    from repro.isa import assemble
    from repro.store import AutomatonStore

    program = assemble(NESTED_DIAMOND_SOURCE)
    trace_set = record_traces(program).trace_set
    store_dir = tmp_path / "store"
    store = AutomatonStore(store_dir)
    tea = build_tea(trace_set)
    old = store.put(trace_set, tea=tea, meta={"label": "x"})
    new = store.put(trace_set, tea=tea,
                    meta={"label": "x", "supersedes": old})

    code = main(["store", "gc", "--dir", str(store_dir)])
    assert code == 0
    output = capsys.readouterr().out
    assert "1 snapshots, removed 1 superseded snapshot(s)" in output
    assert store.keys() == [new]
    capsys.readouterr()
    assert main(["store", "gc", "--dir", str(store_dir)]) == 0
    assert "removed 0" in capsys.readouterr().out
