"""Each entry point imports only the code it runs.

Every process check runs in a fresh interpreter and reads its
``sys.modules``:

- ``import repro.service.server`` loads the replay stack and the verify
  rule catalog, and none of the recording stack (the JIT, Algorithm 2,
  the workloads, the assembler, StarDBT, the recorders, the CFG
  builders) nor the client or the test harness;
- a ``serve`` process loads nothing more while it preloads and replays;
- ``build`` loads neither asyncio nor the server, ``call`` only the
  client, and ``repro.tools verify`` no generator, StarDBT, recorder or
  harness module.

In process, every lazily exported name resolves, is listed by
``dir()``, and is the object its ``if TYPE_CHECKING:`` import names.
"""

import ast
import importlib
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.service.__main__ import main as service_main
from tests.conftest import GOLDEN_SNAPSHOT

SRC = Path(repro.__file__).resolve().parents[1]

#: The recording stack, the client and the test harness: none of it
#: runs in a serving process.
SERVER_NEVER = (
    "repro.core.jit", "repro.core.online", "repro.isa.assembler",
    "repro.dbt.stardbt", "repro.traces.mret", "repro.traces.mfet",
    "repro.traces.trace_tree", "repro.traces.compact_trace_tree",
    "repro.cfg.builder", "repro.cfg.cfg", "repro.cfg.loops",
    "repro.service.client", "repro.service.testing", "repro.workloads",
)

#: What ``repro.tools verify`` must not load.
VERIFY_NEVER = (
    "repro.workloads", "repro.dbt.stardbt", "repro.traces.mret",
    "repro.traces.mfet", "repro.traces.trace_tree",
    "repro.traces.compact_trace_tree", "repro.harness",
)

PRELUDE = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules
                  if m == "repro" or m.startswith("repro.")
                  or m == "asyncio")

def report(**fields):
    print(json.dumps(fields))
"""


def run_script(body, *args):
    """Run ``PRELUDE + body`` in a fresh interpreter; returns the JSON
    object its last stdout line holds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", PRELUDE + body] + [str(arg) for arg in args],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def offenders(modules, never):
    return sorted(m for m in modules
                  if any(m == n or m.startswith(n + ".") for n in never))


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    path = tmp_path_factory.mktemp("import-graph") / "store"
    assert service_main(["build", "--store", str(path), "--benchmark",
                         "171.swim", "--scale", "0.3"]) == 0
    return path


def test_server_import_loads_the_replay_stack_and_rule_catalog_only():
    modules = run_script("import repro.service.server\n"
                         "report(modules=loaded())")["modules"]
    assert offenders(modules, SERVER_NEVER) == []
    assert "repro.verify.rules_snapshot" in modules
    assert "repro.pin.tea_tool" in modules


def test_serve_process_imports_nothing_after_the_server_module(store,
                                                               tmp_path):
    body = """
import os, signal, socket, threading, time
import repro.service.server
from repro.service.protocol import read_frame_blocking, write_frame_blocking
at_import = loaded()
from repro.service.__main__ import main

store, port_file = sys.argv[1:3]
replies = []

def drive():
    port = ""
    while not port:
        time.sleep(0.01)
        if os.path.exists(port_file):
            with open(port_file) as handle:
                port = handle.read()
    with socket.create_connection(("127.0.0.1", int(port))) as sock:
        write_frame_blocking(sock, {"id": 1, "method": "replay",
                                    "params": {"config": "global_local"}})
        replies.append(read_frame_blocking(sock))
    os.kill(os.getpid(), signal.SIGTERM)

threading.Thread(target=drive, daemon=True).start()
status = main(["serve", "--store", store, "--port", "0",
               "--port-file", port_file, "--workers", "1"])
report(status=status, replies=replies, at_import=at_import, after=loaded())
"""
    out = run_script(body, store, tmp_path / "port")
    assert out["status"] == 0
    assert [reply.get("error") for reply in out["replies"]] == [None]
    assert offenders(out["after"], SERVER_NEVER) == []
    assert sorted(set(out["after"]) - set(out["at_import"])) == [
        "repro.service.__main__"]


def test_build_loads_neither_asyncio_nor_the_server(tmp_path):
    body = """
from repro.service.__main__ import main
status = main(["build", "--store", sys.argv[1], "--benchmark", "171.swim",
               "--scale", "0.1"])
report(status=status, modules=loaded())
"""
    out = run_script(body, tmp_path / "store")
    assert out["status"] == 0
    assert "asyncio" not in out["modules"]
    assert "repro.service.server" not in out["modules"]


def test_call_loads_only_the_client():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    client = run_script("import repro.service.client\n"
                        "report(modules=loaded())")["modules"]
    body = """
from repro.service.__main__ import main
status = main(["call", "--port", sys.argv[1], "--timeout", "5", "ping"])
report(status=status, modules=loaded())
"""
    out = run_script(body, port)
    assert out["status"] == 1  # nothing listens on the port
    assert offenders(out["modules"],
                     ("repro.service.server", "repro.workloads")) == []
    assert sorted(set(out["modules"]) - set(client)) == [
        "repro.service.__main__"]


def test_tools_verify_loads_no_generator_dbt_recorder_or_harness():
    body = """
from repro.tools.__main__ import main
status = main(["verify", "--strict", sys.argv[1]])
report(status=status, modules=loaded())
"""
    out = run_script(body, GOLDEN_SNAPSHOT)
    assert out["status"] == 0
    assert offenders(out["modules"], VERIFY_NEVER) == []


def lazy_packages():
    """Every package whose ``__init__`` exports through
    ``lazy_exports``."""
    names = []
    for init in sorted((SRC / "repro").rglob("__init__.py")):
        if "lazy_exports(" in init.read_text(encoding="utf-8"):
            parts = init.parent.relative_to(SRC).parts
            names.append(".".join(parts))
    return names


def static_exports(package):
    """``{name: module}`` of the package's ``if TYPE_CHECKING:`` block."""
    tree = ast.parse(Path(package.__file__).read_text(encoding="utf-8"))
    exports = {}
    for node in tree.body:
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            for statement in node.body:
                assert isinstance(statement, ast.ImportFrom)
                for alias in statement.names:
                    exports[alias.asname or alias.name] = statement.module
    return exports


def test_the_seven_package_inits_are_lazy():
    assert lazy_packages() == [
        "repro", "repro.cfg", "repro.core", "repro.dbt", "repro.isa",
        "repro.service", "repro.traces"]


@pytest.mark.parametrize("name", lazy_packages())
def test_every_lazy_export_resolves_and_matches_its_static_import(name):
    package = importlib.import_module(name)
    listed = dir(package)
    for export in package.__all__:
        assert export in listed, export
        getattr(package, export)
    exports = static_exports(package)
    assert set(exports) == set(package.__all__) - {"__version__"}
    for export, module in exports.items():
        assert getattr(package, export) is getattr(
            importlib.import_module(module), export), export
    with pytest.raises(AttributeError):
        getattr(package, "no_such_export")
