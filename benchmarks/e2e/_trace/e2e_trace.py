"""Span tracer for the end-to-end benchmark's per-layer run.

:func:`install` wraps the public entry points listed in
:data:`TARGETS`.  It replaces the class attribute for methods and, for
module-level functions, the binding in every module that already
imported the function.  Each call then records one span:
``(name, tag, start, end, self_seconds)``.  Self time is the span's
duration minus the time covered by spans nested in it on the same
thread.  Times come from ``time.monotonic``, which on Linux is one clock
for every process, so spans from servers, workers and the load
generator can be placed in the same measured window.

``Executor.run`` drives a per-event callback that belongs to its
caller: MiniPin's dispatch, block builder and pintool, or StarDBT's
recorder.  The wrapper times that callback, keeps only the interpreter
itself in the ``cpu.run`` self time, and credits the callback's time
(minus the engine spans inside it) to the calling span.

Spans stay in memory.  :func:`dump` writes them to
``<directory>/<pid>.jsonl`` and runs at interpreter exit, so a process
stopped with SIGKILL leaves no spans.
"""

import atexit
import functools
import importlib
import json
import os
import sys
import threading
import time

#: ``(module, attribute, span name, tag argument index)`` for every
#: wrapped entry point.  The tag is one positional argument recorded
#: with the span: the RPC method for client calls.
TARGETS = (
    ("repro.cpu.executor", "Executor.run", "cpu.run", None),
    ("repro.pin.pin", "Pin.run", "pin.run", None),
    ("repro.pin.pin", "run_native", "pin.native", None),
    ("repro.core.compiled", "CompiledReplayer.run", "core.engine", None),
    ("repro.core.jit", "JitReplayer.run", "core.engine", None),
    ("repro.core.replay", "TeaReplayer.run", "core.engine", None),
    ("repro.core.builder", "build_tea", "core.build", None),
    ("repro.dbt.stardbt", "StarDBT.run", "dbt.run", None),
    ("repro.store.store", "AutomatonStore.put", "store.put", None),
    ("repro.store.store", "AutomatonStore.gc", "store.gc", None),
    ("repro.verify.api", "verify_snapshot_bytes", "verify.snapshot", None),
    ("repro.workloads.spec", "load_benchmark", "workloads.load", None),
    ("repro.service.server", "load_entry", "service.load", None),
    ("repro.service.protocol", "encode_frame", "service.encode", None),
    ("repro.service.client", "ServiceClient.call", "client.call", 1),
)

_clock = time.monotonic
_spans = []
_local = threading.local()
_directory = []


def _frames():
    """This thread's stack of open spans; each frame holds the seconds
    its nested spans took."""
    frames = getattr(_local, "frames", None)
    if frames is None:
        frames = _local.frames = []
    return frames


def _span(func, name, tag_index):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        frames = _frames()
        frame = [0.0]
        frames.append(frame)
        start = _clock()
        try:
            return func(*args, **kwargs)
        finally:
            end = _clock()
            frames.pop()
            duration = end - start
            tag = args[tag_index] if tag_index is not None else None
            _spans.append((name, tag, start, end, duration - frame[0]))
            if frames:
                frames[-1][0] += duration

    return traced


def _timed_call(deliver, total, event):
    begin = _clock()
    deliver(event)
    total[0] += _clock() - begin


def _executor_span(func):
    @functools.wraps(func)
    def traced(self, on_event=None):
        frames = _frames()
        frame = [0.0]
        frames.append(frame)
        in_callback = [0.0]
        if on_event is not None:
            on_event = functools.partial(_timed_call, on_event, in_callback)
        start = _clock()
        try:
            return func(self, on_event)
        finally:
            end = _clock()
            frames.pop()
            duration = end - start
            caller_self = in_callback[0] - frame[0]
            _spans.append(("cpu.run", None, start, end,
                           duration - in_callback[0]))
            if frames:
                frames[-1][0] += duration - caller_self

    return traced


def install(directory):
    """Wrap every target in this process; spans go to ``directory``.

    A second call only redirects later dumps to the new directory.
    """
    if _directory:
        _directory[0] = directory
        return
    _directory.append(directory)
    replaced = {}
    for module_name, attribute, name, tag_index in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, member = attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, member)
        if name == "cpu.run":
            wrapper = _executor_span(original)
        else:
            wrapper = _span(original, name, tag_index)
        setattr(owner, member, wrapper)
        if not owner_name:
            replaced[id(original)] = (original, wrapper)
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for key, value in list(namespace.items()):
            found = replaced.get(id(value))
            if found is not None and found[0] is value:
                namespace[key] = found[1]
    atexit.register(dump)


def dump():
    """Write this process's spans to ``<directory>/<pid>.jsonl``."""
    if not _directory or not os.path.isdir(_directory[0]):
        return
    path = os.path.join(_directory[0], "%d.jsonl" % os.getpid())
    with open(path, "w", encoding="utf-8") as handle:
        for span in list(_spans):
            handle.write(json.dumps(span))
            handle.write("\n")
