"""High-level verification entry points.

Everything here builds a :class:`~repro.verify.engine.Subject` with
whatever facets are available, runs one :class:`RuleEngine` pass, and
returns the :class:`~repro.verify.diagnostics.Report`.  The snapshot
helpers additionally *deep-decode*: when the TEAB bytes scan clean,
the decoded automaton (and, given a program image, the trace set) is
added to the same subject so the automaton/CFG/compiled families run
over the decoded content in the same report.

All ``repro`` imports outside the verify package are function-level:
these helpers are called from ``traces``, ``core``, ``store`` and
``service``, and must never create an import cycle.
"""

from __future__ import annotations

from repro.verify.engine import RuleEngine, Subject, all_rules


def default_engine(disabled=(), strict=False, obs=None):
    """A :class:`RuleEngine` over the full built-in catalog."""
    return RuleEngine(all_rules(), disabled=disabled, strict=strict, obs=obs)


def _engine(engine, obs):
    return engine if engine is not None else default_engine(obs=obs)


def verify_tea(tea, trace_set=None, program=None, compiled=None,
               source="<tea>", engine=None, obs=None):
    """Verify a built automaton (plus optional companion facets)."""
    subject = Subject(source=source, tea=tea, trace_set=trace_set,
                      program=program, compiled=compiled)
    return _engine(engine, obs).verify(subject)


def verify_trace_set(trace_set, program=None, source="<traces>",
                     engine=None, obs=None):
    """Verify a trace set (structure plus, given a program, CFG rules)."""
    subject = Subject(source=source, trace_set=trace_set, program=program)
    return _engine(engine, obs).verify(subject)


def verify_compiled(compiled, tea=None, source="<compiled>", engine=None,
                    obs=None):
    """Verify a compiled lowering (plus equivalence when ``tea`` given)."""
    subject = Subject(source=source, compiled=compiled, tea=tea)
    return _engine(engine, obs).verify(subject)


def verify_minimization(result, trace_set=None, program=None,
                        source="<minimize>", engine=None, obs=None):
    """Verify a :class:`~repro.minimize.MinimizationResult`.

    The minimized automaton is exposed as the ``tea`` facet too, so the
    whole automaton family (TEA001-TEA005) checks the quotient alongside
    the minimization-specific rules TEA051-TEA053.
    """
    subject = Subject(source=source, tea=result.tea, trace_set=trace_set,
                      program=program, minimization=result)
    return _engine(engine, obs).verify(subject)


def verify_diff_report(report, source="<diff>", engine=None, obs=None):
    """Verify a diff report (rule TEA054).

    ``report`` may be a :class:`~repro.compare.TeaDiff` or the dict its
    ``to_json()`` produces (e.g. straight off the service wire).
    """
    if hasattr(report, "to_json"):
        report = report.to_json()
    subject = Subject(source=source, tea_diff=report)
    return _engine(engine, obs).verify(subject)


def verify_snapshot_bytes(data, program=None, source="<snapshot>",
                          engine=None, obs=None, deep=True):
    """Verify TEAB snapshot bytes.

    The snapshot family always runs.  With ``deep=True`` (default) and
    structurally sound bytes, the snapshot is also lowered to a
    :class:`~repro.core.compiled.CompiledTea` — and, when ``program``
    is provided, fully decoded to a trace set + automaton — so the
    automaton, CFG and compiled families check the decoded content in
    the same report.  Deep runs also enable the v1<->v2 conversion
    round-trip rule (TEA026); shallow runs (the store's verify-on-load
    gate) skip it to stay O(section table) on v2 snapshots.
    """
    subject = Subject(source=source, snapshot=data)
    if deep:
        from repro.errors import SerializationError
        from repro.verify.rules_snapshot import scan_snapshot

        subject.snapshot_deep = True
        if scan_snapshot(data).sound():
            from repro.store.binary import compile_tea_binary

            try:
                subject.compiled = compile_tea_binary(data, verify=False)
            except (SerializationError, ValueError):
                pass   # the snapshot rules already report the cause
            if program is not None:
                from repro.cfg.basic_block import BlockIndex
                from repro.store.binary import load_tea_binary

                try:
                    trace_set, tea, profile = load_tea_binary(
                        data, BlockIndex(program)
                    )
                except SerializationError:
                    pass
                else:
                    subject.trace_set = trace_set
                    subject.tea = tea
                    subject.program = program
                    subject.profile = profile
    return _engine(engine, obs).verify(subject)


def verify_python_source(source, source_name="<python>", engine=None,
                         obs=None):
    """Run the concurrency lint family (TEA080-TEA082) over module text.

    ``source`` is Python source; ``source_name`` the display path.  The
    audit scheduler calls this for every file in the service stack
    (``repro.service``, ``repro.cluster``, ``repro.store.mapping``).
    """
    subject = Subject(source=source_name, python_source=source)
    return _engine(engine, obs).verify(subject)


def verify_stream_bytes(data, key=None, program_digest=None,
                        source="<stream>", engine=None, obs=None):
    """Verify ``TEAS`` execution-stream sidecar bytes (rule TEA027).

    ``key`` is the store key the sidecar is filed under and
    ``program_digest`` the content digest of the program it must have
    been recorded from; each is checked when given.
    """
    subject = Subject(source=source, stream=data, stream_key=key,
                      stream_digest=program_digest)
    return _engine(engine, obs).verify(subject)


def program_for_meta(meta):
    """Rebuild the program image a snapshot's meta names, or ``None``.

    Mirrors the replay service's convention: ``meta["benchmark"]`` is a
    :mod:`repro.workloads` benchmark name, ``meta["scale"]`` its scale.
    """
    benchmark = (meta or {}).get("benchmark")
    if not benchmark:
        return None
    from repro.workloads import load_benchmark

    scale = float(meta.get("scale", 1.0))
    return load_benchmark(benchmark, scale=scale).program


def verify_path(path, program=None, engine=None, obs=None, deep=True):
    """Verify a TEA artifact on disk (TEAB snapshot, ``TEAS`` stream
    sidecar, Python module, or JSON document).  ``.py`` files run the
    concurrency lint family.

    TEAB files may carry a benchmark name in their meta; when they do
    and no ``program`` is passed, the program image is rebuilt from it
    (the service convention) so the CFG family can run.  JSON TEA
    documents *require* ``program`` — the document stores only spans.

    Raises :class:`~repro.errors.SerializationError` when the file
    cannot be read or is a JSON document without a program — usage
    problems, distinct from verification findings.
    """
    import json

    from repro.errors import SerializationError

    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise SerializationError(
            "cannot read %s: %s" % (path, error)
        ) from None

    if str(path).endswith(".py"):
        return verify_python_source(
            data.decode("utf-8", errors="replace"),
            source_name=str(path), engine=engine, obs=obs,
        )

    if data[:4] == b"TEAS":
        import os

        name = os.path.basename(str(path))
        key = name[:-len(".teas")] if name.endswith(".teas") else None
        return verify_stream_bytes(
            data, key=key,
            program_digest=(program.content_digest() if program is not None
                            else None),
            source=str(path), engine=engine, obs=obs,
        )

    if data[:4] == b"TEAB":
        if program is None and deep:
            from repro.store.binary import peek_tea_binary

            try:
                program = program_for_meta(peek_tea_binary(data)["meta"])
            except Exception:
                # Unknown benchmark / unreadable meta: verify what we
                # can without a program image.
                program = None
        return verify_snapshot_bytes(
            data, program=program, source=str(path), engine=engine,
            obs=obs, deep=deep,
        )

    try:
        document = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SerializationError(
            "%s is neither a TEAB snapshot nor a JSON TEA document: %s"
            % (path, error)
        ) from None
    if program is None:
        raise SerializationError(
            "verifying the JSON document %s requires a program image "
            "(pass --benchmark or --source)" % path
        )
    from repro.cfg.basic_block import BlockIndex

    index = BlockIndex(program)
    if isinstance(document, dict) and isinstance(document.get("traces"), dict):
        # TEA document: the trace-set document nested under "traces".
        from repro.core.serialization import tea_from_json

        trace_set, tea, _profile = tea_from_json(document, index)
    else:
        # Plain trace-set document, as written by ``repro tools record``.
        from repro.core import build_tea
        from repro.traces.serialization import trace_set_from_json

        trace_set = trace_set_from_json(document, index)
        tea = build_tea(trace_set)
    return verify_tea(tea, trace_set=trace_set, program=program,
                      source=str(path), engine=engine, obs=obs)
