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
    whole automaton family (TEA003-TEA005) checks the quotient alongside
    the minimization-specific rules TEA052-TEA053.
    """
    subject = Subject(source=source, tea=result.tea, trace_set=trace_set,
                      program=program, minimization=result)
    return _engine(engine, obs).verify(subject)


def verify_snapshot_bytes(data, program=None, source="<snapshot>",
                          engine=None, obs=None, deep=True):
    """Verify TEAB snapshot bytes.

    The snapshot family always runs, over one scan of the bytes.  With
    ``deep=True`` (default) that scan also walks the blobs the
    snapshot embeds, and structurally sound bytes are lowered to a
    :class:`~repro.core.compiled.CompiledTea` — and, when ``program``
    is provided, fully decoded to a trace set + automaton — so the
    automaton, CFG and compiled families check the decoded content in
    the same report.  Traces that do not decode against ``program``
    (it is not the program they were recorded from) are a TEA010
    finding.  Shallow runs (the store's verify-on-load gate) stay
    O(section table).
    """
    subject = Subject(source=source, snapshot=data)
    if deep:
        from repro.errors import ReproError, SerializationError

        subject.snapshot_deep = True
        if subject.snapshot_scan.sound():
            from repro.store.binary import compile_tea_binary

            try:
                subject.compiled = compile_tea_binary(data, verify=False)
            except (SerializationError, ValueError):
                pass   # the snapshot rules already report the cause
            if program is not None:
                from repro.cfg.basic_block import BlockIndex
                from repro.store.binary import load_tea_binary

                subject.program = program
                try:
                    subject.trace_set, subject.tea, _profile = \
                        load_tea_binary(data, BlockIndex(program))
                except ReproError as error:
                    subject.program_mismatch = str(error)
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


def verify_image_bytes(data, key=None, source="<image>", engine=None,
                       obs=None):
    """Verify ``TEAP`` program-image bytes (rule TEA027).

    ``key`` is the key of the snapshot the image is filed under; the
    image's header must name it when given.
    """
    subject = Subject(source=source, stream=data, stream_key=key)
    return _engine(engine, obs).verify(subject)


def _sibling_program(path, data):
    """The program decoded from the image beside snapshot file
    ``path`` (whose bytes are ``data``), or ``None`` when it has no
    sound image."""
    from repro.errors import SerializationError
    from repro.isa.image import decode_image
    from repro.store.store import image_path_for, read_image, snapshot_key

    image = read_image(image_path_for(path))
    if image is None:
        return None
    try:
        return decode_image(image, owner=snapshot_key(data))
    except SerializationError:
        return None


def verify_path(path, program=None, engine=None, obs=None, deep=True):
    """Verify a TEA artifact on disk (TEAB snapshot, ``TEAS`` stream
    sidecar, ``TEAP`` program image, or JSON document).

    A TEAB file verified deeply without ``program`` uses the program
    image stored beside it (``<key>.teap``) when that image is sound,
    so the CFG family can run; without one it is verified without a
    program (the image's own damage is TEA027's, on the image file).
    JSON TEA documents *require* ``program`` — the document stores
    only spans.

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

    import os

    name, suffix = os.path.splitext(os.path.basename(str(path)))
    if data[:4] == b"TEAS":
        return verify_stream_bytes(
            data, key=name if suffix == ".teas" else None,
            program_digest=(program.content_digest() if program is not None
                            else None),
            source=str(path), engine=engine, obs=obs,
        )

    if data[:4] == b"TEAP":
        return verify_image_bytes(
            data, key=name if suffix == ".teap" else None,
            source=str(path), engine=engine, obs=obs,
        )

    if data[:4] == b"TEAB":
        if program is None and deep:
            program = _sibling_program(path, data)
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
        from repro.core.builder import build_tea
        from repro.traces.serialization import trace_set_from_json

        trace_set = trace_set_from_json(document, index)
        tea = build_tea(trace_set)
    return verify_tea(tea, trace_set=trace_set, program=program,
                      source=str(path), engine=engine, obs=obs)
