"""Recorded execution streams: execute once, replay many.

The interpreter is deterministic, so one run of a program can stand in
for every engine (see ``docs/architecture.md``).  An
:class:`ExecutionStream` is that run: the lanes one
:meth:`Executor.run <repro.cpu.executor.Executor.run>` writes as it
executes, keyed by ``(program digest, max_instructions)``.  The lanes
are the contract between the interpreter and the engines: MiniPin,
StarDBT and its trace recorders, and ``run_native`` read them directly,
and the interpreter runs only when no stream was handed to them.

The stream is stored as compact lanes, one row per StarDBT-flavour
block transition (the ``cpuid``/REP split events a StarDBT-flavour
builder merges are kept apart, in a sparse side table):

``transitions`` (int64 triples)
    ``(next_start, instrs_dbt, instrs_pin)`` exactly as
    :func:`~repro.pin.packed.pack_transitions` packs them, terminal
    ``next_start`` = :data:`~repro.cpu.events.END_OF_RUN`; packed-batch
    replayers take zero-copy slices of this lane.
``flags`` (uint8)
    the flag byte (:mod:`repro.cpu.events`): the ending event's kind
    (:data:`~repro.cpu.events.KINDS` index), taken bit, indirect bit,
    whether Pin sees its PC for the first time (the one-time
    translation charge), whether split events were merged into the
    block, and the terminal marker.
``splits`` (int64 rows of four)
    one row per split event: ``(transition, instrs_dbt, instrs_pin,
    first_seen)`` where ``transition`` is the index of the block the
    split was merged into.

Nothing else is stored: a block's end and its splitters are static
(:meth:`BlockIndex.block_from <repro.cfg.basic_block.BlockIndex.block_from>`
walks from the block start to the first control transfer), so the
ending event's PC, its kind and the splitters' PCs follow from the
program; the lanes keep only what the run decided.

Run totals (instruction counts under both countings, event count,
halted/exceeded, first-seen and indirect event counts) sit in the
header and always equal the lane sums.  A run that exceeded its
budget is recorded up to and including the event that crossed it;
consumers replay that prefix and raise the same
:class:`~repro.errors.InstructionLimitExceeded`.

:meth:`ExecutionStream.to_bytes` / :meth:`ExecutionStream.from_buffer`
give the ``TEAS`` sidecar format the :class:`~repro.store.AutomatonStore`
keeps next to snapshots (``docs/architecture.md`` has the layout);
``from_buffer`` over an ``mmap`` is zero-copy.
"""

import hashlib
import struct
import sys
import zlib
from array import array

from repro.cpu.events import (
    FLAG_FINAL,
    FLAG_FIRST,
    FLAG_INDIRECT,
    FLAG_SPLITS,
    FLAG_TAKEN,
    KIND_MASK,
    KINDS,
    EdgeEvent,
)
from repro.cpu.executor import DEFAULT_MAX_INSTRUCTIONS, Executor
from repro.errors import InstructionLimitExceeded, SerializationError

#: Ints per row of the ``splits`` lane.
SPLIT_FIELDS = 4

STREAM_MAGIC = b"TEAS"
STREAM_VERSION = 1
#: File extension of stream sidecars in an automaton store.
STREAM_SUFFIX = ".teas"

_HALTED = 0x1
_EXCEEDED = 0x2

#: magic, version, flags, program digest, max_instructions,
#: instrs_dbt, instrs_pin, edges, translated, indirects,
#: n_transitions, n_splits, crc32, reserved.
_HEADER = struct.Struct("<4sHH32s8qII")
HEADER_SIZE = _HEADER.size
#: Offset of the CRC field; the CRC covers every other byte of the file.
_CRC_OFFSET = HEADER_SIZE - 8


def matching(stream, program, max_instructions):
    """``stream`` (possibly ``None``) after checking it was recorded
    from ``program`` (by content digest) with ``max_instructions``;
    raises ``ValueError`` otherwise."""
    if stream is None:
        return None
    if stream.program_digest != program.content_digest():
        raise ValueError(
            "stream was recorded from program %s, not %s"
            % (stream.program_digest, program.content_digest()))
    if stream.max_instructions != max_instructions:
        raise ValueError(
            "stream was recorded with max_instructions=%d, not %d"
            % (stream.max_instructions, max_instructions))
    return stream


def stream_key(program_digest, max_instructions):
    """The store key of the stream of ``(program_digest, budget)``."""
    payload = "TEAS\x00%s\x00%d" % (program_digest, max_instructions)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def lane_layout(n_transitions, n_splits):
    """``({lane: (offset, length)}, file size)`` of a sidecar."""
    layout = {}
    offset = HEADER_SIZE
    for lane, length in (("transitions", 24 * n_transitions),
                         ("splits", 8 * SPLIT_FIELDS * n_splits),
                         ("flags", n_transitions)):
        layout[lane] = (offset, length)
        offset += length
    return layout, offset + (-offset % 8)


def _flag_table(mask):
    """``bytes.translate`` table: a flags byte -> 1 when it has any bit
    of ``mask``, else 0."""
    return bytes(1 if code & mask else 0 for code in range(256))


def count_flags(flags, mask):
    """How many entries of a ``flags`` lane have any bit of ``mask``."""
    return bytes(flags).translate(_flag_table(mask)).count(1)


def _int64_lane(view):
    if sys.byteorder == "little":
        return view.cast("q")
    swapped = array("q")
    swapped.frombytes(view)
    swapped.byteswap()
    return memoryview(swapped)


def _le_bytes(lane):
    if sys.byteorder == "little":
        return lane.tobytes()
    swapped = array("q", lane)
    swapped.byteswap()
    return swapped.tobytes()


class StreamHeader:
    """The decoded fixed header of a ``TEAS`` sidecar."""

    __slots__ = ("version", "halted", "exceeded", "program_digest",
                 "max_instructions", "instrs_dbt", "instrs_pin", "edges",
                 "translated", "indirects", "n_transitions", "n_splits",
                 "crc")

    @classmethod
    def parse(cls, data, size=None):
        """Decode the header; raises :class:`SerializationError` when
        ``data`` is not a ``TEAS`` envelope of a known version.

        ``size`` is the whole sidecar's length (default ``len(data)``),
        which must equal the length the header declares; pass it to
        read a header without reading the lanes.
        """
        if len(data) < HEADER_SIZE:
            raise SerializationError(
                "stream sidecar is %d bytes, shorter than its %d-byte "
                "header" % (len(data), HEADER_SIZE))
        fields = _HEADER.unpack_from(data, 0)
        if fields[0] != STREAM_MAGIC:
            raise SerializationError("not a stream sidecar (magic %r)"
                                     % (fields[0],))
        header = cls()
        header.version = fields[1]
        if header.version != STREAM_VERSION:
            raise SerializationError(
                "unknown stream sidecar version %d (know %d)"
                % (header.version, STREAM_VERSION))
        header.halted = bool(fields[2] & _HALTED)
        header.exceeded = bool(fields[2] & _EXCEEDED)
        header.program_digest = fields[3].hex()
        (header.max_instructions, header.instrs_dbt, header.instrs_pin,
         header.edges, header.translated, header.indirects,
         header.n_transitions, header.n_splits) = fields[4:12]
        header.crc = fields[12]
        if header.n_transitions < 0 or header.n_splits < 0:
            raise SerializationError("stream sidecar has negative lane "
                                     "lengths")
        _layout, expected = lane_layout(header.n_transitions,
                                        header.n_splits)
        size = len(data) if size is None else size
        if size != expected:
            raise SerializationError(
                "stream sidecar is %d bytes; its header declares %d"
                % (size, expected))
        return header


def stream_crc(data):
    """CRC-32 of a sidecar, over every byte except the CRC field."""
    view = memoryview(data)
    return zlib.crc32(view[HEADER_SIZE - 4:],
                      zlib.crc32(view[:_CRC_OFFSET])) & 0xFFFFFFFF


class ExecutionStream:
    """One recorded run of a program (see the module docstring).

    Build one with :meth:`record` or :meth:`from_buffer`; streams are
    immutable and safe to share across threads.
    """

    __slots__ = ("program_digest", "max_instructions", "instrs_dbt",
                 "instrs_pin", "edges", "halted", "exceeded",
                 "translated", "indirects", "transitions", "flags",
                 "splits", "_split_rows", "_tape", "__weakref__")

    def __init__(self, program_digest, max_instructions, totals, lanes):
        self.program_digest = program_digest
        self.max_instructions = max_instructions
        (self.instrs_dbt, self.instrs_pin, self.edges, self.halted,
         self.exceeded, self.translated, self.indirects) = totals
        self.transitions, self.flags, self.splits = lanes
        self._split_rows = None
        self._tape = None

    # ------------------------------------------------------------------
    # recording

    @classmethod
    def record(cls, program, max_instructions=DEFAULT_MAX_INSTRUCTIONS,
               obs=None):
        """Run ``program`` once on a fresh machine and keep its lanes.

        ``obs`` receives the executor's ``exec.*`` counters; one call is
        one interpreter run.  A run that exceeds ``max_instructions`` is
        recorded, not raised: consumers raise when they replay it.
        """
        executor = Executor(program, max_instructions=max_instructions,
                            obs=obs)
        try:
            executor.run()
        except InstructionLimitExceeded:
            pass
        result = executor.result
        totals = (result.instrs_dbt, result.instrs_pin, result.edges,
                  result.halted, not result.halted, result.translated,
                  count_flags(result.flags, FLAG_INDIRECT))
        return cls(program.content_digest(), max_instructions, totals,
                   (memoryview(result.transitions), memoryview(result.flags),
                    memoryview(result.splits)))

    # ------------------------------------------------------------------
    # sidecar codec

    @property
    def key(self):
        """The store key: :func:`stream_key` of digest and budget."""
        return stream_key(self.program_digest, self.max_instructions)

    @property
    def n_transitions(self):
        return len(self.flags)

    @property
    def n_splits(self):
        return len(self.splits) // SPLIT_FIELDS

    def to_bytes(self):
        """The canonical ``TEAS`` sidecar bytes of this stream."""
        flags = ((_HALTED if self.halted else 0)
                 | (_EXCEEDED if self.exceeded else 0))
        n_transitions = self.n_transitions
        body = b"".join((
            _le_bytes(self.transitions), _le_bytes(self.splits),
            self.flags.tobytes(),
        ))
        body += bytes(-(HEADER_SIZE + len(body)) % 8)
        header = _HEADER.pack(
            STREAM_MAGIC, STREAM_VERSION, flags,
            bytes.fromhex(self.program_digest), self.max_instructions,
            self.instrs_dbt, self.instrs_pin, self.edges, self.translated,
            self.indirects, n_transitions, self.n_splits, 0, 0)
        data = bytearray(header + body)
        struct.pack_into("<I", data, _CRC_OFFSET, stream_crc(data))
        return bytes(data)

    @classmethod
    def from_buffer(cls, data):
        """A stream whose lanes view ``data`` (bytes or an ``mmap``).

        Checks the envelope only; run the TEA027 rule
        (:func:`repro.verify.verify_stream_bytes`) first to check the
        CRC, key and totals.
        """
        header = StreamHeader.parse(data)
        layout, _size = lane_layout(header.n_transitions, header.n_splits)
        view = memoryview(data)

        def lane(name):
            offset, length = layout[name]
            return view[offset:offset + length]

        totals = (header.instrs_dbt, header.instrs_pin, header.edges,
                  header.halted, header.exceeded, header.translated,
                  header.indirects)
        return cls(header.program_digest, header.max_instructions, totals,
                   (_int64_lane(lane("transitions")), lane("flags").cast("B"),
                    _int64_lane(lane("splits"))))

    # ------------------------------------------------------------------
    # consumers' views

    def split_rows(self, transition):
        """``(instrs_dbt, instrs_pin, first_seen)`` of every split event
        merged into ``transition``, in execution order
        (``transition == n_transitions`` gives the splits after the last
        block of a run that exceeded its budget)."""
        rows = self._split_rows
        if rows is None:
            rows = {}
            splits = self.splits
            for base in range(0, len(splits), SPLIT_FIELDS):
                rows.setdefault(splits[base], []).append(
                    tuple(splits[base + 1:base + SPLIT_FIELDS]))
            self._split_rows = rows
        return rows.get(transition, ())

    def charge_tape(self, key, build):
        """MiniPin's charge tape (:class:`repro.pin.pin.ChargeTape`) for
        ``key``: ``build()`` once, then the cached tape.  Besides Pin's
        charges it holds the packed batches a tool receives, so it is
        the stream's one per-batch cache.

        A stream holds one tape; a new ``key`` replaces the old one.
        Threads that race on a new key may each build; their tapes are
        equal, and the last one stays.
        """
        held = self._tape
        if held is None or held[0] != key:
            held = self._tape = (key, build())
        return held[1]

    def block_transitions(self, block_index, entry):
        """Yield the StarDBT-flavour
        :class:`~repro.cfg.builder.BlockTransition` sequence of the run,
        identical to what a ``DynamicBlockBuilder`` fed the live event
        stream produces (``entry`` is the program entry).  For oracles
        and the differential checker; the engines read the lanes."""
        from repro.cfg.builder import BlockTransition

        transitions = self.transitions
        block_from = block_index.block_from
        start = entry
        lanes = zip(transitions[0::3], transitions[1::3], transitions[2::3],
                    self.flags)
        for index, (next_start, instrs_dbt, instrs_pin, code) in \
                enumerate(lanes):
            block = block_from(start)
            if code & FLAG_FINAL:
                yield BlockTransition(block, None, None, instrs_dbt,
                                      instrs_pin)
                return
            event_dbt = instrs_dbt
            event_pin = instrs_pin
            if code & FLAG_SPLITS:
                for row in self.split_rows(index):
                    event_dbt -= row[0]
                    event_pin -= row[1]
            event = EdgeEvent(block.end, next_start, bool(code & FLAG_TAKEN),
                              KINDS[code & KIND_MASK], event_dbt, event_pin)
            yield BlockTransition(block, event, next_start, instrs_dbt,
                                  instrs_pin)
            start = next_start

    def limit_error(self):
        """The :class:`InstructionLimitExceeded` the live run raised."""
        return InstructionLimitExceeded(
            "exceeded %d instructions" % self.max_instructions)

    def __repr__(self):
        return "<ExecutionStream %s budget=%d blocks=%d events=%d%s>" % (
            self.program_digest[:12], self.max_instructions,
            self.n_transitions, self.edges,
            " exceeded" if self.exceeded else "")


def check_stream_bytes(data, key=None, program_digest=None):
    """Every problem with sidecar bytes, as a list of messages.

    Checks the envelope and version, the CRC, that ``key`` (the store
    key the file is filed under, when known) matches the header's
    program digest and budget, that ``program_digest`` (when known)
    matches, and that the header totals equal the lane sums.  An empty
    list means the sidecar is sound.  Backs verify rule TEA027.
    """
    try:
        header = StreamHeader.parse(data)
    except SerializationError as error:
        return [str(error)]
    problems = []
    crc = stream_crc(data)
    if crc != header.crc:
        problems.append("CRC mismatch: stored %08x, computed %08x"
                        % (header.crc, crc))
    if key is not None:
        want = stream_key(header.program_digest, header.max_instructions)
        if key != want:
            problems.append(
                "filed under key %s but its header (program %s, budget %d) "
                "gives %s" % (key[:12], header.program_digest[:12],
                              header.max_instructions, want[:12]))
    if program_digest is not None and program_digest != header.program_digest:
        problems.append("recorded from program %s, expected %s"
                        % (header.program_digest[:12], program_digest[:12]))
    if problems:
        return problems
    stream = ExecutionStream.from_buffer(data)
    transitions = stream.transitions
    splits = stream.splits
    flags = stream.flags
    trailing = (0, 0)
    if header.exceeded:
        trailing = tuple(
            sum(splits[base + offset]
                for base in range(0, len(splits), SPLIT_FIELDS)
                if splits[base] == header.n_transitions)
            for offset in (1, 2))
    n_final = count_flags(flags, FLAG_FINAL)
    sums = {
        "instrs_dbt": sum(transitions[1::3]) + trailing[0],
        "instrs_pin": sum(transitions[2::3]) + trailing[1],
        "edges": header.n_transitions - n_final + header.n_splits,
        "translated": (count_flags(flags, FLAG_FIRST)
                       + sum(1 for first in splits[3::SPLIT_FIELDS]
                             if first)),
        "indirects": count_flags(flags, FLAG_INDIRECT),
    }
    for name, total in sums.items():
        stored = getattr(header, name)
        if stored != total:
            problems.append("total %s is %d but the lanes sum to %d"
                            % (name, stored, total))
    want_final = 0 if header.exceeded else 1
    if n_final != want_final or (want_final and not flags[-1] & FLAG_FINAL):
        problems.append("%d terminal blocks, expected %d%s"
                        % (n_final, want_final,
                           "" if want_final == 0 else " (the last one)"))
    return problems
