"""TEAB snapshot rules (TEA020-TEA025).

The codec (:mod:`repro.store.binary`) already rejects the worst
corruption — bad magic, an unsupported version, CRC mismatch, a section
table that escapes the file — but it stops at the first problem, and it
*accepts* some damage silently: out-of-order profile keys, and overlong
varint encodings (``0x80 0x00`` for zero) in the embedded blobs that
break the content-addressing contract because two byte strings decode
to the same automaton.

This module re-checks the bytes with its own *collecting* scanner:
every finding becomes a diagnostic and nothing raises.  TEA020 covers
the header, TEA024 the section table (bounds, overlap, alignment,
required sections, count consistency, canonical ordering of the
zero-copy tables) and TEA025 the table and per-section CRCs.  A deep
scan (``verify_snapshot_bytes(deep=True)``) also walks the embedded
META, TRACES and PROFILE blobs — every varint read is re-encoded
canonically as it goes, so the decode -> re-encode byte-identity check
(TEA023) falls out of the walk for free — checks STATE_REFS against the
walked TBBs and re-derives SUMMARY and LABEL_POOL; the shallow scan of
the load-path gate stays O(section table).  A
:class:`~repro.verify.engine.Subject` scans its snapshot once, however
many rules read the result.
"""

import json

from repro.verify.engine import Rule, register


class _ScanError(Exception):
    """Internal: the payload cannot be scanned past this point."""


class _Scanner:
    """Bounded TEAB blob reader that re-encodes canonically as it goes.

    Mirrors :class:`repro.store.binary._Reader`, but every value read
    is appended (in canonical LEB128) to :attr:`canon`; after a full
    scan ``canon == data[start:end]`` iff the payload uses canonical
    encodings throughout.
    """

    __slots__ = ("data", "pos", "end", "canon")

    def __init__(self, data, start, end):
        self.data = data
        self.pos = start
        self.end = end
        self.canon = bytearray()

    def uvarint(self):
        from repro.store.binary import write_uvarint

        result = 0
        shift = 0
        data = self.data
        pos = self.pos
        end = self.end
        while True:
            if pos >= end:
                raise _ScanError("truncated varint")
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 70:
                raise _ScanError("oversized varint")
        self.pos = pos
        write_uvarint(self.canon, result)
        return result

    def svarint(self):
        from repro.store.binary import unzigzag

        return unzigzag(self.uvarint())

    def take(self, count):
        if self.pos + count > self.end:
            raise _ScanError("truncated section")
        chunk = self.data[self.pos:self.pos + count]
        self.pos += count
        self.canon += chunk
        return chunk

    def string(self):
        raw = self.take(self.uvarint())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise _ScanError("string is not valid UTF-8") from None

    def optional_uvarint(self):
        if self.uvarint() == 0:
            return None
        return self.uvarint()

    @property
    def exhausted(self):
        return self.pos >= self.end


class SnapshotScan:
    """Result of one collecting scan over snapshot bytes.

    ``envelope`` (the header), ``structure`` / ``order`` / ``roundtrip``
    (the varint blobs a deep scan walks) and ``sections`` / ``crc``
    (the section table and its checksums) are lists of ``(message,
    data_dict)`` findings, one list per rule family member.  An
    envelope failure aborts the scan (the other lists stay empty — the
    envelope finding is the root cause).
    """

    __slots__ = ("envelope", "structure", "order", "roundtrip",
                 "sections", "crc", "payload_scanned")

    def __init__(self):
        self.envelope = []
        self.structure = []
        self.order = []
        self.roundtrip = []
        self.sections = []
        self.crc = []
        self.payload_scanned = False

    def sound(self):
        """True when nothing blocks decoding the payload (ordering and
        canonical-encoding findings are tolerated by the decoders)."""
        return (self.payload_scanned and not self.envelope
                and not self.structure and not self.sections
                and not self.crc)


def _walk(data, start, end, what, scan, walk):
    """Run ``walk(scanner)`` over ``data[start:end]``, one varint blob;
    returns its result, or ``None`` when the bytes cannot be walked to
    the end.

    A walk that stops early, or leaves trailing bytes, is a structure
    finding; one whose canonical re-encoding differs from the bytes is
    a roundtrip finding.
    """
    scanner = _Scanner(data, start, end)
    try:
        result = walk(scanner)
    except _ScanError as error:
        scan.structure.append((
            "%s scan failed at byte %d: %s" % (what, scanner.pos, error),
            {"offset": scanner.pos},
        ))
        return None
    if not scanner.exhausted:
        scan.structure.append((
            "%d trailing byte(s) after the %s" % (end - scanner.pos, what),
            {"trailing": end - scanner.pos},
        ))
    elif bytes(scanner.canon) != bytes(data[start:end]):
        # Same decoded values, different bytes: some varint is overlong
        # (or a string length disagrees).  Find the first divergence for
        # the message.
        canon = bytes(scanner.canon)
        original = bytes(data[start:end])
        offset = next(
            (i for i, (a, b) in enumerate(zip(canon, original)) if a != b),
            min(len(canon), len(original)),
        )
        scan.roundtrip.append((
            "%s is not canonically encoded: re-encoding the decoded "
            "values diverges at its byte %d (snapshot byte %d); content "
            "addressing requires canonical varints"
            % (what, offset, start + offset),
            {"offset": start + offset},
        ))
    return result


def _check_meta(text, scan):
    """The meta section must be JSON (``text``: str or UTF-8 bytes)."""
    try:
        json.loads(text)
    except ValueError as error:
        scan.structure.append((
            "meta section is not valid JSON: %s" % error, {},
        ))


def _walk_traces(scanner, scan):
    """Walk the traces grammar; returns ``(tbb_keys, summary)`` — the
    set of ``(trace_id, index)`` keys and ``(kind, n_traces, n_tbbs,
    n_edges)``."""
    kind = scanner.string() or None
    n_traces = scanner.uvarint()
    tbb_keys = set()
    entries = set()
    total_tbbs = 0
    total_edges = 0
    for _ in range(n_traces):
        trace_id = scanner.uvarint()
        scanner.string()                   # trace kind
        scanner.optional_uvarint()         # anchor
        n_tbbs = scanner.uvarint()
        total_tbbs += n_tbbs
        if n_tbbs == 0:
            scan.structure.append((
                "trace T%d has no TBBs" % trace_id,
                {"trace": trace_id},
            ))
        previous = 0
        entry = None
        for index in range(n_tbbs):
            start = previous + scanner.svarint()
            length = scanner.uvarint()
            if start < 0 or length < 0:
                scan.structure.append((
                    "trace T%d TBB #%d spans negative addresses "
                    "(%d..%d)" % (trace_id, index, start, start + length),
                    {"trace": trace_id, "index": index},
                ))
            if index == 0:
                entry = start
            tbb_keys.add((trace_id, index))
            previous = start
        if entry is not None:
            if entry in entries:
                scan.structure.append((
                    "duplicate trace entry %#x (trace T%d)"
                    % (entry, trace_id),
                    {"trace": trace_id, "entry": entry},
                ))
            entries.add(entry)
        n_edges = scanner.uvarint()
        total_edges += n_edges
        previous = 0
        for _ in range(n_edges):
            from_index = previous + scanner.uvarint()
            to_index = scanner.uvarint()
            if from_index >= n_tbbs or to_index >= n_tbbs:
                scan.structure.append((
                    "trace T%d edge #%d -> #%d is out of range "
                    "(%d TBBs)" % (trace_id, from_index, to_index, n_tbbs),
                    {"trace": trace_id},
                ))
            previous = from_index
    return tbb_keys, (kind, n_traces, total_tbbs, total_edges)


def _check_state_refs(refs, tbb_keys, scan):
    """Each non-NTE state (``refs`` yields their ``(trace_id, index)``
    keys in state-id order from sid 1) must name its own walked TBB."""
    seen = set()
    for sid, key in enumerate(refs, start=1):
        if key not in tbb_keys:
            scan.structure.append((
                "state %d refers to unknown TBB (T%d, #%d)"
                % (sid, key[0], key[1]),
                {"sid": sid},
            ))
        if key in seen:
            scan.structure.append((
                "two states refer to the same TBB (T%d, #%d)"
                % (key[0], key[1]),
                {"sid": sid},
            ))
        seen.add(key)


def _walk_profile(scanner, tbb_keys, scan):
    """Walk the profile grammar against the walked TBB keys."""
    n_counts = scanner.uvarint()
    for _ in range(n_counts):
        key = (scanner.uvarint(), scanner.uvarint())
        scanner.uvarint()              # count
        if key not in tbb_keys:
            scan.structure.append((
                "profile count refers to unknown TBB (T%d, #%d)"
                % key, {},
            ))
    for map_index in range(3):
        n_items = scanner.uvarint()
        previous = None
        for _ in range(n_items):
            trace_id = scanner.uvarint()
            scanner.uvarint()          # value
            if previous is not None and trace_id <= previous:
                scan.order.append((
                    "profile map %d keys are not strictly "
                    "increasing (T%d after T%d)"
                    % (map_index, trace_id, previous),
                    {"map": map_index},
                ))
            previous = trace_id


def scan_snapshot(data, deep=False):
    """Structurally scan TEAB bytes; returns a :class:`SnapshotScan`.

    The same checks :func:`repro.store.binary.open_v2` applies (raising
    at the first problem), plus the canonical-layout rules a loader does
    not need: zeroed inter-section padding, the file ending exactly at
    the last section, CSR monotonicity, head/label-pool ordering, and
    the in-trace flag pattern.  Envelope damage lands in
    ``scan.envelope``, section-table/structure damage in
    ``scan.sections``, CRC mismatches in ``scan.crc``.  ``deep`` adds
    :func:`_scan_blobs` once all of that is clean.
    """
    import zlib

    from repro.store.binary import (
        _ENTRY, _HEADER, _REBUILD, BINARY_VERSION, ENTRY_SIZE,
        HEADER_SIZE, INT64_SECTIONS, MAGIC, REQUIRED_SECTIONS,
        SEC_HEAD_ENTRIES, SEC_HEAD_SIDS, SEC_LABEL_POOL, SEC_STATE_REFS,
        SEC_TBB_FLAG, SEC_TRANS_DEST, SEC_TRANS_LABELS,
        SEC_TRANS_OFFSET, SECTION_NAMES, int64_section,
    )

    scan = SnapshotScan()
    size = len(data)
    if size < HEADER_SIZE:
        scan.envelope.append((
            "snapshot is %d bytes, shorter than the %d-byte header"
            % (size, HEADER_SIZE),
            {"size": size},
        ))
        return scan
    (magic, version, flags, n_sections, file_size, table_crc,
     reserved) = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        scan.envelope.append((
            "bad magic %r (expected %r)" % (magic, MAGIC),
            {"magic": repr(magic)},
        ))
        return scan
    if version != BINARY_VERSION:
        scan.envelope.append((
            "unsupported snapshot version %d (this code reads version "
            "%d); %s" % (version, BINARY_VERSION, _REBUILD),
            {"version": version},
        ))
        return scan
    if flags or reserved:
        scan.envelope.append((
            "reserved v2 header bits are set (flags=%#x reserved=%#x); "
            "a newer or corrupted writer produced this snapshot"
            % (flags, reserved),
            {"flags": flags, "reserved": reserved},
        ))
        return scan
    if file_size != size:
        scan.envelope.append((
            "v2 header names %d bytes but the snapshot is %d"
            % (file_size, size),
            {"declared": file_size, "size": size},
        ))
        return scan
    table_end = HEADER_SIZE + ENTRY_SIZE * n_sections
    if n_sections < 1 or table_end > size:
        scan.envelope.append((
            "v2 section table (%d entries) does not fit in %d bytes"
            % (n_sections, size),
            {"n_sections": n_sections},
        ))
        return scan
    actual_crc = zlib.crc32(memoryview(data)[HEADER_SIZE:table_end],
                            zlib.crc32(memoryview(data)[:16]))
    if actual_crc != table_crc:
        scan.crc.append((
            "section table CRC mismatch (stored %08x, computed %08x)"
            % (table_crc, actual_crc),
            {"stored": table_crc, "computed": actual_crc},
        ))
        scan.payload_scanned = True
        return scan

    sections = {}
    previous_id = 0
    cursor = table_end
    bounded = True
    for index in range(n_sections):
        sec_id, crc, offset, length, count = _ENTRY.unpack_from(
            data, HEADER_SIZE + ENTRY_SIZE * index
        )
        name = SECTION_NAMES.get(sec_id, "id=%d" % sec_id)
        if sec_id not in SECTION_NAMES:
            scan.sections.append((
                "unknown v2 section id %d" % sec_id, {"section": sec_id},
            ))
            bounded = False
            continue
        if sec_id <= previous_id:
            scan.sections.append((
                "section ids are not strictly ascending (%d after %d)"
                % (sec_id, previous_id),
                {"section": sec_id},
            ))
        previous_id = sec_id
        if offset % 8:
            # Misplaced section: the CRC below would re-hash the wrong
            # byte range, so skip it — the geometry finding is the cause.
            scan.sections.append((
                "section %s at offset %d is not 8-byte aligned"
                % (name, offset),
                {"section": sec_id, "offset": offset},
            ))
            bounded = False
            continue
        if offset < cursor or offset + length > size:
            scan.sections.append((
                "section %s [%d, %d) overlaps a neighbour or escapes "
                "the %d-byte file" % (name, offset, offset + length, size),
                {"section": sec_id, "offset": offset, "length": length},
            ))
            bounded = False
            continue
        if any(memoryview(data)[cursor:offset]):
            scan.sections.append((
                "padding before section %s is not zeroed" % name,
                {"section": sec_id},
            ))
        if sec_id in INT64_SECTIONS and length != 8 * count:
            scan.sections.append((
                "int64 section %s declares %d items but %d bytes"
                % (name, count, length),
                {"section": sec_id, "count": count, "length": length},
            ))
            bounded = False
        if sec_id == SEC_TBB_FLAG and length != count:
            scan.sections.append((
                "tbb_flag section declares %d states but %d bytes"
                % (count, length),
                {"count": count, "length": length},
            ))
            bounded = False
        actual = zlib.crc32(memoryview(data)[offset:offset + length])
        if actual != crc:
            scan.crc.append((
                "section %s CRC mismatch (stored %08x, computed %08x)"
                % (name, crc, actual),
                {"section": sec_id, "stored": crc, "computed": actual},
            ))
        sections[sec_id] = (offset, length, count)
        cursor = offset + length
    scan.payload_scanned = True
    if bounded and cursor != size:
        scan.sections.append((
            "%d trailing byte(s) after the last section"
            % (size - cursor),
            {"trailing": size - cursor},
        ))
    missing = REQUIRED_SECTIONS - sections.keys()
    if missing:
        scan.sections.append((
            "missing required section(s): %s"
            % ", ".join(sorted(SECTION_NAMES[m] for m in missing)),
            {"missing": sorted(missing)},
        ))
        return scan
    if not bounded or scan.sections or scan.crc:
        # Table geometry or payload integrity is already broken; the
        # content checks below would read through the damage.
        return scan

    n_states = sections[SEC_TBB_FLAG][2]
    if n_states < 1:
        scan.sections.append((
            "tbb_flag declares %d states; the NTE state is mandatory"
            % n_states, {},
        ))
        return scan
    counts = {
        SEC_STATE_REFS: 2 * (n_states - 1),
        SEC_TRANS_OFFSET: n_states + 1,
    }
    for sec_id, expected in counts.items():
        if sections[sec_id][2] != expected:
            scan.sections.append((
                "section %s holds %d items; %d states require %d"
                % (SECTION_NAMES[sec_id], sections[sec_id][2],
                   n_states, expected),
                {"section": sec_id},
            ))
    if sections[SEC_TRANS_LABELS][2] != sections[SEC_TRANS_DEST][2]:
        scan.sections.append((
            "trans_labels holds %d items but trans_dest %d"
            % (sections[SEC_TRANS_LABELS][2], sections[SEC_TRANS_DEST][2]),
            {},
        ))
    if sections[SEC_HEAD_ENTRIES][2] != sections[SEC_HEAD_SIDS][2]:
        scan.sections.append((
            "head_entries holds %d items but head_sids %d"
            % (sections[SEC_HEAD_ENTRIES][2], sections[SEC_HEAD_SIDS][2]),
            {},
        ))
    if scan.sections:
        return scan

    def view(sec_id):
        offset, length, _count = sections[sec_id]
        return int64_section(data, offset, length)

    flag_off, flag_len, _ = sections[SEC_TBB_FLAG]
    tbb_flag = bytes(memoryview(data)[flag_off:flag_off + flag_len])
    if tbb_flag != b"\x00" + b"\x01" * (n_states - 1):
        scan.sections.append((
            "tbb_flag is not the canonical NTE-then-in-trace pattern", {},
        ))
    refs = view(SEC_STATE_REFS)
    if len(refs) and min(refs) < 0:
        scan.sections.append((
            "state_refs contains a negative trace/TBB reference", {},
        ))
    offsets = view(SEC_TRANS_OFFSET)
    n_transitions = sections[SEC_TRANS_LABELS][2]
    if offsets[0] != 0 or offsets[n_states] != n_transitions:
        scan.sections.append((
            "trans_offset does not span [0, %d] (starts %d, ends %d)"
            % (n_transitions, offsets[0], offsets[n_states]),
            {},
        ))
    elif any(offsets[i] > offsets[i + 1] for i in range(n_states)):
        scan.sections.append((
            "trans_offset is not monotonically non-decreasing", {},
        ))
    else:
        labels = view(SEC_TRANS_LABELS)
        for sid in range(n_states):
            low, high = offsets[sid], offsets[sid + 1]
            if any(labels[i] >= labels[i + 1] for i in range(low, high - 1)):
                scan.sections.append((
                    "state %d transition labels are not strictly "
                    "increasing" % sid,
                    {"sid": sid},
                ))
                break
    dests = view(SEC_TRANS_DEST)
    if len(dests) and not 0 <= min(dests) <= max(dests) < n_states:
        scan.sections.append((
            "trans_dest targets a state outside [0, %d)" % n_states, {},
        ))
    head_entries = view(SEC_HEAD_ENTRIES)
    head_sids = view(SEC_HEAD_SIDS)
    if any(head_entries[i] >= head_entries[i + 1]
           for i in range(len(head_entries) - 1)):
        scan.sections.append((
            "head entries are not strictly increasing", {},
        ))
    if len(head_sids) and not 0 < min(head_sids) <= max(head_sids) < n_states:
        scan.sections.append((
            "head_sids targets a state outside (0, %d)" % n_states, {},
        ))
    pool = view(SEC_LABEL_POOL)
    if any(pool[i] >= pool[i + 1] for i in range(len(pool) - 1)):
        scan.sections.append((
            "label_pool is not strictly increasing", {},
        ))
    if deep and not scan.sections:
        _scan_blobs(data, sections, view, scan)
    return scan


def _scan_blobs(data, sections, view, scan):
    """Deep checks: walk the embedded META, TRACES and PROFILE blobs,
    check STATE_REFS against the walked TBBs, and re-derive SUMMARY and
    LABEL_POOL.

    Blob findings are structure, order or roundtrip findings; a SUMMARY
    or LABEL_POOL that does not match what it is derived from is a
    section finding.
    """
    from repro.store.binary import (
        SEC_HEAD_ENTRIES, SEC_LABEL_POOL, SEC_META, SEC_PROFILE,
        SEC_STATE_REFS, SEC_SUMMARY, SEC_TRACES, SEC_TRANS_LABELS,
        summary_json,
    )

    def blob(sec_id):
        offset, length, _count = sections[sec_id]
        return offset, offset + length

    if SEC_META in sections:
        start, end = blob(SEC_META)
        _check_meta(bytes(memoryview(data)[start:end]), scan)
    start, end = blob(SEC_TRACES)
    walked = _walk(data, start, end, "traces section", scan,
                   lambda scanner: _walk_traces(scanner, scan))
    if walked is None:
        return
    tbb_keys, summary = walked
    refs = view(SEC_STATE_REFS)
    _check_state_refs(zip(refs[0::2], refs[1::2]), tbb_keys, scan)
    start, end = blob(SEC_SUMMARY)
    if bytes(memoryview(data)[start:end]) != summary_json(*summary):
        scan.sections.append((
            "summary section does not match the traces section "
            "(derived %s)" % summary_json(*summary).decode("utf-8"),
            {},
        ))
    derived = sorted(set(view(SEC_TRANS_LABELS))
                     | set(view(SEC_HEAD_ENTRIES)))
    if list(view(SEC_LABEL_POOL)) != derived:
        scan.sections.append((
            "label_pool is not the sorted set of transition labels and "
            "head entries", {},
        ))
    if SEC_PROFILE in sections:
        start, end = blob(SEC_PROFILE)
        _walk(data, start, end, "profile section", scan,
              lambda scanner: _walk_profile(scanner, tbb_keys, scan))


class _SnapshotRule(Rule):
    """Shared plumbing: scan the snapshot, yield one finding family."""

    family = "snapshot"
    requires = ("snapshot",)
    scan_field = None

    def check(self, subject):
        scan = subject.snapshot_scan
        for message, data in getattr(scan, self.scan_field):
            yield self.diag(message, **data)


class SnapshotEnvelope(_SnapshotRule):
    rule_id = "TEA020"
    name = "snapshot-envelope"
    description = (
        "The TEAB header is invalid: too short, wrong magic, an "
        "unsupported version (the message says how to rebuild the "
        "snapshot), reserved bits set, a file size that disagrees with "
        "the header, or a section table that does not fit."
    )
    paper = "Section 5 (storing trace shape for reuse)"
    scan_field = "envelope"


class SnapshotStructure(_SnapshotRule):
    rule_id = "TEA021"
    name = "snapshot-structure"
    description = (
        "An embedded blob (meta, traces or profile) is malformed: "
        "truncated varint, out-of-range index, unknown or shared TBB "
        "reference, invalid meta JSON, or trailing bytes."
    )
    paper = "Section 5 (storing trace shape for reuse)"
    scan_field = "structure"


class SnapshotOrder(_SnapshotRule):
    rule_id = "TEA022"
    name = "snapshot-order"
    description = (
        "A profile counter map's trace ids are not strictly increasing; "
        "the codec always writes them sorted."
    )
    paper = "Section 4.2 (sorted dispatch tables)"
    scan_field = "order"


class SnapshotRoundtrip(_SnapshotRule):
    rule_id = "TEA023"
    name = "snapshot-roundtrip"
    description = (
        "Decoding then re-encoding an embedded varint blob (traces or "
        "profile) does not reproduce the original bytes (overlong "
        "varints); content addressing requires canonical encoding."
    )
    paper = "Section 5 (content-addressed snapshot reuse)"
    scan_field = "roundtrip"


class SnapshotSections(_SnapshotRule):
    rule_id = "TEA024"
    name = "snapshot-sections"
    description = (
        "A TEAB section-table entry is invalid: misaligned, "
        "overlapping, escaping the file, missing a required section, "
        "inconsistent item counts, a zero-copy table that is not in "
        "canonical sorted form, or a summary or label pool that does "
        "not match what it is derived from."
    )
    paper = "Section 4.2 (sorted dispatch tables)"
    scan_field = "sections"


class SnapshotSectionCrc(_SnapshotRule):
    rule_id = "TEA025"
    name = "snapshot-section-crc"
    description = (
        "A TEAB checksum does not match its payload (section table "
        "or an individual section); the mapped bytes were corrupted "
        "after writing."
    )
    paper = "Section 5 (storing trace shape for reuse)"
    scan_field = "crc"


register(SnapshotEnvelope())
register(SnapshotStructure())
register(SnapshotOrder())
register(SnapshotRoundtrip())
register(SnapshotSections())
register(SnapshotSectionCrc())
