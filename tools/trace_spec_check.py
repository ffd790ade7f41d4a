#!/usr/bin/env python3
"""Independent decoder for rs::trace capture files and rs::wal journal
segments, written from docs/TRACE_FORMAT.md and docs/WAL_FORMAT.md alone —
it deliberately shares no code with the C++ implementation. CI runs it
against the committed example artifacts; if this decoder and the C++
writer ever disagree, either the spec or the code drifted, and the job
fails.

Usage: trace_spec_check.py <capture.rstrace|segment.rswal> [more...]

Files are dispatched on their leading magic: "RSNP" containers get the
capture walk, "RSWJ" files get the journal-segment walk (header, then
per-record LSN/length/CRC framing with each payload decoded as one bare
event in segment layout 2, or as a single-event container in layout 1;
the first invalid record ends the scan, per the spec's crash rule). What follows it is a torn tail through its last
non-zero byte and zero padding after that, both legal only in the
journal's last segment: a file named wal-<16 hex digits>.rswal with a
later-named segment beside it is rejected for either.

Exit status 0 iff every file decodes: magic/version/CRC valid, every
section consumed exactly, every event well-formed.
"""

import os
import re
import struct
import sys
import zlib

MAGIC = 0x504E5352  # "RSNP" little-endian
CONTAINER_VERSION = 1
TRACE_LAYER_VERSION = 1
WAL_MAGIC = int.from_bytes(b"RSWJ", "little")
WAL_SEGMENT_HEADER = 16  # magic u32 + version u32 + first_lsn u64
WAL_FRAME_HEADER = 16    # lsn u64 + payload_len u32 + crc u32
# Smallest payload per segment layout version: a bare retire event
# (kind u8 + id u32) in v2; container header (8) + CRC trailer (4) in v1.
WAL_MIN_PAYLOAD = {1: 12, 2: 5}
WAL_SEGMENT_NAME = re.compile(r"wal-[0-9a-f]{16}\.rswal")

# Section tags are fourCCs stored little-endian: tag('T','R','C','E')
# compares equal to the bytes b"TRCE" read as a LE u32.
TAG_TRCE = int.from_bytes(b"TRCE", "little")
TAG_TMET = int.from_bytes(b"TMET", "little")
TAG_TEVT = int.from_bytes(b"TEVT", "little")

EVENT_NAMES = {
    1: "register",
    2: "retire",
    3: "replace-model",
    4: "observe",
    5: "plan",
    6: "plan-all",
}


class SpecError(Exception):
    pass


class Cursor:
    """Bounds-checked little-endian reads over one section's payload."""

    def __init__(self, data, start, end, what):
        self.data = data
        self.pos = start
        self.end = end
        self.what = what

    def take(self, n):
        if self.pos + n > self.end:
            raise SpecError(
                f"{self.what}: read of {n} bytes overruns the section "
                f"({self.end - self.pos} left)")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self):
        return self.take(1)[0]

    def boolean(self):
        value = self.u8()
        if value > 1:
            raise SpecError(f"{self.what}: bool byte is {value}, not 0/1")
        return value == 1

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.take(8))[0]

    def f64(self):
        return struct.unpack("<d", self.take(8))[0]

    def bytes_field(self):
        """Length-prefixed raw bytes (u64 count + payload)."""
        return self.take(self.u64())

    def string(self):
        """A bytes_field holding UTF-8 text (names, labels)."""
        return self.bytes_field().decode("utf-8", errors="strict")

    def section(self, expected_tag):
        tag = self.u32()
        if tag != expected_tag:
            raise SpecError(
                f"{self.what}: section tag {tag.to_bytes(4, 'little')!r}, "
                f"expected {expected_tag.to_bytes(4, 'little')!r}")
        length = self.u64()
        if self.pos + length > self.end:
            raise SpecError(f"{self.what}: section length {length} overruns")
        inner = Cursor(self.data, self.pos, self.pos + length,
                       expected_tag.to_bytes(4, "little").decode())
        self.pos += length
        return inner

    def remaining(self):
        return self.end - self.pos


def read_clock(cur):
    has_position = cur.boolean()
    cur.f64()  # time
    cur.u64()  # readings
    return has_position


def read_action(cur):
    creations = cur.u64()
    if creations > cur.remaining() // 8:
        raise SpecError(f"{cur.what}: action claims {creations} creations")
    cur.take(8 * creations)
    cur.u64()  # deletions
    return creations


def read_event(cur):
    kind = cur.u8()
    if kind not in EVENT_NAMES:
        raise SpecError(f"{cur.what}: unknown event kind {kind}")
    if kind == 1:  # register
        cur.u32()
        name = cur.string()
        if not name:
            raise SpecError(f"{cur.what}: register with empty tenant name")
        cur.bytes_field()  # embedded scaler snapshot, opaque at this layer
    elif kind == 2:  # retire
        cur.u32()
    elif kind == 3:  # replace-model
        cur.u32()
        cur.boolean()
        cur.bytes_field()
    elif kind == 4:  # observe
        cur.u32()
        cur.f64()
        outcome = cur.u8()
        if outcome > 3:
            raise SpecError(f"{cur.what}: observe outcome bits {outcome}")
    elif kind == 5:  # plan
        cur.u32()
        cur.f64()
        read_clock(cur)
        read_action(cur)
    elif kind == 6:  # plan-all
        cur.f64()
        tenants = cur.u64()
        for _ in range(tenants):
            cur.u32()
            ok = cur.boolean()
            read_clock(cur)
            if ok:
                read_action(cur)
    return kind


def check_event_payload(blob, version, what):
    """One journal-record payload: exactly one bare trace event (layout 2),
    or a complete RSNP container holding exactly one (layout 1). Neither
    has a section wrapper — the journal's framing replaces it."""
    if version == 2:
        cur = Cursor(blob, 0, len(blob), what)
        kind = read_event(cur)
        if cur.remaining() != 0:
            raise SpecError(
                f"{what}: {cur.remaining()} stray bytes after the event")
        return kind
    (crc,) = struct.unpack("<I", blob[-4:])
    if crc != zlib.crc32(blob[:-4]) & 0xFFFFFFFF:
        raise SpecError(f"{what}: payload container CRC mismatch")
    cur = Cursor(blob, 0, len(blob) - 4, what)
    if cur.u32() != MAGIC:
        raise SpecError(f"{what}: payload is not an rs::persist container")
    version = cur.u32()
    if version != CONTAINER_VERSION:
        raise SpecError(f"{what}: payload container version {version}")
    kind = read_event(cur)
    if cur.remaining() != 0:
        raise SpecError(
            f"{what}: {cur.remaining()} stray bytes after the event")
    return kind


def is_last_segment(path):
    """A journal-named segment is the last unless a later-named one sits
    beside it; a file under any other name is checked on its own, as last."""
    name = os.path.basename(path)
    if not WAL_SEGMENT_NAME.fullmatch(name):
        return True
    siblings = os.listdir(os.path.dirname(path) or ".")
    return not any(WAL_SEGMENT_NAME.fullmatch(other) and other > name
                   for other in siblings)


def check_wal_segment(path, blob):
    if len(blob) < WAL_SEGMENT_HEADER:
        raise SpecError("segment shorter than its 16-byte header")
    magic, version, first_lsn = struct.unpack("<IIQ",
                                              blob[:WAL_SEGMENT_HEADER])
    if magic != WAL_MAGIC:
        raise SpecError("bad segment magic (not an rs::wal segment)")
    if version not in WAL_MIN_PAYLOAD:
        raise SpecError(f"segment layout version {version}, this checker "
                        f"reads {sorted(WAL_MIN_PAYLOAD)}")
    pos = WAL_SEGMENT_HEADER
    expected = first_lsn
    records = 0
    histogram = {}
    while pos < len(blob):
        remaining = len(blob) - pos
        if remaining < WAL_FRAME_HEADER:
            break  # truncated frame header: a crash mid-append
        lsn, length, crc = struct.unpack("<QII", blob[pos:pos + 16])
        if (length < WAL_MIN_PAYLOAD[version]
                or length > remaining - WAL_FRAME_HEADER):
            break
        actual = zlib.crc32(blob[pos:pos + 12])
        actual = zlib.crc32(blob[pos + 16:pos + 16 + length],
                            actual) & 0xFFFFFFFF
        if actual != crc:
            break
        if lsn != expected:
            # A CRC-valid record that breaks the contiguous LSN sequence is
            # never left by a crash — that's corruption, not a torn tail.
            raise SpecError(f"record at offset {pos} carries LSN {lsn}, "
                            f"expected {expected}")
        kind = check_event_payload(blob[pos + 16:pos + 16 + length],
                                   version, f"record LSN {lsn}")
        histogram[kind] = histogram.get(kind, 0) + 1
        pos += WAL_FRAME_HEADER + length
        expected += 1
        records += 1
    torn = len(blob[pos:].rstrip(b"\0"))
    padding = len(blob) - pos - torn
    if (torn or padding) and not is_last_segment(path):
        what = "an invalid record" if torn else "zero padding"
        raise SpecError(f"{what} at offset {pos}, but a later segment "
                        f"follows, so no crash can have left it")
    summary = ", ".join(f"{EVENT_NAMES[k]}={n}"
                        for k, n in sorted(histogram.items()))
    tail = f"; torn tail {torn} bytes" if torn else ""
    tail += f"; zero padding {padding} bytes" if padding else ""
    print(f"{path}: OK (journal segment layout v{version}, {records} "
          f"records, LSN "
          f"{first_lsn}..{first_lsn + records - 1}: {summary or 'none'}"
          f"{tail})")


def check(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) >= 4 and blob[:4] == b"RSWJ":
        check_wal_segment(path, blob)
        return
    if len(blob) < 12:
        raise SpecError("file shorter than header + CRC trailer")
    (crc,) = struct.unpack("<I", blob[-4:])
    if crc != zlib.crc32(blob[:-4]) & 0xFFFFFFFF:
        raise SpecError("CRC32 trailer mismatch")
    top = Cursor(blob, 0, len(blob) - 4, "container")
    if top.u32() != MAGIC:
        raise SpecError("bad magic (not an rs::persist container)")
    version = top.u32()
    if version != CONTAINER_VERSION:
        raise SpecError(f"container format version {version}, expected "
                        f"{CONTAINER_VERSION}")

    trce = top.section(TAG_TRCE)
    if top.remaining() != 0:
        raise SpecError(f"{top.remaining()} stray bytes after TRCE section")
    layer = trce.u32()
    if layer != TRACE_LAYER_VERSION:
        raise SpecError(f"trace layer version {layer}, this checker reads "
                        f"{TRACE_LAYER_VERSION}")

    tmet = trce.section(TAG_TMET)
    producer = tmet.string()
    tmet.string()  # label; a newer writer may append more — that's legal

    tevt = trce.section(TAG_TEVT)
    count = tevt.u64()
    histogram = {}
    for _ in range(count):
        kind = read_event(tevt)
        histogram[kind] = histogram.get(kind, 0) + 1
    if tevt.remaining() != 0:
        raise SpecError(f"{tevt.remaining()} stray bytes after the last event")
    if trce.remaining() != 0:
        raise SpecError(f"{trce.remaining()} stray bytes in the TRCE section")

    summary = ", ".join(f"{EVENT_NAMES[k]}={n}"
                        for k, n in sorted(histogram.items()))
    print(f"{path}: OK ({count} events: {summary or 'none'}; "
          f"producer \"{producer}\")")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[-4].strip(), file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        try:
            check(path)
        except (SpecError, OSError, UnicodeDecodeError, struct.error) as err:
            print(f"{path}: FAIL — {err}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
