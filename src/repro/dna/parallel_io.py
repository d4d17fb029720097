"""Parallel FASTQ input: byte-range partitioning with boundary recovery.

The paper's input partitioning is parallel file I/O: "the input of size D
is partitioned roughly uniformly over P parallel processors.  This is
ensured by the parallel I/O in the implementation" (Section IV-D).  Real
parallel FASTQ readers split the *byte range* of the file evenly and each
rank must then find the first record boundary at or after its offset —
which is subtle, because a line starting with ``@`` may be either a record
header or a quality line (quality strings may begin with ``@`` = Q31).

The standard disambiguation implemented here: a candidate line starting
with ``@`` begins a record iff the line two below starts with ``+`` and
the line three below does *not* start with ``+``... which still has corner
cases; the robust rule used by production splitters (and here) checks the
4-line period: a line L is a header iff L starts with ``@`` and either
(L+2 starts with ``+`` and L+1 does not start with ``@``-header-pattern
recursively) — resolved by scanning up to four consecutive line starts and
testing which alignment of the 4-line record frame is consistent.

Ownership rule: a rank owns every record whose *header byte offset* lies
inside its half-open byte range.  That makes the partition exact — every
record owned by exactly one rank — for any split points, which the
property tests verify by splitting real files at every byte position.
"""

from __future__ import annotations

from pathlib import Path

from .fastq import SequenceRecord, next_fastq_record
from .reads import ReadSet

__all__ = ["find_record_start", "read_fastq_range", "partition_fastq", "load_fastq_sharded"]


def _frame_consistent(lines: list[bytes], start: int, at_eof: bool) -> bool:
    """Whether interpreting ``lines[start]`` as a header yields a valid
    4-line record frame for as many complete records as are visible.

    Each frame is tested by :func:`~repro.dna.fastq.next_fastq_record`,
    the one framing rule.  Blank lines can only end the file, so the frame
    stops at one; at the end of the file a header needs a whole record
    after it.
    """
    i = start
    checked = False
    while i + 3 < len(lines) and lines[i].strip():
        try:  # the error's place (``where``) is unused: any error means "not a frame"
            next_fastq_record((line.decode("latin-1") for line in lines[i : i + 4]), str)
        except ValueError:
            return False
        checked = True
        i += 4
    if checked:
        return True
    # Fewer than 4 full lines visible: fall back to the local shape.
    return not at_eof and bool(lines[start : start + 1] and lines[start].startswith(b"@"))


def find_record_start(chunk: bytes, *, at_line_start: bool = False, at_eof: bool = False) -> int | None:
    """Offset of the first record header at or after position 0 of ``chunk``.

    ``chunk`` should extend a few records past the nominal split point so
    the frame test has material to work with.  ``at_line_start`` says
    position 0 is known to be a line boundary (file start, or the previous
    byte is a newline) — essential so a header sitting exactly on a split
    point is owned by the range that starts there, not lost.  ``at_eof``
    says the chunk runs to the end of the file.  Returns ``None`` when no
    boundary exists in the chunk (trailing file bytes).
    """
    if at_line_start:
        pos = 0
    else:
        # Never treat a mid-line position as a line start: skip to the
        # first newline, then examine subsequent line starts.
        pos = chunk.find(b"\n")
        if pos < 0:
            return None
        pos += 1
    # Collect line starts and the lines themselves from pos onward.
    lines: list[bytes] = []
    starts: list[int] = []
    cursor = pos
    while cursor < len(chunk):
        end = chunk.find(b"\n", cursor)
        if end < 0:
            lines.append(chunk[cursor:])
            starts.append(cursor)
            break
        lines.append(chunk[cursor:end])
        starts.append(cursor)
        cursor = end + 1
    for i, line in enumerate(lines):
        if line.startswith(b"@") and _frame_consistent(lines, i, at_eof):
            return starts[i]
    return None


def _record_start(fh, start: int) -> int | None:
    """Byte offset of the first record header at or after ``start`` (> 0) in ``fh``, if any."""
    chunk_size = 1 << 16
    fh.seek(start - 1)
    line_aligned = fh.read(1) == b"\n"
    buf = b""
    while True:
        more = fh.read(chunk_size)
        buf += more
        eof = len(more) < chunk_size  # a short read of a file is its end
        # Complete lines only until the end of the file: a cut-off quality
        # line must not fail the frame test of the header above it.
        complete = buf if eof else buf[: buf.rfind(b"\n") + 1]
        offset = find_record_start(complete, at_line_start=line_aligned, at_eof=eof)
        if offset is not None or eof:
            return None if offset is None else start + offset


def read_fastq_range(path: str | Path, start: int, end: int) -> list[SequenceRecord]:
    """Records whose header byte offset lies in ``[start, end)``.

    Reads past ``end`` as needed to complete the final owned record.  The
    union over a partition of ``[0, filesize)`` is exactly the whole file:
    the records :func:`~repro.dna.fastq.read_fastq` returns, framed by the
    same rule (:func:`~repro.dna.fastq.next_fastq_record`), or the same
    kind of error — the range at the file start checks its first line, and
    a range checks the line after its last record, blank or not.
    """
    path = Path(path)
    if start < 0 or end < start:
        raise ValueError("need 0 <= start <= end")
    if start >= path.stat().st_size:
        return []
    with open(path, "rb") as fh:
        at = 0 if start == 0 else _record_start(fh, start)
        if at is None or at >= end:
            return []
        fh.seek(at)
        lines = (line.decode("ascii") for line in fh)
        records: list[SequenceRecord] = []

        def where(i: int) -> str:
            return f"{path}: byte {at}"

        while (record := next_fastq_record(lines, where)) is not None and at < end:
            records.append(record)
            at = fh.tell()
        return records


def partition_fastq(path: str | Path, n_parts: int) -> list[list[SequenceRecord]]:
    """Split a FASTQ file into ``n_parts`` by even byte ranges.

    Every record lands in exactly one part (ownership by header offset),
    and parts are balanced by bytes — the paper's parallel-I/O model.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be positive")
    size = Path(path).stat().st_size
    bounds = [(size * i) // n_parts for i in range(n_parts + 1)]
    return [read_fastq_range(path, bounds[i], bounds[i + 1]) for i in range(n_parts)]


def load_fastq_sharded(path: str | Path, n_parts: int) -> list[ReadSet]:
    """Parallel-I/O loading straight into per-rank :class:`ReadSet` shards."""
    return [ReadSet.from_records(part) for part in partition_fastq(path, n_parts)]
