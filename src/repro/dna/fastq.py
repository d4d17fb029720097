"""Minimal FASTA/FASTQ I/O.

The pipelines consume reads as Python strings or storage-code arrays; this
module provides the file layer so the examples and dataset registry can
round-trip real FASTQ files (the paper's inputs are FASTQ, Table I).
Gzip-compressed files are handled transparently by extension.
"""

from __future__ import annotations

import gzip
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

__all__ = ["SequenceRecord", "read_fastq", "write_fastq", "read_fasta", "write_fasta", "sniff_format"]


@dataclass(frozen=True)
class SequenceRecord:
    """One sequencing read: identifier, bases, and optional quality string."""

    name: str
    sequence: str
    quality: str | None = None

    def __post_init__(self) -> None:
        if self.quality is not None and len(self.quality) != len(self.sequence):
            raise ValueError(
                f"quality length {len(self.quality)} != sequence length {len(self.sequence)} for read {self.name!r}"
            )

    def __len__(self) -> int:
        return len(self.sequence)


def _open_text(path: str | Path, mode: str) -> io.TextIOBase:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")  # type: ignore[return-value]
    return open(path, mode)  # noqa: SIM115 - caller closes via context manager


def next_fastq_record(lines: Iterator[str], where: Callable[[int], str]) -> SequenceRecord | None:
    """The next record of a FASTQ file's ``lines``, or None at its end: the one framing rule.

    A record is four lines (``@name``, bases, ``+``, as many qualities as
    bases), each without its line end and carriage return (CRLF files).
    Blank lines may only end the file.  An error starts with ``where(i)``,
    the place of the record's ``i``-th line (0: its header).
    """
    header = next(lines, None)
    if header is None:
        return None
    header = header.rstrip("\r\n")
    if not header.strip() and not any(line.strip() for line in lines):
        return None
    if not header.startswith("@"):
        raise ValueError(f"{where(0)}: expected '@' header, got {header[:30]!r}")
    seq, sep, qual = (next(lines, "").rstrip("\r\n") for _ in range(3))
    if not sep.startswith("+"):
        raise ValueError(f"{where(2)}: expected '+' separator, got {sep[:30]!r}")
    if len(qual) != len(seq):
        raise ValueError(f"{where(3)}: quality/sequence length mismatch")
    return SequenceRecord(name=header[1:], sequence=seq, quality=qual)


def read_fastq(path: str | Path) -> Iterator[SequenceRecord]:
    """Stream records from a FASTQ file (optionally .gz).

    Framed by :func:`next_fastq_record`, as ``read_fastq_range`` frames
    them; raises ``ValueError`` with the offending line number on
    malformed input.
    """
    with _open_text(path, "r") as fh:
        lineno = 1

        def where(i: int) -> str:
            return f"{path}:{lineno + i}"

        while (record := next_fastq_record(fh, where)) is not None:
            yield record
            lineno += 4


def write_fastq(path: str | Path, records: Iterable[SequenceRecord]) -> int:
    """Write records to a FASTQ file (optionally .gz); returns record count.

    Records lacking quality strings get a constant placeholder quality
    (``I`` == Q40), which is what read simulators conventionally emit.
    """
    count = 0
    with _open_text(path, "w") as fh:
        for rec in records:
            qual = rec.quality if rec.quality is not None else "I" * len(rec.sequence)
            fh.write(f"@{rec.name}\n{rec.sequence}\n+\n{qual}\n")
            count += 1
    return count


def read_fasta(path: str | Path) -> Iterator[SequenceRecord]:
    """Stream records from a FASTA file (optionally .gz); joins wrapped lines."""
    name: str | None = None
    chunks: list[str] = []
    with _open_text(path, "r") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith(">"):
                if name is not None:
                    yield SequenceRecord(name=name, sequence="".join(chunks))
                name = line[1:]
                chunks = []
            elif line:
                if name is None:
                    raise ValueError(f"{path}: sequence data before first '>' header")
                chunks.append(line)
    if name is not None:
        yield SequenceRecord(name=name, sequence="".join(chunks))


def write_fasta(path: str | Path, records: Iterable[SequenceRecord], width: int = 80) -> int:
    """Write records to a FASTA file with line wrapping; returns record count."""
    if width < 1:
        raise ValueError("width must be positive")
    count = 0
    with _open_text(path, "w") as fh:
        for rec in records:
            fh.write(f">{rec.name}\n")
            seq = rec.sequence
            for i in range(0, len(seq), width):
                fh.write(seq[i : i + width] + "\n")
            count += 1
    return count


def sniff_format(path: str | Path) -> str:
    """Return ``"fastq"`` or ``"fasta"`` by peeking at the first byte."""
    with _open_text(path, "r") as fh:
        first = fh.read(1)
    if first == "@":
        return "fastq"
    if first == ">":
        return "fasta"
    raise ValueError(f"{path}: neither FASTQ nor FASTA (first byte {first!r})")
