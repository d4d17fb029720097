"""Tests for byte-range parallel FASTQ input (boundary recovery)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dna.fastq import SequenceRecord, read_fastq, write_fastq
from repro.dna.parallel_io import find_record_start, load_fastq_sharded, partition_fastq, read_fastq_range


def make_records(rng: random.Random, n: int, tricky_quality: bool = True) -> list[SequenceRecord]:
    """Records with adversarial quality strings (starting with @ and +)."""
    records = []
    for i in range(n):
        length = rng.randint(5, 120)
        seq = "".join(rng.choice("ACGTN") for _ in range(length))
        if tricky_quality and length >= 1:
            # Quality chars '@' (Q31) and '+' (Q10) are legal and are what
            # breaks naive FASTQ splitters.
            lead = rng.choice("@+I")
            qual = lead + "".join(rng.choice("@+!IJF#5") for _ in range(length - 1))
        else:
            qual = "I" * length
        records.append(SequenceRecord(name=f"read/{i} pos={rng.randint(0, 10**6)}", sequence=seq, quality=qual))
    return records


@pytest.fixture(scope="module")
def fastq_file(tmp_path_factory):
    rng = random.Random(1234)
    records = make_records(rng, 60)
    path = tmp_path_factory.mktemp("pio") / "tricky.fastq"
    write_fastq(path, records)
    return path, records


class TestFindRecordStart:
    def test_file_start(self):
        assert find_record_start(b"@r\nACGT\n+\nIIII\n", at_line_start=True) == 0

    def test_skips_partial_line(self):
        chunk = b"GT\n+\nIIII\n@r2\nAC\n+\n!!\n"
        assert find_record_start(chunk) == chunk.index(b"@r2")

    def test_not_fooled_by_at_quality(self):
        # quality line starts with '@' — must not be taken for a header.
        chunk = b"CGT\n+\n@@II\n@real\nAC\n+\nII\n"
        assert find_record_start(chunk) == chunk.index(b"@real")

    def test_no_boundary(self):
        assert find_record_start(b"IIII") is None
        assert find_record_start(b"half\nline") is None


class TestRangePartition:
    def test_even_partition_is_exact(self, fastq_file):
        path, records = fastq_file
        for n_parts in (1, 2, 3, 7, 16):
            parts = partition_fastq(path, n_parts)
            flat = [r for part in parts for r in part]
            assert [r.name for r in flat] == [r.name for r in records]
            assert [r.sequence for r in flat] == [r.sequence for r in records]
            assert [r.quality for r in flat] == [r.quality for r in records]

    @given(split=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=120, deadline=None)
    def test_any_split_point_is_exact(self, fastq_file, split):
        """For EVERY byte split position, the two ranges partition the
        records exactly — the core correctness property of the splitter."""
        path, records = fastq_file
        size = path.stat().st_size
        split = split % (size + 1)
        left = read_fastq_range(path, 0, split)
        right = read_fastq_range(path, split, size)
        names = [r.name for r in left] + [r.name for r in right]
        assert names == [r.name for r in records]

    def test_empty_range(self, fastq_file):
        path, _ = fastq_file
        assert read_fastq_range(path, 5, 5) == []

    def test_range_past_eof(self, fastq_file):
        path, _ = fastq_file
        size = path.stat().st_size
        assert read_fastq_range(path, size + 10, size + 20) == []

    def test_invalid_range(self, fastq_file):
        path, _ = fastq_file
        with pytest.raises(ValueError):
            read_fastq_range(path, 10, 5)

    def test_file_without_trailing_newline(self, tmp_path):
        path = tmp_path / "notrail.fastq"
        path.write_bytes(b"@a\nACGT\n+\nIIII\n@b\nGG\n+\n!!")
        parts = partition_fastq(path, 2)
        names = [r.name for part in parts for r in part]
        assert names == ["a", "b"]

    def test_partition_balance(self, tmp_path):
        rng = random.Random(7)
        records = make_records(rng, 400, tricky_quality=False)
        path = tmp_path / "big.fastq"
        write_fastq(path, records)
        parts = partition_fastq(path, 8)
        sizes = [sum(len(r.sequence) for r in part) for part in parts]
        assert max(sizes) < 2.0 * (sum(sizes) / len(sizes))


_FRAMING_CASES = {
    "crlf": b"@r1\r\nACGT\r\n+\r\nIIII\r\n@r2\r\nGGCA\r\n+\r\n!!@+\r\n",
    "no-final-newline": b"@r1\nACGT\n+\nIIII\n@r2\nGG\n+\n!!",
    "trailing-blank-lines": b"@r1\nACGT\n+\nIIII\n@r2\nGG\n+\n!!\n\n\n\n\n\n",
    "crlf-trailing-blank-line": b"@r1\r\nACGT\r\n+\r\nIIII\r\n\r\n",
    "crlf-no-final-newline": b"@r1\r\nACGT\r\n+\r\nIIII\r\n@r2\r\nGG\r\n+\r\n!!",
    "lowercase": b"@r1\nacgtn\n+\nIIIII\n@r2\nAcGt\n+\n@@@@\n",
    "fasta": b">r1\nACGTACGT\n>r2\nGGCC\n",
    "blank-line-between-records": b"@r1\nACGT\n+\nIIII\n\n@r2\nGG\n+\n!!\n",
}


def _records_or_error(read, *args):
    """``("records", [...])`` or ``("error", message)`` of ``read(*args)``."""
    try:
        return "records", list(read(*args))
    except ValueError as exc:
        return "error", str(exc)


def _split_at(path, split, size):
    return read_fastq_range(path, 0, split) + read_fastq_range(path, split, size)


@pytest.mark.parametrize("case", sorted(_FRAMING_CASES))
def test_range_reader_frames_records_like_read_fastq(case, tmp_path):
    """At every split point, the two ranges return ``read_fastq``'s records, or both readers raise naming the file."""
    path = tmp_path / f"{case}.fastq"
    path.write_bytes(_FRAMING_CASES[case])
    size = path.stat().st_size
    expected = _records_or_error(read_fastq, path)
    for split in range(size + 1):
        got = _records_or_error(_split_at, path, split, size)
        assert got[0] == expected[0], (split, got, expected)
        if got[0] == "records":
            assert got[1] == expected[1], split
        else:
            assert str(path) in got[1] and str(path) in expected[1], (got, expected)


class TestShardedLoad:
    def test_load_fastq_sharded(self, fastq_file):
        path, records = fastq_file
        shards = load_fastq_sharded(path, 4)
        assert sum(s.n_reads for s in shards) == len(records)
        total = sum(s.total_bases for s in shards)
        assert total == sum(len(r.sequence) for r in records)

    def test_counts_match_oracle_through_pipeline(self, fastq_file):
        """Parallel-I/O shards drive the distributed pipeline correctly."""
        from repro.dna.reads import ReadSet
        from repro.kmers.spectrum import count_kmers_exact

        path, records = fastq_file
        whole = ReadSet.from_records(records)
        shards = load_fastq_sharded(path, 3)
        combined = ReadSet.concat(shards)
        assert count_kmers_exact(combined, 9).equals(count_kmers_exact(whole, 9))
