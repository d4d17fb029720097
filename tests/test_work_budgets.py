"""Work budgets: how often, and on how much, the hot loops call the expensive primitives.

Counts, not clocks (ROADMAP item 4): a budget here fails when a code
path regrows a sort or a whole-round temporary, on any host and at any
load, where a wall-clock floor would only drift.
"""

from __future__ import annotations

import builtins
import hashlib
import os
import sys
import tracemalloc
import weakref
import zipfile
from collections import Counter

import numpy as np
import pytest

import repro.core.stages.checkpoint as checkpoint
import repro.core.stages.plan as plan
import repro.core.stages.scheduler as scheduler
import repro.core.stages.spill as spill
import repro.core.stages.standard as standard
import repro.gpu.hashtable as hashtable
import repro.gpu.segmented as segmented
import repro.mpi.collectives as collectives
from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.core.incremental import DistributedCounter
from repro.core.stages.buffers import SendArray, SendRound, send_rounds
from repro.core.stages.standard import GpuSubstrate
from repro.dna import simulate
from repro.dna.reads import ReadSet
from repro.ext.bloom import count_with_prefilter
from repro.ext.sortcount import SortingCounter
from repro.gpu.segmented import SegmentedHashTable
from repro.hashing.partition import owner_of, owners_of
from repro.kmers.extract import extract_kmers
from repro.kmers.spectrum import count_kmers_exact
from repro.mpi.collectives import alltoallv_flat
from repro.mpi.topology import summit_gpu


def _calls_by_caller(monkeypatch, name: str) -> list[tuple[str, str, np.dtype]]:
    """Record ``(caller file, caller function, first argument's dtype)`` of every ``np.<name>`` call."""
    real = getattr(np, name)
    calls: list[tuple[str, str, np.dtype]] = []

    def counting(first, *args, **kwargs):
        frame = sys._getframe(1)
        calls.append((frame.f_code.co_filename, frame.f_code.co_name, np.asarray(first).dtype))
        return real(first, *args, **kwargs)

    monkeypatch.setattr(np, name, counting)
    return calls


class TestStagedRunBudgets:
    """One small staged k-mer run on 6 ranks, one thread."""

    @pytest.fixture
    def staged_run(self, genome_reads, monkeypatch):
        sort_calls = _calls_by_caller(monkeypatch, "sort")
        unique_calls = _calls_by_caller(monkeypatch, "unique")
        argsort_calls = _calls_by_caller(monkeypatch, "argsort")
        inserts = []  # keys per rank, over every block call
        real_insert = SegmentedHashTable.insert_flat

        def counting_insert(self, values, seg_offsets, *args, **kwargs):
            inserts.extend(np.diff(seg_offsets).tolist())
            return real_insert(self, values, seg_offsets, *args, **kwargs)

        monkeypatch.setattr(SegmentedHashTable, "insert_flat", counting_insert)
        cluster = summit_gpu(1)
        options = EngineOptions(parallel=1, fused=False, trace=True)
        result = run_pipeline(genome_reads, cluster, PipelineConfig(k=17), options=options)
        assert result.spectrum.n_distinct > 0
        calls = {"sort": sort_calls, "unique": unique_calls, "argsort": argsort_calls}
        return cluster.n_ranks, inserts, calls, len(options.trace.spans("parse"))

    def test_one_sort_per_insert_batch_none_in_the_probe_loop(self, staged_run):
        n_ranks, inserts, calls, _ = staged_run
        in_table = {
            name: Counter(fn for path, fn, _ in made if path.endswith("gpu/hashtable.py"))
            for name, made in calls.items()
        }
        assert len(inserts) == n_ranks and all(inserts)  # one round: every rank inserted once, by its block's call
        # The dedup is one plain sort (was np.unique); probe_insert arbitrates
        # without a sort, and the merge's pair sort packs words (no argsort at k = 17).
        assert in_table == {"sort": {"dedup_batch": len(inserts)}, "unique": {}, "argsort": {}}

    def test_destination_ordering_sorts_16_bit_owners(self, staged_run):
        _, _, calls, parse_blocks = staged_run
        argsort_calls = calls["argsort"]
        owner_sorts = [dtype for _, fn, dtype in argsort_calls if fn == "stable_order"]
        # One (shard, owner) sort per parse block (was one per rank), a radix pass.
        assert owner_sorts == [np.dtype(np.uint16)] * parse_blocks


class TestMergeBudgets:
    """The merge sorts the result keys once, as packed words (it argsorted every rank, then all of them)."""

    @staticmethod
    def _sorts(patch) -> list[str]:
        """Names of the sort primitives and pair sorts called while ``patch`` is active, in call order."""
        made: list[str] = []

        def counted(name: str, real):
            return lambda *args, **kwargs: made.append(name) or real(*args, **kwargs)

        for name in ("argsort", "sort", "unique"):
            patch.setattr(np, name, counted(name, getattr(np, name)))
        # sorted_items and merge_counts both look it up in the table module
        patch.setattr(hashtable, "sort_pairs", counted("sort_pairs", hashtable.sort_pairs))
        return made

    def test_merge_counts_makes_no_argsort_at_k17(self, genome_reads, monkeypatch):
        counter = DistributedCounter(summit_gpu(1), PipelineConfig(k=17))
        counter.add_reads(genome_reads)
        blocks = segmented.view_blocks(counter.tables)
        keys, counts = map(np.concatenate, zip(*(table.items_flat() for _, _, table in blocks)))
        with monkeypatch.context() as patch:
            made = self._sorts(patch)
            merged = standard.merge_counts(keys, counts)
        assert "argsort" not in made  # 34-bit keys and their counts pack into one word
        expected = count_kmers_exact(genome_reads, 17)
        assert np.array_equal(merged[0], expected.values) and np.array_equal(merged[1], expected.counts)

    def test_streamed_spectrum_sorts_the_result_keys_once(self, genome_reads, monkeypatch):
        monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 16)
        n = genome_reads.n_reads
        counter = DistributedCounter(summit_gpu(4), PipelineConfig(k=17))
        for i in range(2):
            counter.add_reads(genome_reads.select(range(i * n // 2, (i + 1) * n // 2)))
        assert len(segmented.view_blocks(counter.tables)) > 1
        with monkeypatch.context() as patch:
            made = self._sorts(patch)
            spectrum = counter.spectrum()
        assert made == ["sort_pairs"]  # was P + 1 argsorts: each rank's items, then their concatenation
        assert spectrum.equals(count_kmers_exact(genome_reads, 17))

    #: The bloom spectra's ``sha256(values + counts)`` prefixes, as the per-rank ``items()`` merge made them.
    BLOOM_SPECTRA = {"kmer": "439a450f94761214", "supermer": "616e571a7c0d6a2c"}

    @staticmethod
    def _digest(spectrum) -> str:
        return hashlib.sha256(spectrum.values.tobytes() + spectrum.counts.tobytes()).hexdigest()[:16]

    @pytest.mark.parametrize("drive", ["one-shot", "streamed", "spilled"])
    @pytest.mark.parametrize("mode", ["kmer", "supermer"])
    def test_bloom_composition_sorts_the_result_keys_once(self, genome_reads, tmp_path, monkeypatch, mode, drive):
        """A plugin composition merges by the plugin-free rule: each block's unsorted items,
        adjusted by the bloom plugin (+1 an entry, so order is irrelevant), then one pair sort —
        out of the tables, or out of a spilled drive's run files."""
        monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 18)
        config = PipelineConfig(k=17, mode=mode, canonical=mode == "supermer")  # a k-mer may have two owners
        spilled = drive == "spilled"
        options = EngineOptions(stages=("bloom",), parallel=1, trace=spilled, spill_dir=tmp_path if spilled else None)
        with monkeypatch.context() as patch:
            if drive == "streamed":
                n = genome_reads.n_reads
                counter = DistributedCounter(summit_gpu(4), config, options=options)
                for i in range(2):
                    counter.add_reads(genome_reads.select(range(i * n // 2, (i + 1) * n // 2)))
                assert 1 < len(segmented.view_blocks(counter.tables)) < len(counter.tables)
                made = self._sorts(patch)
                spectrum = counter.spectrum()
            else:
                made = self._sorts(patch)  # a one-shot run's pair sorts are all the merge's
                spectrum = run_pipeline(genome_reads, summit_gpu(4), config, options=options).spectrum
        if spilled:  # a run file per table block
            assert len(options.trace.spans("spill:run-write")) >= 2
        # Was P + 1 (each rank's items(), then their concatenation); a spilled
        # drive's was one per rank's run, plus one per chunk the k-way merge emitted.
        assert made.count("sort_pairs") == 1
        assert self._digest(spectrum) == self.BLOOM_SPECTRA[mode]


class TestParseBudgets:
    """The parse pays per block of whole shards; only the model charge is per rank (it was per rank).

    A P = 24 k-mer run whose shards fall into a few parse blocks.  Blocks
    follow the bases, so their number moves with the input, not with P.
    """

    @staticmethod
    def _run(monkeypatch, reads, nodes: int) -> tuple[int, int, int, int]:
        """``(P, parse leaves, parse-body calls, charge_parse calls)`` of one one-shot staged run."""
        bodies, charges = [], []
        real_body, real_charge = standard.window_values, GpuSubstrate.charge_parse

        def counting_body(*args, **kwargs):
            bodies.append(1)
            return real_body(*args, **kwargs)

        def counting_charge(self, *args, **kwargs):
            charges.append(1)
            return real_charge(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(standard, "window_values", counting_body)
            patch.setattr(GpuSubstrate, "charge_parse", counting_charge)
            options = EngineOptions(parallel=1, trace=True)
            cluster = summit_gpu(nodes)
            run_pipeline(reads, cluster, PipelineConfig(k=15), options=options)
        return cluster.n_ranks, len(options.trace.spans("parse")), len(bodies), len(charges)

    def test_one_body_per_block_one_charge_per_rank(self, genome_reads, monkeypatch):
        p, blocks, bodies, charges = self._run(monkeypatch, genome_reads, 4)
        assert p == 24 and 1 <= blocks < p
        assert bodies == blocks  # was P
        assert charges == p  # the model is per rank, by design

    def test_bodies_do_not_grow_with_ranks(self, genome_reads, monkeypatch):
        p, _, bodies, _ = self._run(monkeypatch, genome_reads, 4)
        wider, _, wider_bodies, wider_charges = self._run(monkeypatch, genome_reads, 8)  # P doubled, same input
        assert wider == 2 * p and wider_charges == wider
        assert abs(wider_bodies - bodies) <= 1  # the same bases, so the same blocks within one


class TestExchangeIndexBudget:
    """The resident exchange indexes one destination block at a time, whatever the round holds."""

    BLOCK_BYTES = 1 << 18  # 16,384 uint64 items and their index per block

    @staticmethod
    def _round(n_items: int, p: int = 256):
        rng = np.random.default_rng(n_items)
        counts = rng.multinomial(n_items // p, np.ones(p) / p, size=p).astype(np.int64)
        send = [rng.integers(0, 2**62, size=int(n)).astype(np.uint64) for n in counts.sum(axis=1)]
        return send, counts

    @pytest.mark.parametrize("n_items", [40_000, 640_000])
    def test_largest_index_is_block_sized(self, monkeypatch, n_items):
        monkeypatch.setattr(collectives, "SEGMENT_BLOCK_BYTES", self.BLOCK_BYTES)
        real = collectives.segment_gather_index
        index_items: list[int] = []

        def counting(starts, lens):
            idx = real(starts, lens)
            index_items.append(idx.shape[0])
            return idx

        monkeypatch.setattr(collectives, "segment_gather_index", counting)
        send, counts = self._round(n_items)
        flat = np.concatenate(send)
        block_items = self.BLOCK_BYTES // 16
        assert counts.sum(axis=0).max() < block_items  # no destination is a block of its own
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            received = alltoallv_flat(flat, counts)[0]
            transient = tracemalloc.get_traced_memory()[1] - before - received.nbytes
        finally:
            tracemalloc.stop()
        assert received.shape[0] == flat.shape[0]
        assert len(index_items) >= n_items // (2 * block_items)
        assert max(index_items) <= block_items
        # Index and its construction temporaries, plus a few P x P offset
        # matrices: the same bound for both round sizes, under the 8 bytes
        # per item of one whole-round index at the larger.
        assert transient <= 6 * self.BLOCK_BYTES + 32 * counts.size < 8 * 640_000, transient


class TestExchangeGrowthLaw:
    """The exchange pays per block, never per rank (ROADMAP 8(b)'s first growth law).

    No exchange stages a per-source buffer (``SegmentBlock.gather`` is
    gone) or copies a round into a receive array: the gather indexes of a
    round follow its blocks — the bytes — and so does its checksum: per
    array, one reduction over the whole send array per drive on the send
    side, whatever the rounds, and one per count block's read of a round
    on the received side, whose digests the count folds; no ``reduceat``.
    Quadrupling P at fixed input, or going from two rounds to five, adds
    none.  The per-source form made P views, P staged slices per block and
    2P XOR reductions a round.
    """

    class _CountingXor:
        """``np.bitwise_xor`` with its ``reduce`` and ``reduceat`` calls counted."""

        def __init__(self, real, calls: Counter[str]) -> None:
            self.real, self.calls = real, calls

        def __call__(self, *args, **kwargs):
            return self.real(*args, **kwargs)

        def reduce(self, *args, **kwargs):
            self.calls["reduce"] += 1
            return self.real.reduce(*args, **kwargs)

        def reduceat(self, *args, **kwargs):
            self.calls["reduceat"] += 1
            return self.real.reduceat(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self.real, name)

    @staticmethod
    def _counting(owner, name: str, counts: Counter[str]):
        """``owner.<name>`` with its calls counted."""
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    @classmethod
    def _run(
        cls, monkeypatch, reads, nodes: int, mode: str, spill_dir, n_rounds: int = 2, **options
    ) -> dict[str, float]:
        """Staged-slice gathers and per round gather indexes and count blocks; per drive, reads and XOR calls."""
        counts: Counter[str] = Counter()
        with monkeypatch.context() as patch:
            for name in ("gather", "index"):  # gather: the per-source staging, where it still exists
                if hasattr(collectives.SegmentBlock, name):
                    patch.setattr(collectives.SegmentBlock, name, cls._counting(collectives.SegmentBlock, name, counts))
            patch.setattr(spill, "exchange_digest", cls._counting(spill, "exchange_digest", counts))
            patch.setattr(np, "bitwise_xor", cls._CountingXor(np.bitwise_xor, counts))
            config = PipelineConfig(k=17, mode=mode, n_rounds=n_rounds)
            options = EngineOptions(parallel=1, spill_dir=spill_dir, **options)
            result = run_pipeline(reads, summit_gpu(nodes), config, options=options)
        assert result.n_rounds_used == n_rounds and result.spectrum.n_distinct > 0
        return {
            "gather": counts["gather"],
            "index": counts["index"] / n_rounds,
            "blocks": counts["exchange_digest"] / n_rounds,
            "reads": counts["exchange_digest"],  # a count block's read of a round
            "reductions": counts["reduce"],
            "reduceats": counts["reduceat"],
        }

    @pytest.mark.parametrize("spill", [False, True], ids=["staged", "spill"])
    @pytest.mark.parametrize("mode", ["kmer", "supermer"])
    def test_exchange_calls_do_not_grow_with_ranks(self, genome_reads, tmp_path, monkeypatch, mode, spill):
        base = self._run(monkeypatch, genome_reads, 4, mode, tmp_path / "p24" if spill else None)
        wider = self._run(monkeypatch, genome_reads, 16, mode, tmp_path / "p96" if spill else None)  # P x 4
        longer_dir = tmp_path / "p24r5" if spill else None
        longer = self._run(monkeypatch, genome_reads, 4, mode, longer_dir, n_rounds=5)  # rounds x 2.5
        arrays = 2  # the payload, and its second array: length bytes, or (k = 17) a k-mer's high bytes
        for made in (base, wider, longer):
            assert made["gather"] == 0
            assert made["reduceats"] == 0
            # The send side's one per array per drive, and one per array per count block's read of a round.
            assert made["reductions"] == arrays * (1 + made["reads"])
        assert longer["blocks"] == base["blocks"]
        assert 1 <= base["blocks"] and wider["blocks"] <= base["blocks"]
        assert 1 <= base["index"] and wider["index"] <= base["index"]


class TestSentDigestGrowthLaw:
    """The send side of a multi-round checksum holds O(SEGMENT_BLOCK_BYTES + P), never O(P²).

    It is one reduction per array over the whole send array, once per
    drive, and needs no round cut.  One ``reduceat`` over all P² segment
    bounds took 16 MB a round here at P = 512 (and 27.4 MB on the
    672-rank spilled workload, while the send array was still live).
    """

    P = 512

    def test_traced_peak_is_block_sized(self):
        p = self.P
        counts = np.full((p, p), 2, dtype=np.int64)  # every segment gives each of the two rounds an item
        send = SendArray(data=np.arange(int(counts.sum()), dtype=np.uint64), lengths=None, counts=counts)
        tracemalloc.start()
        try:
            digest = standard.exchange_digest(send.arrays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        halves = send.data.reshape(-1, 2).T  # each segment's two items: round 0's, then round 1's
        assert digest == standard.fold_digests([standard.exchange_digest([half]) for half in halves])
        assert digest == ((2 * p * p, int(np.bitwise_xor.reduce(send.data))),)
        assert peak <= 2 * collectives.SEGMENT_BLOCK_BYTES + 64 * p, peak


class TestOneCutPerRoundBudget:
    """The exchange cuts each round whole once: the accounting, the send-side digest and the spool share that cut.

    Before, a resident round was cut whole twice (its accounting, and the
    digest's one source chunk at this P) and a spooled one three times
    (its spool blocks too; at 672 ranks, 4 whole cuts and 36 source-chunk
    cuts an op of two rounds).  A resident count block still cuts its own
    destinations; no whole cut outlives its exchange.
    """

    @pytest.mark.parametrize("surface", ["one-shot", "streamed"])
    @pytest.mark.parametrize("mode", ["kmer", "supermer"])
    @pytest.mark.parametrize("spooled", [False, True], ids=["resident", "spooled"])
    def test_one_whole_round_cut_per_exchanged_round(self, genome_reads, tmp_path, monkeypatch, spooled, mode, surface):
        monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 16)  # count blocks narrower than P
        real_cut, whole, narrow = SendRound.cut, [], []

        def cutting(self, *args, **kwargs):
            counts, starts = real_cut(self, *args, **kwargs)
            (whole if counts.shape == self.send.counts.shape else narrow).append(self.rnd)
            return counts, starts

        monkeypatch.setattr(SendRound, "cut", cutting)
        config = PipelineConfig(k=17, mode=mode, n_rounds=3)
        options = EngineOptions(parallel=1, spill_dir=tmp_path if spooled else None)
        if surface == "one-shot":
            spectrum = run_pipeline(genome_reads, summit_gpu(4), config, options=options).spectrum
        else:
            counter = DistributedCounter(summit_gpu(4), config, options=options)
            counter.add_reads(genome_reads)
            spectrum = counter.spectrum()
        assert spectrum.equals(count_kmers_exact(genome_reads, 17))
        assert whole == [0, 1, 2]
        assert bool(narrow) != spooled  # a resident count block cuts its destinations; a spooled one reads back


class TestCheckpointBudgets:
    """The checkpoint is the table: saving sorts nothing, loading probes nothing."""

    @pytest.mark.parametrize("fused", [False, True], ids=["per-rank", "flat"])
    def test_save_sorts_nothing_and_load_probes_nothing(self, genome_reads, tmp_path, monkeypatch, fused):
        counter = DistributedCounter(summit_gpu(1), PipelineConfig(k=17), options=EngineOptions(fused=fused))
        counter.add_reads(genome_reads)
        calls: list[str] = []

        def forbidden(name: str):
            def called(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called on the checkpoint path")

            return called

        for name in ("argsort", "unique", "sort"):
            monkeypatch.setattr(np, name, forbidden(f"np.{name}"))
        for module in (hashtable, segmented):
            for name in ("sorted_items", "probe_insert"):
                monkeypatch.setattr(module, name, forbidden(name))
        path = counter.save(tmp_path / "ck.npz")
        resumed = DistributedCounter(summit_gpu(1), PipelineConfig(k=17), options=EngineOptions(fused=fused))
        resumed.load(path)
        monkeypatch.undo()
        assert calls == []
        assert resumed.spectrum().equals(counter.spectrum())

    def test_member_count_is_independent_of_ranks_and_batches(self, genome_reads, tmp_path):
        members = set()
        for nodes, n_batches in ((1, 1), (2, 1), (4, 3)):
            counter = DistributedCounter(summit_gpu(nodes), PipelineConfig(k=17))
            for _ in range(n_batches):
                counter.add_reads(genome_reads)
            with zipfile.ZipFile(counter.save(tmp_path / f"ck-{nodes}-{n_batches}.npz")) as zf:
                assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}
                members.add(tuple(sorted(zf.namelist())))
        assert len(members) == 1 and len(members.pop()) == 17  # format version 4: `canonical` beside `k`


class TestRankBlockBudgets:
    """The count pays per rank *block*: probe loops, run files and maps (it was per rank).

    A P = 24 k-mer run whose ranks fall into three blocks.  Blocks follow
    the bytes the tables are expected to hold, so their number moves with
    the input, not with the rank count.
    """

    @staticmethod
    def _run(monkeypatch, reads, nodes: int, tmp_path=None, n_rounds: int = 1):
        """``(P, blocks, count leaves, probe_insert calls, regrows, files)`` of one run."""
        probes, regrows = [], []
        opened: list[tuple[str, str]] = []
        real_probe, real_regrow = segmented.probe_insert, SegmentedHashTable._regrow

        def counting_probe(*args, **kwargs):
            probes.append(1)
            return real_probe(*args, **kwargs)

        def counting_regrow(self, new_caps):
            regrows.append(1)
            return real_regrow(self, new_caps)

        def counting_open(real, default_mode):
            def wrapper(file, *args, **kwargs):
                if isinstance(file, (str, os.PathLike)):
                    mode = args[0] if args else kwargs.get("mode", kwargs.get("flags", default_mode))
                    opened.append((os.path.basename(os.fspath(file)), mode))
                return real(file, *args, **kwargs)

            return wrapper

        with monkeypatch.context() as patch:
            patch.setattr(segmented, "probe_insert", counting_probe)
            patch.setattr(SegmentedHashTable, "_regrow", counting_regrow)
            patch.setattr(builtins, "open", counting_open(builtins.open, "r"))
            patch.setattr(os, "open", counting_open(os.open, None))
            options = EngineOptions(parallel=1, trace=True, spill_dir=tmp_path)
            cluster = summit_gpu(nodes)
            result = run_pipeline(reads, cluster, PipelineConfig(k=15, n_rounds=n_rounds), options=options)
        assert result.n_rounds_used == n_rounds
        leaves = [s for s in options.trace.spans() if s.name.split("-round")[0] == "count"]
        blocks = {tuple(s.meta["ranks"]) for s in leaves}
        assert len(leaves) == len(blocks) * n_rounds
        round_files = [name for name, mode in opened if name.endswith(".data")]
        run_writes = [name for name, mode in opened if name.startswith("run.r") and mode == "wb"]
        run_maps = [name for name, mode in opened if name.startswith("run.r") and mode != "wb"]
        files = (len(round_files), len(run_writes), len(run_maps))
        return cluster.n_ranks, len(blocks), len(leaves), len(probes), len(regrows), files

    def test_probe_loops_per_block_not_per_rank(self, genome_reads, monkeypatch):
        p, blocks, leaves, probes, regrows, _ = self._run(monkeypatch, genome_reads, 4, n_rounds=2)
        assert (p, blocks) == (24, 3)
        assert regrows <= leaves  # a block call re-lays its table at most once
        assert probes <= leaves + regrows  # was P + regrowing ranks per round

    def test_spilled_run_files_per_block(self, genome_reads, tmp_path, monkeypatch):
        p, blocks, leaves, probes, regrows, files = self._run(
            monkeypatch, genome_reads, 4, tmp_path=tmp_path, n_rounds=2
        )
        assert (p, blocks) == (24, 3)
        assert files == (2, blocks, blocks)  # rounds + blocks files written, blocks run files mapped; was 2P run opens
        assert probes <= leaves + regrows

    def test_growth_with_ranks_and_with_reads(self, genome_reads, tmp_path, monkeypatch):
        base = self._run(monkeypatch, genome_reads, 4, tmp_path=tmp_path)
        wider = self._run(monkeypatch, genome_reads, 8, tmp_path=tmp_path)  # P doubled, same input
        both = list(range(genome_reads.n_reads)) * 2
        larger = self._run(monkeypatch, genome_reads.select(both), 4, tmp_path=tmp_path)  # reads doubled, same P
        (p, blocks, _, probes, regrows, files) = base
        assert (wider[0], larger[0]) == (2 * p, p)
        # Doubling P at fixed input: the same bytes, so the same blocks (within one) and so
        # the same probe loops and files, where the per-rank bodies doubled all three.
        assert abs(wider[1] - blocks) <= 1
        assert wider[3] <= probes + 2 and wider[5][0] == files[0] and wider[5][1] <= files[1] + 1
        # Doubling the reads at fixed P: round files unchanged; blocks follow the bytes, never past P.
        assert larger[5][0] == files[0] and blocks <= larger[1] <= min(p, 2 * blocks + 1)
        assert larger[5][1:] == (larger[1], larger[1])


class TestOneTableBudgets:
    """Every table is born once, in rank blocks, and never copied into another.

    A flip to the fused strategy or a first batch after a load must not copy
    the state into a new table, and a regrow must not re-lay regions of
    blocks that did not grow (one flat table re-laid its whole slab).
    """

    @staticmethod
    def _births(patch) -> list[int]:
        """Every table birth, however made (``_init_backing`` runs once per table)."""
        births: list[int] = []
        real = SegmentedHashTable._init_backing
        patch.setattr(SegmentedHashTable, "_init_backing", lambda self, *a: births.append(1) or real(self, *a))
        return births

    @pytest.mark.parametrize("fused", [False, True], ids=["per-rank", "flat"])
    @pytest.mark.parametrize("spill", [False, True], ids=["resident", "spilled"])
    def test_one_birth_per_block(self, genome_reads, tmp_path, monkeypatch, fused, spill):
        monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 18)
        births = self._births(monkeypatch)
        options = EngineOptions(trace=True, fused=fused, spill_dir=tmp_path if spill else None)
        run_pipeline(genome_reads, summit_gpu(4), PipelineConfig(k=15, n_rounds=2), options=options)
        leaves = [s for s in options.trace.spans() if s.name.split("-round")[0].endswith("count")]
        blocks = {tuple(s.meta["ranks"]) for s in leaves}
        assert len(blocks) > 1 and len(births) == len(blocks)

    def test_no_table_is_born_after_the_first_batch_or_the_load(self, genome_reads, tmp_path, monkeypatch):
        """A strategy flip and a resume count through the tables there are: no slot is copied."""
        monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 18)
        n = genome_reads.n_reads
        batches = [genome_reads.select(range(i * n // 3, (i + 1) * n // 3)) for i in range(3)]
        cluster, config = summit_gpu(4), PipelineConfig(k=15)
        flipped = DistributedCounter(cluster, config)
        flipped.add_reads(batches[0])
        births = self._births(monkeypatch)
        for batch, fused in zip(batches[1:], (True, False)):
            flipped._scheduler.opts = EngineOptions(fused=fused)
            flipped.add_reads(batch)
        assert births == []

        resumed = DistributedCounter(cluster, config, options=EngineOptions(fused=True))
        births.clear()  # the fresh state's one table of empty regions
        resumed.load(flipped.save(tmp_path / "ck.npz"))
        assert len(births) == len(segmented.view_blocks(resumed.tables)) > 1  # born by the load, in blocks
        resumed.add_reads(batches[0])
        assert len(births) == len(segmented.view_blocks(resumed.tables))

    @staticmethod
    def _regrows(monkeypatch, reads, nodes: int) -> tuple[list[int], list[int]]:
        """``(bytes each regrow after batch 1 laid, bytes of the batch-1 rank blocks holding its grown regions)``.

        A P-rank k-mer counter on the fused strategy, fed twelve batches; the
        blocks are the ones :func:`~repro.core.stages.plan.table_blocks` gives
        for the first batch's received k-mers.
        """
        n = reads.n_reads
        counter = DistributedCounter(summit_gpu(nodes), PipelineConfig(k=17), options=EngineOptions(fused=True))
        counter.add_reads(reads.select(range(n // 12)))
        blocks = plan.table_blocks(counter.received_kmers)
        first_rank = {id(table): r0 for r0, _, table in segmented.view_blocks(counter.tables)}
        laid, bound = [], []
        real = SegmentedHashTable._regrow

        def measured(self, new_caps):
            grown = first_rank[id(self)] + np.flatnonzero(new_caps != self.capacities)
            caps = np.zeros(counter.received_kmers.shape[0], dtype=np.int64)
            r0 = first_rank[id(self)]
            caps[r0 : r0 + self.n_ranks] = new_caps
            laid.append(16 * int(new_caps.sum()))
            bound.append(sum(16 * int(caps[b0:b1].sum()) for b0, b1 in blocks if ((grown >= b0) & (grown < b1)).any()))
            return real(self, new_caps)

        with monkeypatch.context() as patch:
            patch.setattr(SegmentedHashTable, "_regrow", measured)
            for i in range(1, 12):
                counter.add_reads(reads.select(range(i * n // 12, (i + 1) * n // 12)))
        return laid, bound

    def test_regrow_lays_only_the_blocks_that_grew(self, genome_reads, monkeypatch):
        """P = 24: a regrow re-lays the blocks holding a grown region, not the whole slab."""
        monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 16)
        laid, bound = self._regrows(monkeypatch, genome_reads, 4)
        assert laid and all(a <= b for a, b in zip(laid, bound))

    def test_bytes_laid_per_regrow_do_not_grow_with_ranks(self, genome_reads, monkeypatch):
        monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 16)
        base, _ = self._regrows(monkeypatch, genome_reads, 4)
        wider, _ = self._regrows(monkeypatch, genome_reads, 8)  # P doubled, same input
        assert base and wider and max(wider) <= max(base) + segmented.INSERT_BLOCK_BYTES


class TestStreamedBirthBudgets:
    """Under a host budget a streamed state is born at its first batch's parsed k-mers per rank, so it regrows only for new keys.

    The regions were born at 128 slots and regrown by every batch that
    brought keys (12 regrows per ``stream-ooc`` op, 9 of them rehashing
    live entries).  The drive plan's birth hints bound a balanced batch's
    distinct keys per rank, so here (12x coverage, later batches of known
    keys) no batch calls ``_regrow``; the old rule regrew in every one.
    """

    BUDGET = 1 << 30  # room for every parsed k-mer's slot, one round a batch

    @pytest.mark.parametrize("mode", ["kmer", "supermer"])
    @pytest.mark.parametrize("spill", [False, True], ids=["staged", "fused-spill"])
    def test_a_stream_of_known_keys_never_regrows(self, genome_reads, tmp_path, monkeypatch, mode, spill):
        regrows: list[int] = []
        real = SegmentedHashTable._regrow
        monkeypatch.setattr(SegmentedHashTable, "_regrow", lambda self, caps: regrows.append(1) or real(self, caps))
        options = (
            EngineOptions(
                fused=True,
                spill_dir=tmp_path / "spool",
                table_dir=tmp_path / "tables",
                host_memory_budget=self.BUDGET,
            )
            if spill
            else EngineOptions(host_memory_budget=self.BUDGET)
        )
        counter = DistributedCounter(summit_gpu(2), PipelineConfig(k=17, mode=mode), options=options)
        half = genome_reads.select(range(genome_reads.n_reads // 2))
        per_batch = []
        for batch in (genome_reads, half, genome_reads):  # the later batches bring no new key
            counter.add_reads(batch)
            per_batch.append(len(regrows))
            regrows.clear()
        assert per_batch == [0, 0, 0]
        assert counter.insert_stats.resizes == 0
        assert counter.spectrum().equals(count_kmers_exact(ReadSet.concat([genome_reads, half, genome_reads]), 17))


class TestHostBytesPerKmer:
    """A k-mer's host form is its low 32-bit word, plus a high byte at k = 17..20: 4, 5 or 8 B, not 8 every time.

    The send array held every parsed k-mer as a ``uint64`` (8 B at k = 17,
    as at k = 21); now it holds 4 B at k = 16 and 5 B at k = 17, and a
    spooled drive writes its partitions at those bytes per item too (the
    spool's bytes around each round's appends; the run files it also
    writes are the tables' dumps, 16 B a key).  The model still charges
    the wire bytes: 4 up to k = 16, else 8.
    """

    @pytest.mark.parametrize("k, per_kmer", [(16, 4), (17, 5), (21, 8)])
    def test_send_array_and_spool_bytes_per_parsed_kmer(self, genome_reads, tmp_path, monkeypatch, k, per_kmer):
        held, spooled = [], []
        real_parse, real_append = scheduler.Layout.parse, spill.SpillSpool.append_round

        def parsing(self, *args, **kwargs):
            send, summary = real_parse(self, *args, **kwargs)
            held.append((sum(array.nbytes for array in send.arrays), int(summary.n_kmers.sum())))
            return send, summary

        def appending(self, label, round_, counts, starts):
            before = self.bytes_written
            real_append(self, label, round_, counts, starts)
            spooled.append((self.bytes_written - before, int(counts.sum())))

        monkeypatch.setattr(scheduler.Layout, "parse", parsing)
        monkeypatch.setattr(spill.SpillSpool, "append_round", appending)
        config = PipelineConfig(k=k, n_rounds=2)
        for spill_dir in (None, tmp_path):
            result = run_pipeline(genome_reads, summit_gpu(2), config, options=EngineOptions(spill_dir=spill_dir))
            assert result.exchanged_bytes == result.exchanged_items * config.wire_bytes  # the model: wire bytes
        assert len(held) == 2 and all(nbytes == per_kmer * n_kmers > 0 for nbytes, n_kmers in held), held
        assert len(spooled) == 2 and all(nbytes == per_kmer * items > 0 for nbytes, items in spooled), spooled


class TestParseInputGrowthLaw:
    """The parse reads the input in place: one view per block, never a copy per shard (ROADMAP 8(b)).

    A shard is a base range of the input and a parse block one view of its
    codes (``repro.dna.reads.ShardRanges``), so the read sets a one-shot
    drive builds follow the blocks — the bases — and quadrupling P at fixed
    input adds none.  The fragment rule built P shard copies, and one more
    per block of several shards to concatenate them into.
    """

    @staticmethod
    def _run(monkeypatch, reads, nodes: int, mode: str, spill_dir) -> tuple[int, list]:
        """The read sets built in one one-shot drive, and the ones each parse block was handed."""
        built: list[int] = []
        handed: list = []
        real_post_init = standard.ReadSet.__post_init__

        def counting_post_init(self):
            built.append(1)
            real_post_init(self)

        with monkeypatch.context() as patch:
            for stage in (standard.KmerParse, standard.SupermerParse):
                real = stage.extract_at

                def recording(self, block, config, real=real):
                    handed.append(block)
                    return real(self, block, config)

                patch.setattr(stage, "extract_at", recording)
            patch.setattr(standard.ReadSet, "__post_init__", counting_post_init)
            config = PipelineConfig(k=17, mode=mode)
            options = EngineOptions(parallel=1, spill_dir=spill_dir)
            result = run_pipeline(reads, summit_gpu(nodes), config, options=options)
        assert result.spectrum.n_distinct > 0
        return len(built), handed

    @pytest.mark.parametrize("spill", [False, True], ids=["staged", "spill"])
    @pytest.mark.parametrize("mode", ["kmer", "supermer"])
    def test_read_sets_do_not_grow_with_ranks(self, genome_reads, tmp_path, monkeypatch, mode, spill):
        base, base_blocks = self._run(monkeypatch, genome_reads, 4, mode, tmp_path / "p24" if spill else None)
        wider, wider_blocks = self._run(monkeypatch, genome_reads, 16, mode, tmp_path / "p96" if spill else None)
        assert wider <= base <= len(base_blocks)  # P x 4: not one read set more, and none but the blocks'
        for block in base_blocks + wider_blocks:
            assert np.shares_memory(block.codes, genome_reads.codes)


class TestRunDumpGrowthLaw:
    """A spilled one-shot drive dumps one run file per table block, never a run per rank (ROADMAP 8(b)).

    Each block's table is dumped as its occupied slots in one storage pass
    and one file, and the merge sorts every block's pairs at once, so
    quadrupling P at fixed input adds no file and no per-rank sort.  The
    per-rank dump made P ``items_of`` sorts and P runs.
    """

    @staticmethod
    def _run(monkeypatch, reads, nodes: int, spill_dir) -> tuple[int, int, int, int]:
        """``(P, table blocks, run files written, items_of calls made from the spill module)`` of one drive."""
        written: list[int] = []
        from_spill: list[int] = []
        real_write, real_items_of = spill.SpillSpool.write_run, SegmentedHashTable.items_of

        def counting_write(self, *args, **kwargs):
            written.append(1)
            return real_write(self, *args, **kwargs)

        def counting_items_of(self, rank):
            if sys._getframe(1).f_code.co_filename == spill.__file__:
                from_spill.append(1)
            return real_items_of(self, rank)

        with monkeypatch.context() as patch:
            patch.setattr(spill.SpillSpool, "write_run", counting_write)
            patch.setattr(SegmentedHashTable, "items_of", counting_items_of)
            options = EngineOptions(parallel=1, trace=True, spill_dir=spill_dir)
            cluster = summit_gpu(nodes)
            result = run_pipeline(reads, cluster, PipelineConfig(k=15), options=options)
        assert result.spectrum.equals(count_kmers_exact(reads, 15))
        blocks = {tuple(s.meta["ranks"]) for s in options.trace.spans() if s.name == "count"}
        return cluster.n_ranks, len(blocks), len(written), len(from_spill)

    def test_run_files_do_not_grow_with_ranks(self, genome_reads, tmp_path, monkeypatch):
        base = self._run(monkeypatch, genome_reads, 4, tmp_path / "p24")
        wider = self._run(monkeypatch, genome_reads, 16, tmp_path / "p96")  # P x 4, same input
        # One file per table block, and the blocks follow the bytes the tables
        # hold, not the ranks: 3 files at both P, where the per-rank dump wrote
        # P runs (24, then 96) after P items_of sorts.
        assert base == (24, 3, 3, 0) and wider == (96, 3, 3, 0)


class TestDriveShapeBudgets:
    """Every drive exchanges every round, then counts one table block at a time.

    So a one-shot drive never holds more block tables than the pool has
    workers (each block's table is born, counted, dumped and closed before
    its worker's next block), a spooled drive's send array is dead before
    the first block is counted, and its segment files before the merge.
    Counting inside each round held every block's table from the first
    round to the merge, beside the send array.
    """

    STRATEGIES = {
        "staged": {},
        "fused": {"fused": True},
        "spill": {"spill": True},
        "fused-spill": {"fused": True, "spill": True},
    }

    @staticmethod
    def _run(reads, tmp_path, strategy: str, mode: str, **kw):
        opts = dict(TestDriveShapeBudgets.STRATEGIES[strategy])
        if opts.pop("spill", False):
            opts["spill_dir"] = tmp_path
        config = PipelineConfig(k=17, mode=mode, n_rounds=2)
        result = run_pipeline(reads, summit_gpu(4), config, options=EngineOptions(**opts, **kw))
        assert result.spectrum.equals(count_kmers_exact(reads, 17))

    @pytest.mark.parametrize("mode", ["kmer", "supermer"])
    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_open_tables_never_exceed_the_workers(self, genome_reads, tmp_path, monkeypatch, strategy, mode):
        monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 16)  # many more blocks than workers
        born, open_tables, most = [], set(), [0]
        real_block_table, real_close = spill.block_table, SegmentedHashTable.close

        def opening(*args, **kwargs):
            table = real_block_table(*args, **kwargs)
            born.append(1)
            open_tables.add(id(table))
            most[0] = max(most[0], len(open_tables))
            return table

        def closing(self):
            open_tables.discard(id(self))
            return real_close(self)

        monkeypatch.setattr(spill, "block_table", opening)
        monkeypatch.setattr(SegmentedHashTable, "close", closing)
        self._run(genome_reads, tmp_path, strategy, mode, parallel="thread:2")
        assert len(born) > 2 and 1 <= most[0] <= 2  # was every block's table at once: len(born)
        assert not open_tables

    @pytest.mark.parametrize("mode", ["kmer", "supermer"])
    @pytest.mark.parametrize("strategy", ["spill", "fused-spill"])
    def test_send_array_is_dead_before_the_first_count(self, genome_reads, tmp_path, monkeypatch, strategy, mode):
        """A spooled drive's count reads the spool only: the parse output is gone before its first block.

        (A resident drive's count gathers out of the send array, so there
        it lives until the last block: ``TestZeroCopyExchangeBudgets``
        bounds what that drive allocates instead.)
        """
        sent, alive_at_count = [], []
        real_parse, real_count = scheduler.Layout.parse, standard.TableCount.count_block

        def parsing(self, *args, **kwargs):
            send, summary = real_parse(self, *args, **kwargs)
            sent.extend((weakref.ref(send), weakref.ref(send.data)))
            return send, summary

        def counting(self, *args, **kwargs):
            if not alive_at_count:
                alive_at_count.extend(ref() is not None for ref in sent)
            return real_count(self, *args, **kwargs)

        monkeypatch.setattr(scheduler.Layout, "parse", parsing)
        monkeypatch.setattr(standard.TableCount, "count_block", counting)
        self._run(genome_reads, tmp_path, strategy, mode, parallel=1)
        assert alive_at_count == [False, False]  # the SendArray and its data: both freed

    @pytest.mark.parametrize("mode", ["kmer", "supermer"])
    def test_segment_files_are_gone_before_the_merge(self, genome_reads, tmp_path, monkeypatch, mode):
        """Once a spooled drive's count ends, the spool holds its blocks' run files and no segment file.

        The rounds are dropped after the last block is counted, before the
        merge maps the runs back, so the merge's peak is not the spool's
        whole exchange beside it.
        """
        at_merge = []
        real_merge = spill.Spooled.merge

        def merging(self):
            at_merge.extend(sorted(p.name for p in self.spool.dir.iterdir() if p.name != segmented.OWNER_FILE))
            return real_merge(self)

        monkeypatch.setattr(spill.Spooled, "merge", merging)
        monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 16)  # several blocks, so several runs
        self._run(genome_reads, tmp_path, "spill", mode, parallel=1)
        assert len(at_merge) > 1 and all(name.startswith("run.r") for name in at_merge), at_merge


class TestZeroCopyExchangeBudgets:
    """No exchange copies the send array: a resident count gathers each block's extent straight out of it.

    The engine makes no ``alltoallv_flat`` call, and no gather reads more
    of the send array at once than one table block's extent of a round —
    the whole-round receive array, and the whole-round ``np.take`` of the
    round split before it, are gone.  So from the end of the parse to the
    start of the merge a resident drive allocates no more than blocks'
    worth beside the send array: before, the receive array alone was as
    large as the send array.
    """

    @staticmethod
    def _engine_modules():
        return [module for name, module in sys.modules.items() if name.startswith("repro.core")]

    @pytest.mark.parametrize("mode", ["kmer", "supermer"])
    @pytest.mark.parametrize("spooled", [False, True], ids=["resident", "spooled"])
    def test_no_whole_round_gather(self, genome_reads, tmp_path, monkeypatch, mode, spooled):
        flat_calls, takes, gathered, sent = [], [], [], []
        real_flat, real_take, real_parse = collectives.alltoallv_flat, np.take, scheduler.Layout.parse
        real_gather = collectives.SegmentBlock.take

        def gathering(self, sends, outs):
            gathered.append(self.o1 - self.o0)
            return real_gather(self, sends, outs)

        def parsing(self, *args, **kwargs):
            send, summary = real_parse(self, *args, **kwargs)
            sent.extend(send.arrays)
            return send, summary

        def taking(a, indices, *args, **kwargs):
            if any(a is array for array in sent):
                takes.append(np.asarray(indices).size)
            return real_take(a, indices, *args, **kwargs)

        # Blocks well below a round, as they are at scale: count blocks and spool blocks both.
        monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 16)
        monkeypatch.setattr(collectives, "SEGMENT_BLOCK_BYTES", 1 << 16)
        monkeypatch.setattr(collectives, "alltoallv_flat", lambda *a, **kw: flat_calls.append(1) or real_flat(*a, **kw))
        monkeypatch.setattr(np, "take", taking)
        monkeypatch.setattr(collectives.SegmentBlock, "take", gathering)
        monkeypatch.setattr(scheduler.Layout, "parse", parsing)
        config = PipelineConfig(k=17, mode=mode, n_rounds=2)
        options = EngineOptions(parallel=1, spill_dir=tmp_path if spooled else None)
        result = run_pipeline(genome_reads, summit_gpu(4), config, options=options)
        assert result.spectrum.equals(count_kmers_exact(genome_reads, 17))
        assert not flat_calls and not any(hasattr(module, "alltoallv_flat") for module in self._engine_modules())
        half_round = sent[0].shape[0] // 4
        assert gathered and max(gathered) < half_round  # block-sized gathers, never a whole round
        assert all(n < half_round for n in takes)  # nor a whole-round np.take of the send array

    @pytest.mark.parametrize("strategy", ["staged", "fused"])
    def test_no_allocation_after_the_parse_is_half_the_send_array(self, genome_reads, monkeypatch, strategy):
        """One-round resident k-mer drive: its exchange and count add blocks beside the send array, not a receive array.

        Measured from the end of the parse to the start of the merge, above
        the send array and the block dumps the merge will read (those grow
        by one block's distinct keys per block, by design).
        """
        monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 16)  # block tables, not the send array, are small
        parsed, at_merge = [], []
        real_parse, real_merge = scheduler.Layout.parse, spill.Resident.merge

        def parsing(self, *args, **kwargs):
            send, summary = real_parse(self, *args, **kwargs)
            parsed.append((send.data.nbytes, tracemalloc.get_traced_memory()[0]))
            tracemalloc.reset_peak()
            return send, summary

        def merging(self):
            at_merge.append((tracemalloc.get_traced_memory()[1], sum(a.nbytes for dump in self.dumps for a in dump)))
            return real_merge(self)

        monkeypatch.setattr(scheduler.Layout, "parse", parsing)
        monkeypatch.setattr(spill.Resident, "merge", merging)
        options = EngineOptions(parallel=1, fused=strategy == "fused")
        tracemalloc.start()
        try:
            result = run_pipeline(genome_reads, summit_gpu(4), PipelineConfig(k=17), options=options)
        finally:
            tracemalloc.stop()
        assert result.n_rounds_used == 1 and result.spectrum.equals(count_kmers_exact(genome_reads, 17))
        ((send_bytes, after_parse),), ((peak, dumps),) = parsed, at_merge
        assert peak - after_parse - dumps < send_bytes // 2, (peak - after_parse - dumps, send_bytes)

    @pytest.mark.parametrize("spooled", [False, True], ids=["resident", "spooled"])
    def test_checksum_is_one_reduction_per_count_block(self, genome_reads, tmp_path, monkeypatch, spooled):
        """Per array: the send side's one reduction per drive, then one per count block's read, many blocks or few."""
        monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 16)  # many more count blocks than rounds
        spill_dir = tmp_path if spooled else None
        made = TestExchangeGrowthLaw._run(monkeypatch, genome_reads, 4, "supermer", spill_dir)
        assert made["blocks"] > 2
        assert made["reduceats"] == 0 and made["reductions"] == 2 * (1 + made["reads"])


class TestPairFoldBudgets:
    """A sum over equal keys is one pair fold (``merge_counts``): one pair sort, no ``unique``, no float ``bincount``.

    A weighted insert's dedup took an ``np.unique`` and a float64 ``bincount``,
    the sort-based counter a stable argsort and a ``bincount``, and the
    Bloom prefilter counted its repeats in a private hash table.
    """

    @staticmethod
    def _folds(patch) -> dict[str, int]:
        """Calls of the pair sort, ``np.unique`` and ``np.bincount`` while ``patch`` is active."""
        made = Counter()

        def counted(name: str, real):
            return lambda *args, **kwargs: made.update([name]) or real(*args, **kwargs)

        for name in ("unique", "bincount"):
            patch.setattr(np, name, counted(name, getattr(np, name)))
        patch.setattr(hashtable, "sort_pairs", counted("sort_pairs", hashtable.sort_pairs))
        return made

    def test_weighted_insert_folds_once(self, genome_reads, monkeypatch):
        kmers = extract_kmers(genome_reads, 17)
        weights = np.arange(kmers.shape[0], dtype=np.int64) % 5 + 1
        table = hashtable.DeviceHashTable(kmers.shape[0])  # sized so the insert does not grow it
        with monkeypatch.context() as patch:
            made = self._folds(patch)
            table.insert_batch(kmers, weights=weights)
        assert made == {"sort_pairs": 1}
        uniq, inverse = np.unique(kmers, return_inverse=True)
        summed = np.zeros(uniq.shape[0], dtype=np.int64)
        np.add.at(summed, inverse, weights)
        values, counts = table.items()
        assert np.array_equal(values, uniq) and np.array_equal(counts, summed)

    def test_sorting_counter_folds_once_per_batch(self, genome_reads, monkeypatch):
        kmers = extract_kmers(genome_reads, 17)
        counter = SortingCounter()
        counter.insert_batch(kmers[: kmers.shape[0] // 2])
        with monkeypatch.context() as patch:
            made = self._folds(patch)
            counter.insert_batch(kmers[kmers.shape[0] // 2 :])
        assert made == {"sort_pairs": 1}
        expected = count_kmers_exact(genome_reads, 17)
        assert np.array_equal(counter.values, expected.values) and np.array_equal(counter.counts, expected.counts)

    def test_prefilter_builds_no_table(self, genome_reads, monkeypatch):
        births = TestOneTableBudgets._births(monkeypatch)
        result = count_with_prefilter(extract_kmers(genome_reads, 17), bits_per_key=30, n_hashes=6)
        assert births == []
        expected = count_kmers_exact(genome_reads, 17)
        repeated = expected.counts >= 2
        assert np.array_equal(result.values, expected.values[repeated])
        assert np.array_equal(result.counts, expected.counts[repeated])


class TestLeanTransientBudgets:
    """No transient of the merge, the read simulator or the owner hash is a multiple of the whole input.

    The merge held its block dumps beside their concatenation, then the
    sort's packed words and unpacked keys (~56 B per entry); the read
    simulator drew one float64 per base (~10 B per base); the owner hash
    mixed through three uint64 temporaries; and a checkpoint save dumped
    every rank's region by its own call.
    """

    @staticmethod
    def _traced(fn, *args):
        """``(fn(*args), traced peak above what was live when it was called)``."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            return fn(*args), tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_merge_holds_at_most_36_bytes_per_entry(self):
        """Over pairs only the merge holds: 16 B of pairs, 16 B of output, a boolean pass."""
        rng = np.random.default_rng(40)
        n_blocks, per_block = 8, 1 << 15
        n = n_blocks * per_block
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pairs = [  # disjoint keys per block, unsorted, as a block table's slots hold them
                (rng.permutation(np.arange(b, n, n_blocks, dtype=np.uint64)), rng.integers(1, 1000, per_block))
                for b in range(n_blocks)
            ]
            tracemalloc.reset_peak()
            spectrum = standard.merge_items(pairs, 17)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert pairs == [None] * n_blocks  # handed over: each block freed once copied
        assert spectrum.n_distinct == n and bool(np.all(spectrum.values[1:] > spectrum.values[:-1]))
        assert peak <= 36 * n, peak / n

    def test_spooled_merge_maps_one_run_file_at_a_time(self, genome_reads, tmp_path, monkeypatch):
        monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 16)  # several blocks, so several runs
        refs, live_at_map = [], []
        real_map = spill.SpillSpool.map_run

        def mapping(self, rank0):
            live_at_map.append(sum(ref() is not None for ref in refs))
            keys, counts = real_map(self, rank0)
            refs.append(weakref.ref(keys))
            return keys, counts

        monkeypatch.setattr(spill.SpillSpool, "map_run", mapping)
        options = EngineOptions(parallel=1, spill_dir=tmp_path)
        result = run_pipeline(genome_reads, summit_gpu(4), PipelineConfig(k=17), options=options)
        assert result.spectrum.equals(count_kmers_exact(genome_reads, 17))
        assert len(live_at_map) > 1 and max(live_at_map) == 0, live_at_map

    def test_substitutions_hold_3_bytes_per_base_and_one_chunk(self):
        rng = np.random.default_rng(41)
        n_reads, read_len = 1 << 12, 1023  # 4 Mi codes, a sentinel after every read
        codes = rng.integers(0, 4, n_reads * (read_len + 1), dtype=np.uint8)
        codes[read_len :: read_len + 1] = 4
        offsets = np.arange(n_reads, dtype=np.int64) * (read_len + 1)
        reads = ReadSet(codes=codes, offsets=offsets, lengths=np.full(n_reads, read_len, dtype=np.int64))
        mutated, peak = self._traced(simulate._apply_substitutions, reads, 0.01, np.random.default_rng(3))
        assert peak <= 3 * codes.shape[0] + (8 << 20), peak / codes.shape[0]
        assert bool(np.all(mutated.codes[read_len :: read_len + 1] == 4))
        assert 0 < int((mutated.codes != codes).sum()) < codes.shape[0] // 50

    def test_substitution_chunks_draw_one_stream(self, monkeypatch):
        """Chunked uniforms are the stream one draw gives: the flips do not depend on the chunk."""
        reads = ReadSet(
            codes=np.random.default_rng(42).integers(0, 4, 10_000, dtype=np.uint8),
            offsets=np.zeros(1, dtype=np.int64),
            lengths=np.full(1, 10_000, dtype=np.int64),
        )
        whole = simulate._apply_substitutions(reads, 0.05, np.random.default_rng(5)).codes
        monkeypatch.setattr(simulate, "SUBSTITUTION_CHUNK", 777)
        assert np.array_equal(simulate._apply_substitutions(reads, 0.05, np.random.default_rng(5)).codes, whole)

    def test_owner_hash_holds_two_words_per_key(self):
        keys = np.random.default_rng(43).integers(0, 1 << 34, 1 << 18, dtype=np.uint64)
        owners, peak = self._traced(owners_of, keys, 96)
        assert peak <= (2 * 8 + 4) * keys.shape[0], peak / keys.shape[0]
        expected = np.array([owner_of(int(key), 96) for key in keys[:1000]], dtype=np.int32)
        assert owners.dtype == np.int32 and np.array_equal(owners[:1000], expected)

    def test_checkpoint_dumps_once_per_block_table(self, genome_reads, tmp_path, monkeypatch):
        """One ``dump_slots`` per block table, and the members the per-rank dumps gave, byte for byte."""
        monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 20)  # several block tables of several ranks
        counter = DistributedCounter(summit_gpu(4), PipelineConfig(k=17))
        counter.add_reads(genome_reads)
        blocks = segmented.view_blocks(counter.tables)
        assert 1 < len(blocks) < len(counter.tables)
        dumps = []
        real_dump = checkpoint.dump_slots
        monkeypatch.setattr(checkpoint, "dump_slots", lambda keys, counts: dumps.append(1) or real_dump(keys, counts))
        by_block = counter.save(tmp_path / "blocks.npz")
        assert len(dumps) == len(blocks)
        # The per-rank form: one dump per rank's region.
        monkeypatch.setattr(checkpoint, "view_blocks", lambda views: [(r, r + 1, v) for r, v in enumerate(views)])
        by_rank = counter.save(tmp_path / "ranks.npz")
        assert len(dumps) == len(blocks) + len(counter.tables)
        with zipfile.ZipFile(by_block) as blocked, zipfile.ZipFile(by_rank) as ranked:
            assert blocked.namelist() == ranked.namelist()
            assert all(blocked.read(name) == ranked.read(name) for name in blocked.namelist())
