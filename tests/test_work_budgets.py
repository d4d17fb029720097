"""Work budgets: how often, and on how much, the hot loops call the expensive primitives.

Counts, not clocks (ROADMAP item 4): a budget here fails when a code
path regrows a sort or a whole-round temporary, on any host and at any
load, where a wall-clock floor would only drift.
"""

from __future__ import annotations

import builtins
import os
import sys
import tracemalloc
import zipfile
from collections import Counter

import numpy as np
import pytest

import repro.core.stages.standard as standard
import repro.gpu.hashtable as hashtable
import repro.gpu.segmented as segmented
import repro.mpi.collectives as collectives
from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.core.incremental import DistributedCounter
from repro.core.stages.standard import CpuSubstrate, GpuSubstrate
from repro.gpu.segmented import SegmentedHashTable
from repro.mpi.collectives import alltoallv_flat, alltoallv_segments
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
        return cluster.n_ranks, inserts, unique_calls, argsort_calls, len(options.trace.spans("parse"))

    def test_one_unique_per_insert_batch_none_in_the_probe_loop(self, staged_run):
        n_ranks, inserts, unique_calls, _, _ = staged_run
        in_table = Counter(fn for path, fn, _ in unique_calls if path.endswith("gpu/hashtable.py"))
        assert len(inserts) == n_ranks and all(inserts)  # one round: every rank inserted once, by its block's call
        assert in_table == {"dedup_batch": len(inserts)}  # the dedup; probe_insert arbitrates without a sort

    def test_destination_ordering_sorts_16_bit_owners(self, staged_run):
        _, _, _, argsort_calls, parse_blocks = staged_run
        owner_sorts = [dtype for _, fn, dtype in argsort_calls if fn == "stable_order"]
        # One (shard, owner) sort per parse block (was one per rank), a radix pass.
        assert owner_sorts == [np.dtype(np.uint16)] * parse_blocks


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
        exchanges = {
            "segments": lambda: alltoallv_segments(send, list(counts))[0][0].base,
            "flat": lambda: alltoallv_flat(flat, counts)[0],
        }
        block_items = self.BLOCK_BYTES // 16
        assert counts.sum(axis=0).max() < block_items  # no destination is a block of its own
        for name, exchange in exchanges.items():
            index_items.clear()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                received = exchange()
                transient = tracemalloc.get_traced_memory()[1] - before - received.nbytes
            finally:
                tracemalloc.stop()
            assert received.shape[0] == flat.shape[0]
            assert len(index_items) >= n_items // (2 * block_items), name
            assert max(index_items) <= block_items, name
            # Staging buffer, index and its construction temporaries, plus a
            # few P x P offset matrices: the same bound for both round sizes,
            # under the 8 bytes per item of one whole-round index at the larger.
            assert transient <= 6 * self.BLOCK_BYTES + 32 * counts.size < 8 * 640_000, (name, transient)


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
        assert len(members) == 1 and len(members.pop()) == 16


class TestRankBlockBudgets:
    """The count pays per rank *block*: probe loops, run files and maps (it was per rank).

    A P = 24 k-mer run whose ranks fall into three blocks.  Blocks follow
    the bytes the tables are expected to hold, so their number moves with
    the input, not with the rank count.
    """

    @staticmethod
    def _run(monkeypatch, reads, nodes: int, tmp_path=None, n_rounds: int = 1):
        """``(P, blocks, count leaves, probe_insert calls, regrows, count_rank calls, files)`` of one run."""
        probes, regrows, per_rank_calls = [], [], []
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
            for substrate in (GpuSubstrate, CpuSubstrate):
                patch.setattr(substrate, "count_rank", lambda *a, **k: per_rank_calls.append(1))
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
        return cluster.n_ranks, len(blocks), len(leaves), len(probes), len(regrows), len(per_rank_calls), files

    def test_probe_loops_per_block_not_per_rank(self, genome_reads, monkeypatch):
        p, blocks, leaves, probes, regrows, per_rank_calls, _ = self._run(monkeypatch, genome_reads, 4, n_rounds=2)
        assert (p, blocks) == (24, 3)
        assert regrows <= leaves  # a block call re-lays its table at most once
        assert probes <= leaves + regrows  # was P + regrowing ranks per round
        assert per_rank_calls == 0  # count_rank is for custom count stages only

    def test_spilled_run_files_per_block(self, genome_reads, tmp_path, monkeypatch):
        p, blocks, leaves, probes, regrows, _, files = self._run(
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
        (p, blocks, _, probes, regrows, _, files) = base
        assert (wider[0], larger[0]) == (2 * p, p)
        # Doubling P at fixed input: the same bytes, so the same blocks (within one) and so
        # the same probe loops and files, where the per-rank bodies doubled all three.
        assert abs(wider[1] - blocks) <= 1
        assert wider[3] <= probes + 2 and wider[6][0] == files[0] and wider[6][1] <= files[1] + 1
        # Doubling the reads at fixed P: round files unchanged; blocks follow the bytes, never past P.
        assert larger[6][0] == files[0] and blocks <= larger[1] <= min(p, 2 * blocks + 1)
        assert larger[6][1:] == (larger[1], larger[1])


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
        blocks are the ones :func:`~repro.gpu.segmented.table_blocks` gives
        for the first batch's received k-mers.
        """
        n = reads.n_reads
        counter = DistributedCounter(summit_gpu(nodes), PipelineConfig(k=17), options=EngineOptions(fused=True))
        counter.add_reads(reads.select(range(n // 12)))
        blocks = segmented.table_blocks(counter.received_kmers)
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
