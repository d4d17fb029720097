"""The drive plan: the rounds laws, pinned one byte either side of a round boundary, and the plan decided once."""

from __future__ import annotations

import math

import pytest

from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.core.incremental import DistributedCounter
from repro.core.stages import scheduler
from repro.core.stages.plan import TABLE_BYTES_PER_KEY, table_blocks
from repro.dna.reads import ReadSet
from repro.gpu.hashtable import MAX_LOAD_FACTOR, fit_capacity, initial_capacity
from repro.kmers.spectrum import count_kmers_exact
from repro.mpi.topology import summit_gpu

from .test_tracing_rounds import tiny_machine

CONFIG = PipelineConfig(k=17, mode="kmer")  # 8-byte wire items


@pytest.fixture(scope="module")
def worst(genome_reads) -> int:
    """The items the fullest rank receives."""
    result = run_pipeline(genome_reads, summit_gpu(1), CONFIG)
    return int(result.counts_matrix.sum(axis=0).max())


def _rounds(reads, options: EngineOptions) -> int:
    result = run_pipeline(reads, summit_gpu(1), CONFIG, options=options)
    result.validate_against(count_kmers_exact(reads, 17))
    return result.n_rounds_used


def _batch_rounds(reads, options: EngineOptions) -> int:
    """The rounds one streamed batch of ``reads`` took, read off its exchange labels."""
    counter = DistributedCounter(summit_gpu(1), CONFIG, options=options)
    counter.add_reads(reads)
    assert counter.spectrum().equals(count_kmers_exact(reads, 17))
    labels = [rec.label for rec in counter.traffic.records]
    n = len(labels)
    assert labels == ([f"kmer-batch0-round{r}" for r in range(n)] if n > 1 else ["kmer-batch0"])
    return n


#: Host bytes per received item: the wire buffer and its copy, the unpacked 8-byte key, a 16-byte slot at 0.7 load.
HOST_PER_ITEM = 8 * 2 + 8.0 + 16 / 0.7
#: Device bytes per received item: the wire buffer and its staged copy, a 16-byte slot at 0.7 load.
DEVICE_PER_ITEM = 8 * 2 + 16 / 0.7


def _device(hbm_bytes: int) -> EngineOptions:
    return EngineOptions(machine=tiny_machine(hbm_bytes), auto_rounds=True, memory_budget_fraction=1.0)


class TestRoundsLaws:
    """rounds = ⌈worst × bytes per item / budget⌉, with the bytes per item written out here, on both surfaces."""

    def test_host_law(self, genome_reads, worst):
        budget = math.ceil(worst * HOST_PER_ITEM / 3)  # the smallest budget that fits three rounds
        assert _rounds(genome_reads, EngineOptions(host_memory_budget=budget)) == 3
        assert _rounds(genome_reads, EngineOptions(host_memory_budget=budget - 1)) == 4

    def test_device_law(self, genome_reads, worst):
        hbm = math.ceil(worst * DEVICE_PER_ITEM / 3)  # the smallest device that fits three rounds
        assert _rounds(genome_reads, _device(hbm)) == 3
        assert _rounds(genome_reads, _device(hbm - 1)) == 4

    def test_host_law_on_a_streamed_batch(self, genome_reads, worst):
        """A batch is planned from its own counts by the same law: the same reads take the same rounds."""
        budget = math.ceil(worst * HOST_PER_ITEM / 3)
        assert _batch_rounds(genome_reads, EngineOptions(host_memory_budget=budget)) == 3
        assert _batch_rounds(genome_reads, EngineOptions(host_memory_budget=budget - 1)) == 4

    def test_device_law_on_a_streamed_batch(self, genome_reads, worst):
        hbm = math.ceil(worst * DEVICE_PER_ITEM / 3)
        assert _batch_rounds(genome_reads, _device(hbm)) == 3
        assert _batch_rounds(genome_reads, _device(hbm - 1)) == 4

    def test_configured_rounds_on_a_streamed_batch(self, genome_reads):
        assert _batch_rounds(genome_reads, EngineOptions()) == 1
        counter = DistributedCounter(summit_gpu(1), PipelineConfig(k=17, mode="kmer", n_rounds=3))
        counter.add_reads(genome_reads)
        assert [rec.label for rec in counter.traffic.records] == [f"kmer-batch0-round{r}" for r in range(3)]


class TestOnePlanPerDrive:
    def test_a_drive_plans_once(self, genome_reads, monkeypatch):
        """Rounds, count blocks and hints are decided once, from the parse's counts matrix."""
        plans = []
        real = scheduler.plan_drive
        monkeypatch.setattr(scheduler, "plan_drive", lambda *a, **kw: plans.append(real(*a, **kw)) or plans[-1])
        result = run_pipeline(genome_reads, summit_gpu(2), PipelineConfig(k=17, n_rounds=3))
        assert len(plans) == 1
        (plan,) = plans
        assert plan.n_rounds == result.n_rounds_used == 3
        assert plan.blocks == table_blocks(result.counts_matrix.sum(axis=0))
        p = result.cluster.n_ranks
        parsed = result.counts_matrix.sum(axis=1)  # k-mer mode: an item per parsed k-mer
        assert plan.hints == [max(64, int(n) // p + 16) for n in parsed]

    def test_a_streamed_state_is_born_at_its_batch_parsed_kmers_within_the_budget(self, genome_reads, monkeypatch):
        """Birth hints are each rank's parsed k-mers of the batch, as many as the budget holds slots for, at least 64.

        An empty batch gives 128-slot regions.  With no budget the state is
        born at 64 and its first insert sizes it at the keys it received,
        as a one-shot table is: a one-input count is not born ahead of them.
        """
        plans = []
        real = scheduler.plan_drive
        monkeypatch.setattr(scheduler, "plan_drive", lambda *a, **kw: plans.append(real(*a, **kw)) or plans[-1])
        n_kmers = run_pipeline(genome_reads, summit_gpu(2), CONFIG).counts_matrix.sum(axis=1)  # an item per k-mer
        p = n_kmers.shape[0]
        half = int(n_kmers.max()) // 2
        for budget, births in (
            (1 << 30, [max(64, int(n)) for n in n_kmers]),
            (math.ceil(half * TABLE_BYTES_PER_KEY), [max(64, min(int(n), half)) for n in n_kmers]),
            (None, [64] * p),
        ):
            counter = DistributedCounter(summit_gpu(2), CONFIG, options=EngineOptions(host_memory_budget=budget))
            counter.add_reads(ReadSet.from_strings(["ACGTACGTAC"]))  # no 17-mer: the state stays empty
            assert plans[-1].births == [64] * p
            assert [t.capacity for t in counter.tables] == [128] * p
            counter.add_reads(genome_reads)  # the first batch with keys births the tables
            assert plans[-1].births == births
            caps = [initial_capacity(n, MAX_LOAD_FACTOR) for n in births]
            if budget is None:  # grown by the first insert, at the keys received
                caps = [fit_capacity(c, t.n_entries, MAX_LOAD_FACTOR)[0] for c, t in zip(caps, counter.tables)]
            assert [t.capacity for t in counter.tables] == caps

    def test_a_streamed_batch_takes_the_rounds_of_its_own_counts(self, genome_reads):
        """Each batch is planned once, by the one-shot laws, from its own counts: a budget splits every batch."""
        options = EngineOptions(host_memory_budget=20_000)
        n = run_pipeline(genome_reads, summit_gpu(2), CONFIG, options=options).n_rounds_used
        half = genome_reads.select(range(genome_reads.n_reads // 2))
        n_half = run_pipeline(half, summit_gpu(2), CONFIG, options=options).n_rounds_used
        assert n > n_half > 1
        counter = DistributedCounter(summit_gpu(2), CONFIG, options=options)
        counter.add_reads(genome_reads)
        counter.add_reads(half)
        assert [rec.label for rec in counter.traffic.records] == [
            *(f"kmer-batch0-round{r}" for r in range(n)),
            *(f"kmer-batch1-round{r}" for r in range(n_half)),
        ]
        assert counter.spectrum().equals(count_kmers_exact(ReadSet.concat([genome_reads, half]), 17))

    @pytest.mark.parametrize("surface", ["one-shot", "streamed"])
    def test_the_budget_floor_is_one_rule_on_both_surfaces(self, surface, monkeypatch):
        """A sub-floor budget is rejected by one message on both surfaces before any parse, whatever the input.

        On the streamed surface that holds for options assigned to a
        running counter's scheduler too: the next batch re-resolves them.
        """
        parses = []
        real = scheduler.Layout.parse
        monkeypatch.setattr(scheduler.Layout, "parse", lambda *a: parses.append(1) or real(*a))
        short = ReadSet.from_strings(["ACGTACGTAC"])  # no 17-mer: nothing would be received
        reads = ReadSet.from_strings(["ACGTTGCAAGGCTTACGA"])
        options = EngineOptions(host_memory_budget=16)
        message = "host_memory_budget=16 is below the working-set floor"
        for batch in (short, reads):
            with pytest.raises(ValueError, match=message):
                if surface == "one-shot":
                    run_pipeline(batch, summit_gpu(2), CONFIG, options=options)
                else:
                    DistributedCounter(summit_gpu(2), CONFIG, options=options).add_reads(batch)
        assert parses == []
        if surface == "streamed":
            counter = DistributedCounter(summit_gpu(2), CONFIG)
            counter.add_reads(reads)
            counter._scheduler.opts = options
            with pytest.raises(ValueError, match=message):
                counter.add_reads(reads)
            assert len(parses) == 1  # the first batch's parse only
            assert counter.n_batches == 1
