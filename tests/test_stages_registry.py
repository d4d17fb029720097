"""Tests for the stage registry, extension stages, and their CLI surface."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.core.incremental import DistributedCounter
from repro.core.stages import (
    PipelinePlugin,
    build_composition,
    register_stage,
    registered_stages,
    substrate_names,
)
from repro.core.parallel import get_pool
from repro.core.stages import registry as registry_mod
from repro.core.stages.context import StageContext
from repro.core.stages.registry import normalize_backend, resolve_stage
from repro.core.stages.standard import (
    CpuSubstrate,
    GpuSubstrate,
    KmerHashPartition,
    KmerParse,
    MinimizerHashPartition,
    SupermerParse,
    TableCount,
    parse_block,
    stable_order,
)
from repro.dna.reads import ReadSet, ShardRanges
from repro.kmers.spectrum import count_kmers_exact
from repro.mpi.costmodel import CommCostModel
from repro.mpi.stats import TrafficStats
from repro.mpi.topology import summit_gpu
from repro.telemetry import MetricRegistry


class TestBackendRegistry:
    def test_four_standard_backends_registered(self):
        for key in ("cpu:kmer", "cpu:supermer", "gpu:kmer", "gpu:supermer"):
            assert normalize_backend(key, key.partition(":")[2]) == key

    @pytest.mark.parametrize(
        "mode, parse, partition",
        [("kmer", KmerParse, KmerHashPartition), ("supermer", SupermerParse, MinimizerHashPartition)],
    )
    @pytest.mark.parametrize("substrate", [GpuSubstrate, CpuSubstrate], ids=["gpu", "cpu"])
    def test_each_cell_builds_its_stages(self, substrate, mode, parse, partition):
        """The four (substrate, mode) cells: the mode picks parse and partition, the name the substrate."""
        cfg = PipelineConfig(k=15, mode=mode, minimizer_len=7, window=15)
        comp = build_composition(substrate.name, cfg, EngineOptions())
        assert (type(comp.parse), type(comp.partition), type(comp.count)) == (parse, partition, TableCount)
        assert type(comp.substrate) is substrate
        assert comp.backend == comp.substrate.name == substrate.name
        assert comp.plugins == () and comp.conserves_kmers

    def test_substrate_names(self):
        assert substrate_names() == ("cpu", "gpu")

    def test_bare_name_resolves_with_config_mode(self):
        assert normalize_backend("gpu", "supermer") == "gpu:supermer"
        assert normalize_backend("cpu", "kmer") == "cpu:kmer"

    def test_explicit_mode_key_accepted(self):
        assert normalize_backend("gpu:kmer", "kmer") == "gpu:kmer"

    def test_mode_conflict_rejected(self):
        with pytest.raises(ValueError, match="conflicts with config mode"):
            normalize_backend("gpu:supermer", "kmer")

    def test_unknown_backend_lists_registered(self):
        with pytest.raises(ValueError, match="registered backends.*cpu:kmer"):
            normalize_backend("tpu", "kmer")

    def test_engine_rejects_unknown_backend(self, genome_reads):
        with pytest.raises(ValueError, match="registered backends"):
            run_pipeline(genome_reads, summit_gpu(1), PipelineConfig(k=15), backend="fpga")

    def test_counter_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="registered backends"):
            DistributedCounter(summit_gpu(1), PipelineConfig(k=15), backend="quantum")

    def test_engine_accepts_explicit_mode_key(self, genome_reads):
        cfg = PipelineConfig(k=15, mode="supermer", minimizer_len=7, window=15)
        a = run_pipeline(genome_reads, summit_gpu(1), cfg, backend="gpu:supermer")
        b = run_pipeline(genome_reads, summit_gpu(1), cfg, backend="gpu")
        assert a.spectrum.equals(b.spectrum)
        assert a.timing.total == b.timing.total


class OffByOnePartition(KmerHashPartition):
    """A buggy custom partitioner: the last rank's keys go to rank P, one past the world."""

    def owners(self, route_keys, n_ranks, config):
        owners = super().owners(route_keys, n_ranks, config)
        return np.where(owners == n_ranks - 1, n_ranks, owners)


class _FixedOwners:
    """A custom partition stage: the owners it is given, one per parsed item."""

    def __init__(self, owners: np.ndarray) -> None:
        self._owners = owners

    def owners(self, route_keys, n_ranks, config):
        assert route_keys.shape == self._owners.shape
        return self._owners


def _parse_block(owners: np.ndarray | None):
    """``parse_block`` of one block of three one-read shards, 6 k-mers each, on 6 ranks, at ``owners``."""
    config, cluster = PipelineConfig(k=15), summit_gpu(1)
    rng = np.random.default_rng(3)
    reads = ReadSet.from_strings(["".join("ACGT"[i] for i in rng.integers(0, 4, 20)) for _ in range(3)])
    ctx = StageContext(
        config, cluster, EngineOptions(), GpuSubstrate(), get_pool(1), CommCostModel(cluster), TrafficStats()
    )
    partition = KmerHashPartition() if owners is None else _FixedOwners(owners)
    return parse_block(ShardRanges.of(reads, 3, config.k - 1), 0, 3, KmerParse(), partition, ctx.substrate, ctx)


class TestDestinationOrdering:
    def test_out_of_range_owner_is_an_error_at_parse(self, genome_reads):
        """Not ``rank 0 send_counts must have shape (P,)`` one phase later."""

        class OffByOne(PipelinePlugin):
            name = "offbyone-test"

            def partition_stage(self):
                return OffByOnePartition()

        register_stage("offbyone-test", OffByOne)
        try:
            with pytest.raises(ValueError, match=r"OffByOnePartition assigned rank 6.*the 6 ranks"):
                run_pipeline(
                    genome_reads, summit_gpu(1), PipelineConfig(k=15), options=EngineOptions(stages=("offbyone-test",))
                )
        finally:
            registry_mod._STAGES.pop("offbyone-test", None)

    def test_negative_owner_is_an_error(self):
        """A negative owner in a later shard of a block would file its item under the shard before."""
        valid = _parse_block(None)
        assert valid[2].counts_matrix.shape == (3, 6) and valid[2].n_kmers.tolist() == [6, 6, 6]
        owners = np.zeros(18, dtype=np.int32)
        owners[13] = -1  # shard 2's second item: composite key 2 * 6 - 1, shard 1's last rank
        with pytest.raises(ValueError, match=r"_FixedOwners assigned rank -1, outside the 6 ranks"):
            _parse_block(owners)

    @pytest.mark.parametrize(
        "item, owner",
        [(8, 6), (2, -1), (17, 6), (9, 12), (10, -7)],
        ids=["P-mid-shard", "negative-first-shard", "P-last-shard", "2P", "far-negative"],
    )
    def test_out_of_range_owner_in_any_shard_is_one_error(self, item, owner):
        """Wherever the bad owner sits in the block, the one ``ValueError``.

        An owner of P in a middle shard is the next shard's rank 0 to a
        composite key (as a negative one in a later shard is the shard
        before's rank P - 1): the counts keep their length, only a shard's
        row sum shows the item that moved.
        """
        owners = np.zeros(18, dtype=np.int32)
        owners[item] = owner
        with pytest.raises(ValueError, match=rf"_FixedOwners assigned rank {owner}, outside the 6 ranks of the run"):
            _parse_block(owners)

    @pytest.mark.parametrize("p", [1, 96, 672, 65_535, 65_537])
    @pytest.mark.parametrize("composite", [False, True])
    def test_narrowed_sort_equals_int64_sort(self, p, composite):
        """``stable_order`` is the int64 stable sort: of one shard's owners, or of a
        three-shard block's composite (shard, owner) keys, whose range crosses the narrow widths."""
        rng = np.random.default_rng(p)
        n = 5000
        owners = rng.integers(0, p, size=n).astype(np.int32)
        owners[:2] = (0, p - 1)  # both ends of the rank range
        n_shards = 3 if composite else 1
        key = np.sort(rng.integers(0, n_shards, size=n)) * p + owners  # shard-major, as parse_block builds it
        order = stable_order(key, n_shards * p)
        assert np.array_equal(order, np.argsort(key.astype(np.int64), kind="stable"))


class TestStageRegistry:
    def test_builtin_stages_discovered_lazily(self):
        stages = registered_stages()
        assert "bloom" in stages and "balanced" in stages

    def test_unknown_stage_lists_registered(self):
        with pytest.raises(ValueError, match="registered stages.*bloom"):
            resolve_stage("dedup", "kmer")

    def test_mode_restriction_enforced(self):
        with pytest.raises(ValueError, match="supports mode"):
            resolve_stage("balanced", "kmer")

    def test_engine_propagates_stage_mode_error(self, genome_reads):
        with pytest.raises(ValueError, match="supports mode"):
            run_pipeline(
                genome_reads,
                summit_gpu(1),
                PipelineConfig(k=15, mode="kmer"),
                options=EngineOptions(stages=("balanced",)),
            )

    def test_custom_plugin_round_trip(self, genome_reads):
        class DropNothing(PipelinePlugin):
            name = "noop-test"

        register_stage("noop-test", DropNothing, description="test no-op")
        try:
            cfg = PipelineConfig(k=15)
            comp = build_composition("gpu", cfg, EngineOptions(stages=("noop-test",)))
            assert [p.name for p in comp.plugins] == ["noop-test"]
            base = run_pipeline(genome_reads, summit_gpu(1), cfg)
            with_plugin = run_pipeline(
                genome_reads, summit_gpu(1), cfg, options=EngineOptions(stages=("noop-test",))
            )
            assert with_plugin.spectrum.equals(base.spectrum)
        finally:
            registry_mod._STAGES.pop("noop-test", None)

    def test_conflicting_partition_overrides_rejected(self):
        class OtherBalanced(PipelinePlugin):
            name = "other-balanced"

            def partition_stage(self):
                from repro.core.stages.standard import MinimizerHashPartition

                return MinimizerHashPartition()

        register_stage("other-balanced", OtherBalanced, modes=("supermer",))
        try:
            cfg = PipelineConfig(k=15, mode="supermer", minimizer_len=5, window=9)
            with pytest.raises(ValueError, match="both override the partition stage"):
                build_composition("gpu", cfg, EngineOptions(stages=("balanced", "other-balanced")))
        finally:
            registry_mod._STAGES.pop("other-balanced", None)


class TestBloomStage:
    def test_bloom_suppresses_singletons_exactly(self, genome_reads):
        """Bloom-filtered spectrum == exact spectrum restricted to count>=2."""
        k = 15
        result = run_pipeline(
            genome_reads,
            summit_gpu(1),
            PipelineConfig(k=k),
            options=EngineOptions(stages=("bloom",)),
        )
        oracle = count_kmers_exact(genome_reads, k).frequent(2)
        assert result.spectrum.equals(oracle)

    def test_bloom_load_accounting_is_prefilter(self, genome_reads):
        """received_kmers counts instances seen, not instances inserted."""
        k = 15
        base = run_pipeline(genome_reads, summit_gpu(1), PipelineConfig(k=k))
        bloom = run_pipeline(
            genome_reads, summit_gpu(1), PipelineConfig(k=k), options=EngineOptions(stages=("bloom",))
        )
        assert np.array_equal(bloom.received_kmers, base.received_kmers)
        assert bloom.spectrum.n_distinct < base.spectrum.n_distinct

    def test_bloom_in_streamed_counter(self):
        from .golden_cases import batch_reads

        k = 17
        batches = batch_reads()
        counter = DistributedCounter(
            summit_gpu(1), PipelineConfig(k=k), options=EngineOptions(stages=("bloom",))
        )
        for batch in batches:
            counter.add_reads(batch)
        from repro.dna.reads import ReadSet, ShardRanges

        oracle = count_kmers_exact(ReadSet.concat(batches), k).frequent(2)
        assert counter.spectrum().equals(oracle)


class TestBalancedStage:
    def test_balanced_preserves_spectrum_and_reduces_imbalance(self, genome_reads):
        cfg = PipelineConfig(k=15, mode="supermer", minimizer_len=5, window=9)
        base = run_pipeline(genome_reads, summit_gpu(2), cfg)
        balanced = run_pipeline(
            genome_reads, summit_gpu(2), cfg, options=EngineOptions(stages=("balanced",))
        )
        assert balanced.spectrum.equals(base.spectrum)
        assert balanced.load_stats().imbalance <= base.load_stats().imbalance

    def test_balanced_matches_manual_assignment_option(self, genome_reads):
        """The plugin reproduces the EngineOptions.minimizer_assignment path."""
        from repro.ext.balanced import balanced_minimizer_assignment

        cfg = PipelineConfig(k=15, mode="supermer", minimizer_len=5, window=9)
        cluster = summit_gpu(2)
        assignment = balanced_minimizer_assignment(
            genome_reads, cfg.k, cfg.minimizer_len, cluster.n_ranks, ordering=cfg.ordering
        )
        manual = run_pipeline(
            genome_reads, cluster, cfg, options=EngineOptions(minimizer_assignment=assignment)
        )
        plugin = run_pipeline(genome_reads, cluster, cfg, options=EngineOptions(stages=("balanced",)))
        assert plugin.spectrum.equals(manual.spectrum)
        assert np.array_equal(plugin.received_kmers, manual.received_kmers)


class TestProcessFallback:
    """The one fallback rung: a process pool runs a stateful plugin's composition on threads."""

    @staticmethod
    def _run(reads, stages, parallel, caplog):
        reg = MetricRegistry()
        cfg = PipelineConfig(k=15, mode="supermer", minimizer_len=5, window=9)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="repro.telemetry"):
            result = run_pipeline(
                reads, summit_gpu(2), cfg, options=EngineOptions(stages=stages, parallel=parallel, telemetry=reg)
            )
        events = [rec.message for rec in caplog.records if "engine.process.fallback" in rec.message]
        pools = {s["labels"]["pool"] for s in reg.snapshot()["pool_map_calls_total"]["samples"]}
        return result, events, pools

    def test_stateless_plugin_keeps_the_process_pool(self, genome_reads, caplog):
        """``balanced`` overrides no ``filter_received``: it maps on forked workers, unannounced."""
        sequential, _, _ = self._run(genome_reads, ("balanced",), 1, caplog)
        forked, events, pools = self._run(genome_reads, ("balanced",), "process:2", caplog)
        assert "ProcessPool" in pools
        assert events == []
        assert forked.spectrum.equals(sequential.spectrum)

    def test_stateful_plugin_falls_back_to_threads_once(self, genome_reads, caplog):
        """``bloom`` filters received k-mers in place: one event, thread pools only, the same spectrum."""
        sequential, _, _ = self._run(genome_reads, ("bloom",), 1, caplog)
        threaded, events, pools = self._run(genome_reads, ("bloom",), "process:2", caplog)
        assert len(events) == 1 and "stateful plugins" in events[0]
        assert pools == {"ThreadPool"}
        assert threaded.spectrum.equals(sequential.spectrum)


@pytest.fixture
def fastq(tmp_path):
    path = tmp_path / "sample.fastq"
    assert (
        main(
            [
                "simulate",
                "--genome-length",
                "6000",
                "--coverage",
                "5",
                "--read-length",
                "300",
                "--seed",
                "9",
                "--out",
                str(path),
            ]
        )
        == 0
    )
    return path


class TestCliStages:
    def test_count_with_stages_end_to_end(self, fastq, tmp_path, capsys):
        db = tmp_path / "out.rkdb"
        code = main(
            [
                "count",
                "--input",
                str(fastq),
                "-k",
                "15",
                "--nodes",
                "1",
                "--backend",
                "gpu",
                "--mode",
                "supermer",
                "--stages",
                "bloom,balanced",
                "--out-db",
                str(db),
            ]
        )
        assert code == 0
        assert "total_kmers" in capsys.readouterr().out
        assert db.exists()

    def test_unknown_backend_is_clear_error(self, fastq, capsys):
        assert main(["count", "--input", str(fastq), "--backend", "tpu"]) == 2
        err = capsys.readouterr().err
        assert "registered backends" in err and "gpu:supermer" in err

    def test_unknown_stage_is_clear_error(self, fastq, capsys):
        assert main(["count", "--input", str(fastq), "--stages", "dedup"]) == 2
        err = capsys.readouterr().err
        assert "registered stages" in err and "bloom" in err

    def test_stage_mode_conflict_is_clear_error(self, fastq, capsys):
        assert main(["count", "--input", str(fastq), "--mode", "kmer", "--stages", "balanced"]) == 2
        assert "supports mode" in capsys.readouterr().err

    def test_backend_mode_conflict_is_clear_error(self, fastq, capsys):
        assert main(["count", "--input", str(fastq), "--mode", "kmer", "--backend", "gpu:supermer"]) == 2
        assert "conflicts with config mode" in capsys.readouterr().err
