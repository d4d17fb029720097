"""Kernel calibration rates: CPU per-core throughputs and GPU per-item ops.

The one home of :class:`CpuRates` and :class:`GpuPipelineModel`.  Living
below the substrates lets one :class:`repro.machines.MachineSpec` carry
the complete calibration of a machine — topology, device, and kernel
rates — in one declarative object.

CPU side: the paper's baseline is the CPU-only k-mer analysis of diBELLA
run with 42 MPI ranks per Summit node (Section V-A).  Fig. 3a gives its
end-to-end behaviour on H. sapiens 54X at 2688 cores: ~3,800 s excluding
I/O, almost all of it in parse and count — roughly 17k k-mers per second
per core for the full compute path, i.e. rates dominated by software
overheads (hash-table churn, buffer packing), not DRAM bandwidth.

GPU side: the virtual GPU charges kernels via
:class:`repro.gpu.TrafficEstimate`; the dominant term for these divergent,
atomic-heavy kernels is serialized per-thread work, carried by
``thread_ops`` against the device's effective ``op_rate``.  The op counts
are calibration constants chosen so modeled per-GPU rates land where the
paper measured them (Fig. 3b / Fig. 7b: ~12 ns/k-mer at the V100's
``op_rate`` of 1e11; Section V-C's 27-33% supermer parse and 23-27% count
overheads give the factored constants).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["CpuRates", "power9_rates", "epyc_rates", "GpuPipelineModel"]


@dataclass(frozen=True)
class CpuRates:
    """Per-core effective throughputs for the CPU baseline pipeline.

    ``parse_rate``
        k-mers parsed + hashed + packed into send buffers, per second per
        core (Algorithm 1's PARSEKMER).
    ``count_rate``
        received k-mers inserted/incremented in the local hash table, per
        second per core (Algorithm 1's COUNTKMER).
    ``supermer_parse_factor`` / ``supermer_count_factor``
        multiplicative slowdowns when the CPU pipeline runs in supermer
        mode (minimizer scanning during parse; supermer->k-mer extraction
        during count).  Mirrors the GPU-side overheads the paper measures
        (Section V-C: 27-33% parse, 23-27% count).
    ``phase_overhead``
        fixed per-phase framework cost (buffer management, table setup,
        synchronization) independent of data volume; charged once per
        pipeline phase per round.

    Default calibration: Fig. 3a gives ~3,800 s for H. sapiens 54X
    (167e9 k-mers) on 2,688 cores with exchange a small slice, i.e. an
    effective combined parse+count throughput of ~17k k-mers/s/core; the
    40k/30k split reproduces that combined rate with parse somewhat faster
    than counting (counting pays hash-table cache misses).
    """

    parse_rate: float = 4.0e4
    count_rate: float = 3.0e4
    supermer_parse_factor: float = 1.30
    supermer_count_factor: float = 1.25
    phase_overhead: float = 0.5

    def __post_init__(self) -> None:
        if self.parse_rate <= 0 or self.count_rate <= 0:
            raise ValueError("rates must be positive")
        if self.supermer_parse_factor < 1.0 or self.supermer_count_factor < 1.0:
            raise ValueError("supermer factors are slowdowns and must be >= 1")
        if self.phase_overhead < 0:
            raise ValueError("phase_overhead must be non-negative")

    def parse_time(self, n_kmers: float, *, supermer_mode: bool = False) -> float:
        """Seconds for one rank to parse ``n_kmers`` windows (excl. overhead)."""
        if n_kmers < 0:
            raise ValueError("n_kmers must be non-negative")
        factor = self.supermer_parse_factor if supermer_mode else 1.0
        return n_kmers * factor / self.parse_rate

    def count_time(self, n_kmers: float, *, supermer_mode: bool = False) -> float:
        """Seconds for one rank to count ``n_kmers`` received instances."""
        if n_kmers < 0:
            raise ValueError("n_kmers must be non-negative")
        factor = self.supermer_count_factor if supermer_mode else 1.0
        return n_kmers * factor / self.count_rate

    def with_overrides(self, **kwargs: object) -> "CpuRates":
        """Copy with selected fields replaced (for calibration sweeps)."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


def power9_rates() -> CpuRates:
    """Rates calibrated to the Fig. 3a Summit Power9 measurement."""
    return CpuRates()


def epyc_rates() -> CpuRates:
    """A modern x86 server core (Zen-3 class): roughly 2x the Power9 rates.

    No paper measurement backs these; they exist for cross-machine what-if
    studies, scaled from the Summit calibration by typical per-core
    integer/cache throughput ratios.
    """
    return CpuRates(parse_rate=8.0e4, count_rate=6.0e4, phase_overhead=0.4)


@dataclass(frozen=True)
class GpuPipelineModel:
    """Per-item thread-op counts and fixed overheads for the GPU pipelines.

    With the V100 default ``op_rate = 1e11`` ops/s, ``ops_parse_kmer=1200``
    means 12 ns of serialized thread work per k-mer window — the calibrated
    effective cost of extracting, hashing, and atomically appending one
    k-mer to the outgoing buffer.

    * Fig. 3b / Fig. 7b imply the k-mer parse and count kernels each take
      ~5 s for H. sapiens 54X on 384 V100s, i.e. ~435M k-mers per GPU at
      ~85M k-mers/s -> ~12 ns/k-mer -> 1,200 ops at ``op_rate`` 1e11;
    * Section V-C: supermer construction raises parse time by ~27-33%
      (minimizer tracking per window position) and counting by ~23-27%
      (extracting k-mers from received supermers) — hence the factored
      constants;
    * the per-exchange fixed overhead models buffer management, counts
      exchange setup and the multi-launch choreography around MPI; it is
      calibrated so small-dataset 16-node runs show the paper's modest
      11-13x overall speedups (Fig. 6a) while being negligible against the
      large-run exchange times.
    """

    ops_parse_kmer: float = 1200.0
    ops_parse_supermer: float = 1560.0  # +30%: minimizer scan + register supermer build
    ops_count_kmer: float = 1200.0
    ops_extract_kmer: float = 300.0  # +25% on count: supermer -> k-mer unpacking
    exchange_overhead_s: float = 1.5  # per exchange round: buffers, counts alltoall, setup
    bytes_per_probe: float = 64.0  # one cache line per hash-table probe

    def __post_init__(self) -> None:
        if min(self.ops_parse_kmer, self.ops_parse_supermer, self.ops_count_kmer) <= 0:
            raise ValueError("op counts must be positive")
        if self.ops_extract_kmer < 0 or self.exchange_overhead_s < 0 or self.bytes_per_probe <= 0:
            raise ValueError("invalid model constants")
        if self.ops_parse_supermer < self.ops_parse_kmer:
            raise ValueError("supermer parse must cost at least as much as k-mer parse")

    def with_overrides(self, **kwargs: object) -> "GpuPipelineModel":
        """Copy with selected fields replaced (for calibration sweeps)."""
        return replace(self, **kwargs)  # type: ignore[arg-type]
