"""Thread-block geometry, warp divergence, and occupancy analysis.

Section III-B1 argues for the paper's thread mapping: "individual reads
from the same read partition can have a big variance in their lengths.
Moreover, the performance on GPUs is highly sensitive to load imbalance
across threads, warps ..., or thread-blocks.  This even work distribution
provides a balanced work load" — i.e., map threads to *base positions*
(Fig. 2), not to reads.  Section IV-B's supermer kernel maps one thread per
fixed-size *window* for the same reason.

This module quantifies those claims: given the serial work each logical
thread performs, it computes

* **warp divergence** — a warp executes the max of its 32 lanes, so the
  cost factor is ``sum(warp maxima x 32) / sum(work)``;
* **block imbalance** — a block occupies its SM until its slowest warp
  finishes;
* **tail (occupancy) efficiency** — the last wave of blocks may not fill
  all SMs.

Used by the thread-mapping ablation benchmark to reproduce the paper's
design argument quantitatively.  (The engine's calibrated kernel costs
already reflect the paper's chosen mapping, so these analyses are
diagnostics, not a second timing path.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dna.reads import ReadSet
from ..machines import DeviceSpec

__all__ = [
    "MappingAnalysis",
    "warp_divergence_factor",
    "block_imbalance_factor",
    "tail_efficiency",
    "analyze_thread_mapping",
    "per_thread_work",
]


def _pad_reshape(work: np.ndarray, group: int) -> np.ndarray:
    """Pad to a multiple of ``group`` (idle lanes do zero work) and reshape."""
    n = work.shape[0]
    padded = np.zeros(((n + group - 1) // group) * group, dtype=np.float64)
    padded[:n] = work
    return padded.reshape(-1, group)


def warp_divergence_factor(work_per_thread: np.ndarray, warp_size: int = 32) -> float:
    """Executed-over-useful work ratio under SIMT lockstep (>= 1)."""
    work = np.asarray(work_per_thread, dtype=np.float64)
    if work.size == 0 or work.sum() == 0:
        return 1.0
    if warp_size < 1:
        raise ValueError("warp_size must be positive")
    warps = _pad_reshape(work, warp_size)
    executed = (warps.max(axis=1) * warp_size).sum()
    return float(executed / work.sum())


def block_imbalance_factor(work_per_thread: np.ndarray, block_size: int = 256, warp_size: int = 32) -> float:
    """Max-warp-over-mean-warp ratio within blocks, averaged over blocks.

    A block retires when its slowest warp does; this measures how much SM
    residency the imbalance wastes (>= 1).
    """
    work = np.asarray(work_per_thread, dtype=np.float64)
    if work.size == 0 or work.sum() == 0:
        return 1.0
    warps = _pad_reshape(work, warp_size)
    warp_time = warps.max(axis=1)  # lockstep
    blocks = _pad_reshape(warp_time, max(block_size // warp_size, 1))
    block_time = blocks.max(axis=1)
    mean_warp = warp_time.mean()
    if mean_warp == 0:
        return 1.0
    return float(block_time.mean() / mean_warp)


def tail_efficiency(n_blocks: int, device: DeviceSpec, blocks_per_sm: int = 4) -> float:
    """Fraction of SM-slots doing useful work across the kernel's waves."""
    if n_blocks <= 0:
        return 1.0
    slots_per_wave = device.n_sms * blocks_per_sm
    waves = -(-n_blocks // slots_per_wave)
    return n_blocks / (waves * slots_per_wave)


@dataclass(frozen=True)
class MappingAnalysis:
    """Execution-geometry costs of one thread mapping."""

    mapping: str
    n_threads: int
    total_work: float
    warp_divergence: float
    block_imbalance: float
    tail_efficiency: float

    @property
    def effective_cost_factor(self) -> float:
        """Overall executed/useful-work multiplier of this mapping."""
        return self.warp_divergence * self.block_imbalance / max(self.tail_efficiency, 1e-12)


def per_thread_work(reads: ReadSet, k: int, mapping: str, *, window: int = 15) -> np.ndarray:
    """Serial work items per logical thread under a thread mapping.

    ``"base"``
        Fig. 2's mapping: one thread per k-mer window position; each does
        one unit of work (read k bases, emit one k-mer).
    ``"read"``
        the naive mapping Section III-B1 argues against: one thread per
        read; work = that read's k-mer count.
    ``"window"``
        Fig. 5 / Section IV-B: one thread per window of up to ``window``
        k-mer positions; work = positions actually in the window.
    """
    lengths = reads.lengths
    windows_per_read = np.maximum(lengths - k + 1, 0)
    if mapping == "read":
        return windows_per_read.astype(np.float64)
    if mapping == "base":
        return np.ones(int(windows_per_read.sum()), dtype=np.float64)
    if mapping == "window":
        out: list[np.ndarray] = []
        for n in windows_per_read.tolist():
            if n <= 0:
                continue
            full, rem = divmod(n, window)
            chunk = np.full(full + (1 if rem else 0), window, dtype=np.float64)
            if rem:
                chunk[-1] = rem
            out.append(chunk)
        return np.concatenate(out) if out else np.zeros(0)
    raise ValueError(f"unknown mapping {mapping!r}; expected 'base', 'read', or 'window'")


def analyze_thread_mapping(
    reads: ReadSet,
    k: int,
    mapping: str,
    device: DeviceSpec,
    *,
    window: int = 15,
    block_size: int = 256,
) -> MappingAnalysis:
    """Full geometry analysis of one parse-kernel thread mapping."""
    work = per_thread_work(reads, k, mapping, window=window)
    n_blocks = -(-work.shape[0] // block_size) if work.size else 0
    return MappingAnalysis(
        mapping=mapping,
        n_threads=int(work.shape[0]),
        total_work=float(work.sum()),
        warp_divergence=warp_divergence_factor(work, device.warp_size),
        block_imbalance=block_imbalance_factor(work, block_size, device.warp_size),
        tail_efficiency=tail_efficiency(n_blocks, device),
    )
