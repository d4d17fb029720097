"""Pipeline configuration.

One :class:`PipelineConfig` object fully determines a counting run's
algorithmic behaviour: k, the transport mode (individual k-mers per
Algorithm 1, or supermers per Algorithm 2), minimizer parameters, the
exchange flavour (staged copies vs GPUDirect, Section III-B2), and optional
memory-bounded multi-round execution (Section III-A: "the computation and
communication may proceed in multiple rounds").

The paper's headline configuration is ``k=17, window=15`` with minimizer
lengths 7 and 9 (Sections IV-C, V); :func:`paper_config` builds it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

from ..kmers.supermers import max_window_for

__all__ = ["PipelineConfig", "paper_config"]


@dataclass(frozen=True)
class PipelineConfig:
    """Algorithmic parameters of one distributed counting run."""

    k: int = 17
    mode: Literal["kmer", "supermer"] = "kmer"
    minimizer_len: int = 7
    window: int | None = 15
    ordering: str = "random-base"
    canonical: bool = False
    gpudirect: bool = False
    n_rounds: int = 1
    partition_seed: int = 0
    table_seed: int = 1

    def __post_init__(self) -> None:
        if not 2 <= self.k <= 31:
            raise ValueError(f"k must be in [2, 31] (word packing + EMPTY sentinel), got {self.k}")
        if self.mode not in ("kmer", "supermer"):
            raise ValueError(f"mode must be 'kmer' or 'supermer', got {self.mode!r}")
        if self.mode == "supermer":
            if not 1 <= self.minimizer_len < self.k:
                raise ValueError(f"need 1 <= minimizer_len < k, got m={self.minimizer_len}, k={self.k}")
            if self.effective_window > max_window_for(self.k):
                raise ValueError(
                    f"window {self.effective_window} too large for k={self.k} "
                    f"(max {max_window_for(self.k)} so supermers pack into one word)"
                )
            if self.effective_window < 1:
                raise ValueError("window must be positive")
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be positive")

    @property
    def effective_window(self) -> int:
        """The window actually used (default: widest that still word-packs)."""
        return self.window if self.window is not None else max_window_for(self.k)

    @property
    def kmer_wire_bytes(self) -> int:
        """Wire size of one k-mer in kmer mode (a packed machine word)."""
        return 4 if self.k <= 16 else 8

    @property
    def supermer_wire_bytes(self) -> int:
        """Wire size of one supermer: packed word + length byte (Section V-D)."""
        return 8 + 1

    @property
    def wire_bytes(self) -> int:
        """Wire size of one exchanged item in this config's transport mode."""
        return self.supermer_wire_bytes if self.mode == "supermer" else self.kmer_wire_bytes

    def with_mode(self, mode: Literal["kmer", "supermer"], minimizer_len: int | None = None) -> "PipelineConfig":
        """Copy with a different transport mode (and optionally m)."""
        kwargs: dict[str, object] = {"mode": mode}
        if minimizer_len is not None:
            kwargs["minimizer_len"] = minimizer_len
        return replace(self, **kwargs)  # type: ignore[arg-type]

    def describe(self) -> str:
        if self.mode == "kmer":
            return f"kmer(k={self.k})"
        return f"supermer(k={self.k}, m={self.minimizer_len}, w={self.effective_window}, {self.ordering})"


def paper_config(mode: Literal["kmer", "supermer"] = "kmer", minimizer_len: int = 7) -> PipelineConfig:
    """The configuration of the paper's evaluation: k=17, window=15."""
    return PipelineConfig(k=17, mode=mode, minimizer_len=minimizer_len, window=15)
