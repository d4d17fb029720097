"""Execution substrates for per-rank work (see :mod:`.pools`).

:mod:`.pools` holds the resolution vocabulary, the pool interface and the
in-process substrates (``seq``, ``thread``); :mod:`.process` adds forked
workers with shared-memory result transport; :mod:`.shm` is the
descriptor-based array transport they use.  The three kinds are a fixed
table: :func:`get_pool` builds ``thread:N`` / ``process:N`` pools.
"""

from .pools import (
    ENV_VAR,
    ParallelSetting,
    ParallelSpec,
    RankPool,
    SequentialPool,
    ThreadPool,
    get_pool,
    parallel_map,
    resolve_spec,
    resolve_workers,
    shutdown_pools,
)
from .process import ProcessPool

__all__ = [
    "ENV_VAR",
    "ParallelSetting",
    "ParallelSpec",
    "ProcessPool",
    "RankPool",
    "SequentialPool",
    "ThreadPool",
    "resolve_spec",
    "resolve_workers",
    "get_pool",
    "parallel_map",
    "shutdown_pools",
]
