"""Deterministic execution substrates for per-rank phase execution.

The BSP engine's phases (parse, count, segment packing) perform each
simulated rank's work as real NumPy computation that is completely
independent across ranks — the same property the paper exploits on the
real machine, where every rank owns its shard, its outgoing buffers, and
its partition of the global hash table.  This module supplies the
*substrate layer* that decides where that per-rank work runs: inline on
the driving thread, overlapped on OS threads (NumPy releases the GIL
inside its kernels), or on forked worker processes with results shipped
back through shared memory (:mod:`.process`).

Determinism contract
--------------------
:meth:`RankPool.map` applies a pure function to each item and returns the
results **in input order**, regardless of completion order or worker
count.  The engine only ever submits per-rank or per-block closures that
(a) touch private state — the rank's shard, its ``VirtualGPU``, its rank
block's hash table — and (b) contain no randomness beyond
seeded, input-derived values.  Under those conditions scheduling cannot
influence any result, so sequential and parallel runs produce the same
``CountResult`` payload bit for bit; only wall-clock time changes.  The
cross-engine differential tests enforce this for every pipeline variant
and every registered substrate.

A substrate whose workers run in other processes (``in_process`` False)
additionally requires closures to *return* everything the caller needs:
in-place mutation of captured objects happens in a copy-on-write fork
child and is invisible to the parent.  The scheduler honours this by
returning its tables' state from its count closures.

The switch
----------
Setting resolution (:func:`resolve_spec`), in priority order:

1. an explicit ``parallel=`` setting (``EngineOptions.parallel``, the
   ``sweep(parallel=...)``/``ExperimentCache(parallel=...)`` arguments);
2. the ``REPRO_PARALLEL`` environment variable when the setting is
   ``None``.

Accepted vocabulary (case-insensitive):

* ``"off"``/``"false"``/``"no"``/``"0"``/``"seq"``/``"sequential"``/unset
  — sequential (a plain list comprehension; zero threading machinery);
* ``"auto"``/``"on"``/``"true"``/``"yes"`` — thread substrate, one worker
  per available core;
* a bare integer (or integer string) — thread substrate with that many
  workers (``1`` means sequential);
* ``"thread"``/``"thread:N"`` — thread substrate, N workers (default:
  core count);
* ``"process"``/``"process:N"`` — process substrate, N forked workers
  (default: core count); see :mod:`.process`.

Substrates are looked up in a registry keyed ``seq|thread|process``;
:func:`register_substrate` accepts additional backends, which then become
valid ``kind[:N]`` settings.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Protocol, Sequence

from ...telemetry import active

__all__ = [
    "ENV_VAR",
    "ParallelSetting",
    "ParallelSpec",
    "RankPool",
    "SequentialPool",
    "Substrate",
    "ThreadPool",
    "register_substrate",
    "resolve_spec",
    "resolve_workers",
    "substrate_kinds",
    "get_pool",
    "parallel_map",
    "shutdown_pools",
]

ENV_VAR = "REPRO_PARALLEL"

ParallelSetting = int | str | bool | None

_OFF = frozenset({"", "0", "off", "false", "no", "seq", "sequential"})
_AUTO = frozenset({"auto", "on", "true", "yes"})

#: Spellings that select a substrate kind explicitly (``kind`` or
#: ``kind:N``); normalized to the registry key.
_KIND_ALIASES = {
    "thread": "thread",
    "threads": "thread",
    "process": "process",
    "processes": "process",
}


@dataclass(frozen=True)
class ParallelSpec:
    """A fully resolved parallel setting: substrate kind + worker count."""

    kind: str
    workers: int


_SEQ_SPEC = ParallelSpec("seq", 1)


def _spec(kind: str, workers: int) -> ParallelSpec:
    # Any setting that resolves to one worker is the sequential substrate,
    # whatever kind was spelled: pools below two workers are pointless.
    if workers <= 1:
        return _SEQ_SPEC
    return ParallelSpec(kind, workers)


def _bad_setting(setting: object, from_env: bool) -> ValueError:
    vocabulary = "expected 'auto'/'on'/'off', 'thread[:N]', 'process[:N]', or a worker count"
    if from_env:
        return ValueError(f"unrecognized {ENV_VAR} setting {setting!r}: {vocabulary}")
    return ValueError(
        f"unrecognized parallel= setting {setting!r} (explicit EngineOptions(parallel=) "
        f"argument, not the {ENV_VAR} environment variable): {vocabulary}"
    )


def resolve_spec(setting: ParallelSetting = None) -> ParallelSpec:
    """Resolve a parallel switch to a :class:`ParallelSpec`.

    ``None`` defers to the ``REPRO_PARALLEL`` environment variable; see the
    module docstring for the accepted vocabulary.  Error messages name the
    setting's source — the explicit ``parallel=`` argument or the
    environment variable — so a bad value points at the right knob.
    """
    from_env = setting is None
    if from_env:
        setting = os.environ.get(ENV_VAR, "")
    if isinstance(setting, ParallelSpec):
        return _spec(setting.kind, setting.workers)
    if isinstance(setting, bool):
        return _spec("thread", (os.cpu_count() or 1) if setting else 1)
    if isinstance(setting, int):
        return _spec("thread", setting)
    text = str(setting).strip().lower()
    if text in _OFF:
        return _SEQ_SPEC
    if text in _AUTO:
        return _spec("thread", os.cpu_count() or 1)
    kind_word, _, arg = text.partition(":")
    kind = _KIND_ALIASES.get(kind_word, kind_word if kind_word in _SUBSTRATES else None)
    if kind is not None:
        if not arg:
            return _spec(kind, os.cpu_count() or 1)
        try:
            return _spec(kind, int(arg))
        except ValueError:
            raise _bad_setting(setting, from_env) from None
    try:
        n = int(text)
    except ValueError:
        raise _bad_setting(setting, from_env) from None
    return _spec("thread", n)


def resolve_workers(setting: ParallelSetting = None) -> int:
    """Resolve a parallel switch to a concrete worker count (>= 1)."""
    return resolve_spec(setting).workers


class RankPool:
    """Interface shared by every execution substrate."""

    workers: int = 1

    #: Substrate registry key of this pool (``seq``/``thread``/``process``).
    kind: str = "seq"

    #: Whether workers share the driving process's address space.  When
    #: False (process substrate), side effects inside mapped closures are
    #: invisible to the caller: closures must return their outputs, and
    #: callers that would merely *move* work onto the pool without needing
    #: isolation (e.g. exchange segment gathers) should stay inline.
    in_process: bool = True

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        *,
        recorder: Any = None,
    ) -> list[Any]:
        """Apply ``fn`` to every item; results in input order.

        ``recorder`` is the caller's span recorder when the closures emit
        wall spans.  In-process substrates ignore it (the closures write
        straight into it); the process substrate uses it to ship each
        worker's spans back and replay them in input order.
        """
        raise NotImplementedError

    @property
    def is_parallel(self) -> bool:
        return self.workers > 1

    def _record_map(self, n_tasks: int) -> None:
        """Feed pool-utilization telemetry (wall metrics: the execution
        substrate is exactly what may differ between engines)."""
        reg = active()
        if reg is not None:
            kind = type(self).__name__
            reg.counter("pool_map_calls_total", "RankPool.map invocations", wall=True, pool=kind).inc()
            reg.counter("pool_tasks_total", "Items mapped through pools", wall=True, pool=kind).inc(n_tasks)
            reg.gauge("pool_workers_max", "Largest pool used", wall=True, pool=kind).set_max(self.workers)


class Substrate(Protocol):
    """What a registered execution substrate instance must provide.

    Structurally satisfied by :class:`RankPool` subclasses; the registry
    maps a kind key to a ``factory(workers) -> Substrate`` callable.
    """

    workers: int
    kind: str
    in_process: bool

    def map(
        self, fn: Callable[[Any], Any], items: Iterable[Any], *, recorder: Any = None
    ) -> list[Any]: ...

    @property
    def is_parallel(self) -> bool: ...


class SequentialPool(RankPool):
    """The deterministic fallback: a plain in-order loop, no threads."""

    workers = 1
    kind = "seq"

    def map(
        self, fn: Callable[[Any], Any], items: Iterable[Any], *, recorder: Any = None
    ) -> list[Any]:
        seq = list(items)
        self._record_map(len(seq))
        return [fn(item) for item in seq]


class ThreadPool(RankPool):
    """Thread-backed pool; NumPy-heavy rank bodies overlap under the GIL.

    Threads are created lazily and kept for the pool's lifetime (pools are
    cached per worker count by :func:`get_pool`, so repeated engine runs
    reuse warm threads instead of paying spawn cost per phase).
    :func:`shutdown_pools` — installed as an ``atexit`` hook — retires the
    cached executors at interpreter exit.
    """

    kind = "thread"

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ValueError("ThreadPool needs >= 2 workers; use SequentialPool")
        self.workers = workers
        self._executor = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-rank")

    def map(
        self, fn: Callable[[Any], Any], items: Iterable[Any], *, recorder: Any = None
    ) -> list[Any]:
        # Items are submitted in contiguous chunks (Executor.map's own
        # chunksize is ignored by ThreadPoolExecutor), so a 672-rank world
        # costs ~4*workers futures instead of 672.  Chunks preserve input
        # order and results are flattened back in order, which is exactly
        # the determinism guarantee RankPool.map promises.  The first
        # worker exception (in input order) surfaces in the caller's
        # thread, like the sequential loop's — but only once every chunk
        # has finished, so no closure is still writing into a spool or a
        # table the caller's cleanup is about to remove.
        seq = list(items)
        self._record_map(len(seq))
        if len(seq) <= 1:
            return [fn(item) for item in seq]
        chunk = max(1, -(-len(seq) // (4 * self.workers)))
        futures = [
            self._executor.submit(lambda part: [fn(item) for item in part], seq[i : i + chunk])
            for i in range(0, len(seq), chunk)
        ]
        wait(futures)
        return [result for future in futures for result in future.result()]

    def shutdown(self) -> None:
        self._executor.shutdown(wait=True)


#: kind -> factory(workers) -> pool.  ``seq`` and ``thread`` register here;
#: ``process`` registers in the package ``__init__`` (its module imports
#: from this one).
_SUBSTRATES: dict[str, Callable[[int], RankPool]] = {}

_pool_cache: dict[tuple[str, int], RankPool] = {}
_pool_lock = threading.Lock()
_SEQUENTIAL = SequentialPool()


def register_substrate(kind: str, factory: Callable[[int], RankPool]) -> None:
    """Register (or replace) an execution substrate under a kind key.

    ``kind`` becomes valid in the ``parallel=`` / ``REPRO_PARALLEL``
    vocabulary as ``kind`` or ``kind:N``; ``factory(workers)`` must build a
    pool honouring the :class:`RankPool` determinism contract.
    """
    if not kind or not kind.replace("-", "_").isidentifier():
        raise ValueError(f"invalid substrate kind {kind!r}")
    with _pool_lock:
        _SUBSTRATES[kind] = factory


def substrate_kinds() -> tuple[str, ...]:
    """The registered substrate keys, sorted."""
    with _pool_lock:
        return tuple(sorted(_SUBSTRATES))


def get_pool(setting: ParallelSetting = None) -> RankPool:
    """Pool for a parallel setting; cached per (kind, worker count).

    Returns the shared :class:`SequentialPool` when the setting resolves to
    one worker, so the default path allocates nothing.
    """
    spec = resolve_spec(setting)
    if spec.workers <= 1:
        return _SEQUENTIAL
    with _pool_lock:
        pool = _pool_cache.get((spec.kind, spec.workers))
        if pool is None:
            factory = _SUBSTRATES.get(spec.kind)
            if factory is None:
                raise ValueError(
                    f"no execution substrate registered for {spec.kind!r} "
                    f"(registered: {', '.join(sorted(_SUBSTRATES))})"
                )
            pool = _pool_cache[(spec.kind, spec.workers)] = factory(spec.workers)
        return pool


def shutdown_pools() -> None:
    """Retire every cached pool and empty the cache.

    Installed as an ``atexit`` hook so warm executor threads (PR 1 left
    them leaked at exit) and any process-substrate resources are released
    when the interpreter shuts down; also callable directly by tests or
    long-lived hosts that want a clean slate.  Subsequent :func:`get_pool`
    calls simply build fresh pools.
    """
    with _pool_lock:
        pools = list(_pool_cache.values())
        _pool_cache.clear()
    for pool in pools:
        shutdown = getattr(pool, "shutdown", None)
        if shutdown is not None:
            shutdown()


atexit.register(shutdown_pools)


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    setting: ParallelSetting = None,
    pool: RankPool | None = None,
) -> list[Any]:
    """One-shot ordered map through a (possibly shared) pool."""
    if pool is None:
        pool = get_pool(setting)
    return pool.map(fn, items)
