"""Persistent worker pool: one process fan-out, reused across sweeps.

Before the sweep fabric, every ``execute()`` call built a fresh
``ProcessPoolExecutor`` and tore it down on return.  A CLI invocation
that sweeps service-by-service, a black-box probe battery, or a
benchmark that re-runs the grid therefore paid pool spawn — and,
worse, worker-side asset-encode warm-up — once *per call* instead of
once per process.

:class:`WorkerPool` wraps one executor that stays alive between calls:

* lazily created on first use via :func:`worker_pool` and reused by
  every later caller asking for the same worker count;
* explicitly closeable (:func:`close_worker_pool`); a closed pool is
  transparently re-created on the next request;
* a task that *raises* delivers its exception on its future and leaves
  the pool usable; a broken pool (worker process died) is revived in
  place by :meth:`WorkerPool.respawn`;
* an optional initializer pre-warms each worker's asset-encode cache
  from picklable ``(service, duration_s, content_seed)`` warm keys, so
  catalogues are encoded during spawn instead of inside the first
  timed run.  (Under the default ``fork`` start method workers also
  inherit whatever the parent already encoded — warming the parent
  warms every future worker for free.)

Determinism: the pool changes *where* runs execute, never what they
produce.  Outcomes are pure functions of their specs, so cold-pool,
warm-pool and in-process execution compare ``==`` — the invariant the
fabric tests assert.

Pool lifecycle counters (spawns, respawns, tasks dispatched) land in
the process-level metrics registry
(:func:`repro.obs.metrics.process_registry`), *not* in per-run
registries: pool history is a process effect and must stay out of the
workers=0 == workers=N snapshot equivalence.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable, Optional, Sequence, TypeVar, Union

from repro.obs.metrics import process_registry

T = TypeVar("T")
R = TypeVar("R")

#: A picklable description of one catalogue to pre-encode in each
#: worker: (service name or ServiceSpec, duration_s, content_seed).
WarmKey = tuple[Union[str, object], float, int]


def _warm_worker(warm_keys: Sequence[WarmKey]) -> None:
    """Worker initializer: encode the given catalogues into the
    process-local asset cache before the first task arrives, then mark
    the cache baseline so task-side encode accounting excludes both the
    warm-up and whatever the parent encoded before ``fork``."""
    from repro.media.cache import asset_cache
    from repro.services.profiles import get_service

    for service, duration_s, content_seed in warm_keys:
        spec = get_service(service) if isinstance(service, str) else service
        spec.encode_asset(duration_s, content_seed)
    asset_cache().mark_baseline()


class WorkerPool:
    """A closeable, reusable process pool with future-per-task ``submit``.

    Thin by design: the locality-aware chunk planning lives in
    ``core/run.py`` — the pool only owns process lifecycle.
    """

    def __init__(self, workers: int, *, warm_keys: Sequence[WarmKey] = ()):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.warm_keys = tuple(warm_keys)
        self._closed = False
        self.tasks_dispatched = 0
        self.tasks_failed = 0
        self.respawns = 0
        self._executor = self._spawn_executor()

    def _spawn_executor(self) -> ProcessPoolExecutor:
        executor = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_warm_worker,
            initargs=(self.warm_keys,),
        )
        registry = process_registry()
        registry.counter("pool.spawns").inc()
        registry.gauge("pool.workers").set(self.workers)
        return executor

    @property
    def closed(self) -> bool:
        return self._closed

    def submit(self, fn: Callable[[T], R], item: T) -> Future:
        """Submit one task; counted only when submission succeeds.

        The one dispatch entry point, used by the sweep supervisor: a
        task exception is delivered on the future, and a broken pool
        leaves this object alive so :meth:`respawn` can revive it in
        place.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        future = self._executor.submit(fn, item)
        self.tasks_dispatched += 1
        process_registry().counter("pool.tasks_dispatched").inc()
        return future

    def note_task_failure(self) -> None:
        """Record one task that raised (the pool itself stays healthy)."""
        self.tasks_failed += 1
        process_registry().counter("pool.tasks_failed").inc()

    def respawn(self, *, kill_workers: bool = False) -> None:
        """Replace the executor with a fresh one, in place.

        The supervisor's recovery path after a worker death or a hung
        (timed-out) task: the pool object — and every counter on it —
        survives, only the process fan-out is rebuilt.
        ``kill_workers=True`` terminates lingering worker processes
        (a hung task would otherwise keep its process alive until the
        task returns on its own).
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        old = self._executor
        # Snapshot the worker processes BEFORE shutdown: the executor
        # nulls its process table inside shutdown(wait=False), and a
        # hung worker that outlives it would pin the executor's
        # management thread (and interpreter exit) forever.
        processes = list((getattr(old, "_processes", None) or {}).values())
        try:
            old.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        if kill_workers:
            for process in processes:
                try:
                    process.kill()
                except Exception:
                    pass
        self.respawns += 1
        process_registry().counter("pool.respawns").inc()
        self._executor = self._spawn_executor()

    def close(self) -> None:
        """Shut the executor down; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True, cancel_futures=True)


def record_worker_utilization(
    pid: int, busy_s: float, *, host: Optional[str] = None
) -> None:
    """Publish one completed lease against its executing worker.

    Per-worker utilization lands in the process registry as
    ``pool.worker.tasks`` (a counter per worker pid) and
    ``pool.worker.busy_s`` (accumulated wall-clock seconds the worker
    spent owning leases — measured lease start to delivery, so pooled
    runs include queue residency).  With ``host`` set (the distributed
    coordinator's per-remote view) the same pair is also recorded under
    ``dispatch.host.leases`` / ``dispatch.host.busy_s`` keyed by host
    label.  ``repro sweep status`` renders the journal-derived
    equivalent for sweeps that ran in other processes.
    """
    registry = process_registry()
    registry.counter("pool.worker.tasks", pid=pid).inc()
    registry.gauge("pool.worker.busy_s", pid=pid).add(busy_s)
    if host is not None:
        registry.counter("dispatch.host.leases", host=host).inc()
        registry.gauge("dispatch.host.busy_s", host=host).add(busy_s)


_POOL_LOCK = threading.Lock()
_ACTIVE_POOL: Optional[WorkerPool] = None


def worker_pool(
    workers: int, *, warm_keys: Sequence[WarmKey] = ()
) -> WorkerPool:
    """The process-wide pool, lazily created and reused across calls.

    An alive pool with the same worker count is returned as-is
    (``warm_keys`` only apply at creation — later workers warm lazily
    through the asset cache on their first run of each catalogue).  A
    closed pool or a different worker count triggers re-creation.
    """
    global _ACTIVE_POOL
    with _POOL_LOCK:
        pool = _ACTIVE_POOL
        if pool is not None and not pool.closed and pool.workers == workers:
            return pool
        if pool is not None:
            pool.close()
        _ACTIVE_POOL = WorkerPool(workers, warm_keys=warm_keys)
        return _ACTIVE_POOL


def active_worker_pool() -> Optional[WorkerPool]:
    """The currently alive process-wide pool, if any (introspection).

    Takes the pool lock like its siblings: without it a concurrent
    ``close_worker_pool()`` could hand back a pool that is mid-close —
    observed alive here, closed by the time the caller submits to it.
    """
    with _POOL_LOCK:
        pool = _ACTIVE_POOL
        if pool is not None and pool.closed:
            return None
        return pool


def close_worker_pool() -> None:
    """Close the process-wide pool (if alive); the next use re-creates it."""
    global _ACTIVE_POOL
    with _POOL_LOCK:
        if _ACTIVE_POOL is not None:
            _ACTIVE_POOL.close()
            _ACTIVE_POOL = None
