"""Local workers: forked sweep workers on socket pairs, reused across sweeps.

``execute(specs, workers=N)`` runs the sweep loop
(:class:`~repro.core.supervisor.SweepCoordinator`) over N local
workers.  Each is a :class:`~repro.core.distributed.SweepWorker`
forked from this process onto one end of a ``socket.socketpair()``,
spoken to with the daemon's handshake and messages, so the loop treats
it as one more lane beside the daemons.  :class:`LocalPool` owns only
their process lifecycle:

* lazily created on first use via :func:`local_pool` and reused by
  every later sweep asking for the same worker count and lease task;
* explicitly closeable (:func:`close_worker_pool`); a closed pool is
  transparently re-created on the next request, and a worker found
  dead between sweeps is respawned;
* a forked worker inherits the parent's encoded catalogues and marks
  its asset-cache baseline at spawn, so its encode gauges count only
  what it encoded itself.

Fork safety: the sweep loop forks from its own thread and starts no
other, so a worker never inherits a lock some sweep thread was holding.

Pool lifecycle counters (spawns, respawns, leases dispatched) land in
the process-level metrics registry
(:func:`repro.obs.metrics.process_registry`), *not* in per-run
registries: pool history is a process effect and must stay out of the
workers=0 == workers=N snapshot equivalence.
"""

from __future__ import annotations

import base64
import os
import signal
import socket
import threading
from typing import Callable, Optional

from repro.core.distributed import Lane, SocketChannel, SweepWorker, handshake
from repro.core.outcome_cache import code_fingerprint
from repro.core.supervisor import _lease_task
from repro.media.cache import asset_cache
from repro.obs.metrics import process_registry

#: How long a freshly forked worker may take to answer its hello.
SPAWN_TIMEOUT_S = 30.0


class LocalPool:
    """``workers`` forked :class:`SweepWorker` processes, one lane each."""

    def __init__(self, workers: int, task: Callable = _lease_task):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.task = task
        self.closed = False
        self.lanes: list[Lane] = []
        self._children: set[int] = set()  # forked and not yet reaped
        code_fingerprint()  # computed once here, inherited by every fork
        for _ in range(workers):
            self.lanes.append(self._spawn())
        process_registry().gauge("pool.workers").set(workers)

    def _spawn(self) -> Lane:
        parent, child = socket.socketpair()
        pid = os.fork()
        if pid == 0:  # the worker: serve shards until the parent hangs up
            status = 1
            try:
                parent.close()
                for lane in self.lanes:  # so a dead parent reads as EOF
                    lane.channel.close()
                signal.signal(signal.SIGINT, signal.SIG_DFL)
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                asset_cache().mark_baseline()
                SweepWorker(0, task=self.task).handle_channel(
                    SocketChannel(child)
                )
                status = 0
            finally:
                os._exit(status)
        child.close()
        self._children.add(pid)
        process_registry().counter("pool.spawns").inc()
        channel = SocketChannel(parent)
        session = base64.b16encode(os.urandom(8)).decode("ascii")
        try:
            welcome = handshake(
                channel, session, timeout=SPAWN_TIMEOUT_S, host="local worker"
            )
        except BaseException:
            self._reap(pid)
            raise
        return Lane(channel, welcome, session, remote=False)

    def _reap(self, pid: int) -> None:
        if pid in self._children:
            self._children.discard(pid)
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # reaped behind our back (SIGCHLD ignored)

    def alive(self, lane: Lane) -> bool:
        if lane.pid not in self._children:
            return False
        try:
            exited, _ = os.waitpid(lane.pid, os.WNOHANG)
        except ChildProcessError:
            exited = lane.pid
        if exited:
            self._children.discard(lane.pid)
        return not exited

    def kill(self, lane: Lane) -> None:
        """Stop one worker now, mid-lease or not."""
        lane.channel.close()
        self._reap(lane.pid)

    def replace(self, lane: Lane) -> Lane:
        """Kill a worker and fork a fresh one into its slot."""
        self.kill(lane)
        fresh = self._spawn()
        self.lanes[self.lanes.index(lane)] = fresh
        process_registry().counter("pool.respawns").inc()
        return fresh

    def close(self) -> None:
        """Stop every worker; idempotent."""
        if self.closed:
            return
        self.closed = True
        for lane in self.lanes:
            self.kill(lane)


def record_worker_utilization(
    pid: int, busy_s: float, *, host: Optional[str] = None
) -> None:
    """Publish one completed lease against its executing worker.

    Per-worker utilization lands in the process registry as
    ``pool.worker.tasks`` (a counter per worker pid) and
    ``pool.worker.busy_s`` (accumulated seconds the worker reported
    running leases).  With ``host`` set (a lease a worker daemon ran)
    the same pair is also recorded under ``dispatch.host.leases`` /
    ``dispatch.host.busy_s`` keyed by host label.  ``repro sweep
    status`` renders the journal-derived equivalent for sweeps that ran
    in other processes.
    """
    registry = process_registry()
    registry.counter("pool.worker.tasks", pid=pid).inc()
    registry.gauge("pool.worker.busy_s", pid=pid).add(busy_s)
    if host is not None:
        registry.counter("dispatch.host.leases", host=host).inc()
        registry.gauge("dispatch.host.busy_s", host=host).add(busy_s)


_POOL_LOCK = threading.Lock()
_ACTIVE_POOL: Optional[LocalPool] = None


def local_pool(workers: int, task: Callable = _lease_task) -> LocalPool:
    """The process-wide pool, lazily created and reused across sweeps.

    An open pool with the same worker count and lease task is returned,
    with any worker that died since its last sweep respawned.  A closed
    pool, a different count or a different task triggers re-creation.
    """
    global _ACTIVE_POOL
    with _POOL_LOCK:
        pool = _ACTIVE_POOL
        if (
            pool is not None
            and not pool.closed
            and pool.workers == workers
            and pool.task is task
        ):
            for lane in list(pool.lanes):
                if not pool.alive(lane):
                    pool.replace(lane)
            return pool
        if pool is not None:
            pool.close()
        _ACTIVE_POOL = LocalPool(workers, task)
        return _ACTIVE_POOL


def active_worker_pool() -> Optional[LocalPool]:
    """The currently open process-wide pool, if any (introspection)."""
    with _POOL_LOCK:
        pool = _ACTIVE_POOL
        if pool is not None and pool.closed:
            return None
        return pool


def close_worker_pool() -> None:
    """Close the process-wide pool (if open); the next use re-creates it."""
    global _ACTIVE_POOL
    with _POOL_LOCK:
        if _ACTIVE_POOL is not None:
            _ACTIVE_POOL.close()
            _ACTIVE_POOL = None
