"""Crash-safe sweeps: leases, the one dispatch loop, retries, resume.

Every sweep except the plain in-process oracle runs through one loop,
:class:`SweepCoordinator`.  It hands catalogue-pure shards of leases to
*lanes* and applies the sweep policy as their results come back.  A
lane is one of three things:

* this process: the loop calls the lease task directly, with no
  thread, channel or pickle;
* a forked local worker (:mod:`repro.core.pool`): a
  :class:`~repro.core.distributed.SweepWorker` on one end of a socket
  pair, spoken to with the daemon's handshake and messages;
* a ``repro worker`` daemon (:mod:`repro.core.distributed`), over a
  socket or a spool directory.

A worker runs each lease it is sent once and streams back ``done`` or
a typed failure.  Everything else happens here, once, for every lane:

* **Leases.** Each spec is an idempotent lease keyed by the canonical
  RunSpec SHA-256 (:func:`~repro.core.outcome_cache.lease_key` — the
  outcome cache's addressing, minus the side-effect refusal).  Running
  a lease twice produces the same outcome, so re-running is always
  safe; the loop only decides *whether* it is necessary.
* **Retry / quarantine.** A failed attempt is retried with seeded
  exponential backoff up to ``SweepPolicy.max_attempts``; a poison
  spec that keeps failing is recorded as a typed
  :class:`FailedOutcome` instead of sinking the other N-1 results.
  With quarantine off (the default policy) the first exhausted lease
  raises.
* **Timeouts.** A local worker whose lease outlives
  ``SweepPolicy.timeout_s`` is killed and respawned: the lease failed
  an attempt, the rest of its shard is re-dispatched.
* **Deaths.** A lane that dies has its unfinished leases re-dispatched.
  A dead local worker is respawned and the lease it was running counts
  one death; after ``max_pool_respawns`` consecutive deaths the sweep
  degrades to this process, with a loud log line and a
  ``sweep.serial_degradations`` metric — slow beats dead.  When the
  last daemon is lost the sweep falls back to local workers, or to this
  process without them.
* **Journal.** :class:`SweepJournal` is an append-only JSONL of
  ``{spec_sha, status, attempt, duration}`` lines whose payloads,
  keyed by lease SHA, live in the sweep's outcome cache when it has
  one and in the journal's own store otherwise.
  ``execute(..., journal=...)`` skips leases the journal marks
  complete — even uncacheable ones — so any killed sweep resumes
  instead of restarting.  A torn final line (killed mid-write) is
  ignored on load; a ``done`` line only skips when its payload
  actually loads under the current code fingerprint.

Supervision counters (``sweep.retries``, ``sweep.timeouts``,
``sweep.quarantined``, ``sweep.pool_respawns``, ``sweep.resumed_skips``,
``sweep.serial_degradations``) and dispatch counters (``dispatch.*``:
shards and leases sent to workers, deaths, re-dispatches, fallbacks)
land in the process-level metrics registry: where and whether work
re-ran is process history, and must stay outside the
``workers=0 == workers=N`` snapshot equivalence.

Determinism contract, restated: the loop changes *where and whether* a
lease executes — never what it produces.  A sweep that lost workers,
timed out stragglers and resumed from a journal compares ``==`` to a
clean ``workers=0`` run, minus any quarantined leases, which are typed
failures rather than silent absences.
"""

from __future__ import annotations

import base64
import hashlib
import heapq
import itertools
import json
import logging
import os
import random
import select
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, ClassVar, Optional, Sequence, Union

from repro.core.outcome_cache import (
    OutcomeCache,
    code_fingerprint,
    default_cache_dir,
    has_file_sink,
    lease_key,
)
from repro.obs.metrics import (
    EMPTY_SNAPSHOT,
    SWEEP_COUNTERS,
    MetricsSnapshot,
    process_registry,
)

if TYPE_CHECKING:  # circular at runtime: run.py imports this module
    from repro.core.parallel import RunSpec

log = logging.getLogger("repro.sweep")

#: Journal records per fsync while a sweep runs (group commit): each
#: line is still appended at ``record`` time, only the fsync waits.
JOURNAL_FLUSH_EVERY = 64


class SpecTimeout(RuntimeError):
    """A lease exceeded its ``SweepPolicy.timeout_s`` wall-clock budget."""


@dataclass(frozen=True)
class SweepPolicy:
    """Supervision knobs for one sweep.

    The default policy is no timeout, one attempt, first failure
    raises, while results still survive worker deaths.  Robust sweeps
    opt in, e.g.::

        SweepPolicy(timeout_s=120.0, max_attempts=3, quarantine=True)
    """

    #: Per-spec wall-clock budget; ``None`` disables.  Enforced on local
    #: workers (the loop kills the worker) and by daemons serving with
    #: local workers — an in-process lease cannot be preempted.
    timeout_s: Optional[float] = None
    #: Total tries per lease (first run + retries).
    max_attempts: int = 1
    #: Exponential backoff between retries: ``base * 2**(attempt-1)``
    #: capped at ``backoff_cap_s``, jittered by a stream seeded from
    #: ``(backoff_seed, lease key, attempt)`` so reruns are repeatable.
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    backoff_seed: int = 0
    #: Exhausted leases become :class:`FailedOutcome` instead of raising.
    quarantine: bool = False
    #: Consecutive local worker deaths tolerated (each one respawns the
    #: worker); one more degrades the sweep to in-process execution.
    max_pool_respawns: int = 3
    #: Worker deaths a single lease may be running for before it is
    #: presumed poison (it keeps killing its worker) and quarantined.
    lease_death_limit: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")


@dataclass(frozen=True)
class FailedOutcome:
    """Typed terminal failure of one lease (the quarantine record).

    Rides in the outcome list where the :class:`~repro.core.run.RunOutcome`
    would sit, so a sweep with a poison spec still returns the other
    N-1 results in order.  ``record`` is always ``None`` and ``metrics``
    empty — a quarantined lease produced nothing comparable.
    """

    spec: "RunSpec"
    kind: str  # "error" | "timeout" | "pool_death"
    attempts: int
    message: str = ""
    metrics: MetricsSnapshot = EMPTY_SNAPSHOT
    trace: tuple = ()
    record: ClassVar[None] = None
    result: ClassVar[None] = None


@dataclass
class SweepStats:
    """What the loop did during one sweep.  The first six fields mirror
    to ``sweep.*`` counters, the rest (what went to which worker) to
    ``dispatch.*``."""

    retries: int = 0
    timeouts: int = 0
    quarantined: int = 0
    pool_respawns: int = 0
    resumed_skips: int = 0
    serial_degradations: int = 0
    shards: int = 0
    leases_sent: int = 0
    leases_completed: int = 0
    worker_deaths: int = 0
    redispatched_leases: int = 0
    hosts_unreachable: int = 0
    local_fallback_leases: int = 0


# ---------------------------------------------------------------------------
# The journal
# ---------------------------------------------------------------------------

#: Journal line statuses that mean "this lease needs no re-run".
_TERMINAL_STATUSES = ("done", "quarantined")


class SweepJournal:
    """Append-only, crash-safe record of lease completions.

    A journal is a directory: ``journal.jsonl`` (one JSON object per
    completed lease) plus ``outcomes/``, its own
    :class:`~repro.core.outcome_cache.OutcomeCache` addressed by lease
    SHA.  A done lease's payload is written once.  With ``cache`` (the
    sweep's shared outcome cache) it goes there, under the same key the
    cache reads it by.  The own store holds only what the shared cache
    cannot: payloads of sweeps without a cache, and of specs with a
    file-backed trace sink, whose side effect already happened in the
    journaled run.  A journal run with a cache therefore resumes from
    that cache; resumed without it, its done leases re-run.

    Crash safety: payloads are stored *before* their journal line, each
    line lands in one unbuffered ``O_APPEND`` write and is fsynced, and
    a torn final line (the writer was SIGKILL'd mid-append) is silently
    dropped on load — the worst case is a lease re-run, never a wrong
    result.  Because every line is one append-mode write, two journal
    instances on the same directory (the coordinator's shard-merge
    scenario) interleave at line granularity and load as their union,
    last writer wins per lease key.

    **Group commit** (``flush_every > 1``): the journal keeps one open
    handle and fsyncs once per ``flush_every`` records instead of
    opening + fsyncing per line; the sweep loop records in this mode
    (:data:`JOURNAL_FLUSH_EVERY`).  The write itself still happens per
    record, so the torn-tail guarantee is unchanged; a crash loses at
    most the records since the last fsync, each of which simply re-runs.  :meth:`flush` forces the fsync;
    :meth:`close` flushes and releases the handle.

    Lines dropped on load because they would not decode are *counted*
    (``skipped_lines``, plus the process-level
    ``sweep.journal_skipped_lines`` counter) and logged once with the
    first offending line number, so a corrupted journal is visible
    instead of quietly shrinking a resume.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        flush_every: int = 1,
        cache: Optional[OutcomeCache] = None,
    ):
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / "journal.jsonl"
        self.store = OutcomeCache(self.root / "outcomes")
        self.cache = cache
        self.flush_every = flush_every
        self.skipped_lines = 0
        self._entries: dict[str, dict] = {}
        self._handle = None  # lazily opened append handle (binary, unbuffered)
        self._unsynced = 0
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        raw = self.path.read_bytes()
        if raw and not raw.endswith(b"\n"):
            # Torn tail from a mid-append kill: truncate it away now, or
            # the next append would glue onto it and corrupt that line.
            cut = raw.rfind(b"\n") + 1
            with open(self.path, "r+b") as handle:
                handle.truncate(cut)
            raw = raw[:cut]
        first_bad: Optional[int] = None
        for number, line in enumerate(
            raw.decode("utf-8", errors="replace").splitlines(), start=1
        ):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                key = entry.get("spec_sha") if isinstance(entry, dict) else None
            except json.JSONDecodeError:
                key = None
            if not key:
                # Mid-file garbage: a foreign writer, filesystem damage,
                # or a line from an incompatible schema.  Dropping it is
                # still the right recovery, but silently shrinking a
                # resume is not — count and warn.
                self.skipped_lines += 1
                if first_bad is None:
                    first_bad = number
                continue
            self._entries[key] = entry
        if self.skipped_lines:
            process_registry().counter("sweep.journal_skipped_lines").inc(
                self.skipped_lines
            )
            log.warning(
                "sweep journal %s: skipped %d undecodable line(s) "
                "(first at line %d); the leases they described will re-run",
                self.path, self.skipped_lines, first_bad,
            )

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> dict[str, dict]:
        """The loaded lease entries, keyed by spec SHA (a copy)."""
        return dict(self._entries)

    def completed(self, key: str) -> Optional[dict]:
        """The terminal journal entry for a lease key, if any."""
        entry = self._entries.get(key)
        if entry is not None and entry.get("status") in _TERMINAL_STATUSES:
            return entry
        return None

    def record(
        self,
        key: str,
        status: str,
        *,
        attempt: int,
        duration_s: float,
        kind: Optional[str] = None,
        message: Optional[str] = None,
        host: Optional[str] = None,
        pid: Optional[int] = None,
    ) -> None:
        """Append one lease-state line, durably.

        ``host`` / ``pid`` record *where* the lease executed (a remote
        worker host label, a pool worker pid) — pure telemetry for
        ``repro sweep status``, never part of resume decisions.
        """
        entry: dict = {
            "spec_sha": key,
            "status": status,
            "attempt": attempt,
            "duration": round(duration_s, 6),
            "code": code_fingerprint(),
        }
        if kind:
            entry["kind"] = kind
        if message:
            entry["message"] = message
        if host:
            entry["host"] = host
        if pid is not None:
            entry["pid"] = pid
        data = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
        if self.flush_every <= 1:
            # Classic path: open, append, fsync, close — one durable
            # line per call, no state held between calls.
            with open(self.path, "ab", buffering=0) as handle:
                handle.write(data)
                os.fsync(handle.fileno())
        else:
            # Group commit: one held unbuffered O_APPEND handle — each
            # line is still a single contiguous write (so concurrent
            # writers interleave at line granularity and a kill tears at
            # most the final line), but the fsync is amortised.
            if self._handle is None:
                self._handle = open(self.path, "ab", buffering=0)
            self._handle.write(data)
            self._unsynced += 1
            if self._unsynced >= self.flush_every:
                self.flush()
        self._entries[key] = entry

    def flush(self) -> None:
        """Force buffered group-commit records down to disk."""
        if self._handle is not None and self._unsynced:
            os.fsync(self._handle.fileno())
        self._unsynced = 0

    def close(self) -> None:
        """Flush and release the group-commit handle (idempotent)."""
        self.flush()
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @contextmanager
    def batched(self, flush_every: int = 64):
        """Temporarily switch to group-commit mode, e.g.::

            with journal.batched(64):
                ... thousands of record() calls, fsync every 64 ...

        On exit the journal flushes and returns to its previous mode.
        """
        previous = self.flush_every
        self.flush_every = max(1, flush_every)
        try:
            yield self
        finally:
            self.flush_every = previous
            self.close()

    def payload_store(self, spec: "RunSpec") -> OutcomeCache:
        """Where a done lease of ``spec`` keeps its payload."""
        if self.cache is not None and not has_file_sink(spec):
            return self.cache
        return self.store

    def load_outcome(self, spec: "RunSpec", key: str):
        """The stored payload for a done lease, or ``None`` (re-run)."""
        return self.payload_store(spec).get(spec, key=key)


def restore_from_journal(
    journal: Optional[SweepJournal], spec: "RunSpec", key: Optional[str]
):
    """Rebuild the outcome a journal marks terminal, or ``None`` (re-run).

    The resume primitive of :func:`resume_leases`: a ``done`` entry
    restores its stored payload (which must load under the current code
    fingerprint), a ``quarantined`` entry restores a typed
    :class:`FailedOutcome` only when recorded under the same code — a
    fixed simulator deserves a fresh try at the poison spec.
    """
    if journal is None or key is None:
        return None
    entry = journal.completed(key)
    if entry is None:
        return None
    if entry["status"] == "done":
        return journal.load_outcome(spec, key)
    if entry["status"] == "quarantined":
        if entry.get("code") != code_fingerprint():
            return None
        return FailedOutcome(
            spec=spec,
            kind=entry.get("kind", "error"),
            attempts=int(entry.get("attempt", 1)),
            message=entry.get("message", ""),
        )
    return None


@dataclass(frozen=True)
class LeaseResult:
    """One terminal lease, as handed to an ``on_terminal`` observer.

    A worker daemon serving with local workers streams these back over
    its transport as they land; ``execute`` writes them to its cache.
    ``entry`` holds the outcome's cache-entry bytes when a lane shipped
    or the journal stored them, so an observer can store them again
    without a second pickle.
    """

    index: int  # position in the swept spec sequence
    key: Optional[str]
    status: str  # "done" | "quarantined"
    outcome: object  # RunOutcome | FleetOutcome | FailedOutcome | raw payload
    attempts: int
    duration_s: float
    kind: Optional[str] = None
    message: Optional[str] = None
    pid: Optional[int] = None
    entry: Optional[bytes] = None


def sweep_key(
    specs: Sequence["RunSpec"],
    keys: Optional[Sequence[Optional[str]]] = None,
) -> str:
    """A stable identity for a whole sweep (orders + lease keys).

    ``keys`` are the specs' precomputed lease keys, if the caller has
    them.
    """
    if keys is None:
        keys = [lease_key(spec) for spec in specs]
    digest = hashlib.sha256()
    for index, key in enumerate(keys):
        digest.update(f"{index}:{key or 'unkeyed'}\n".encode())
    return digest.hexdigest()[:16]


def default_journal_root() -> Path:
    """Where ``journal=True`` journals live: under the cache dir."""
    return default_cache_dir() / "_journals"


#: What ``journal=`` accepts: disabled, "derive a directory from the
#: sweep's identity under the cache dir", an explicit directory, or a
#: live journal object.
JournalSpec = Union[None, bool, str, Path, "SweepJournal"]


def resolve_sweep_journal(
    journal: JournalSpec,
    specs: Sequence["RunSpec"] = (),
    *,
    keys: Optional[Sequence[Optional[str]]] = None,
    cache: Optional[OutcomeCache] = None,
) -> Optional[SweepJournal]:
    """Normalize a ``journal=`` argument to a :class:`SweepJournal`.

    A journal built here keeps its payloads in ``cache``; a live
    journal keeps the cache it was built with.
    """
    if journal is None or journal is False:
        return None
    if isinstance(journal, SweepJournal):
        return journal
    if journal is True:
        journal = default_journal_root() / sweep_key(specs, keys)
    return SweepJournal(journal, cache=cache)


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------


def _lease_task(spec: "RunSpec"):
    """Run one lease: the outcome plus the running process's pid and its
    asset-cache activity since its baseline (a forked local worker marks
    one at spawn), which feed the per-worker encode gauges."""
    from repro.core.run import run_one
    from repro.media.cache import asset_cache

    outcome = run_one(spec, keep_result=False)
    misses, hits = asset_cache().since_baseline()
    return outcome, os.getpid(), misses, hits


@dataclass
class _Lease:
    index: int
    spec: "RunSpec"
    key: Optional[str]
    attempts: int = 0
    deaths: int = 0


@dataclass
class _Shard:
    id: int
    leases: list[_Lease]


def resume_leases(
    specs: Sequence["RunSpec"],
    keys: Optional[Sequence[Optional[str]]],
    journal: Optional[SweepJournal],
    outcomes: list,
) -> list[_Lease]:
    """Lease every spec, restoring those the journal marks terminal.

    The journal-resume prefix of :meth:`SweepCoordinator.run`: each
    restored outcome lands in its ``outcomes`` slot and counts one
    ``sweep.resumed_skips``; the returned leases still need running.
    ``keys`` are the specs' lease keys when the caller has computed them
    already; otherwise specs are keyed only when there is a journal to
    consult.
    """
    if keys is None:
        keys = (
            [lease_key(spec) for spec in specs]
            if journal is not None
            else [None] * len(specs)
        )
    pending: list[_Lease] = []
    for index, (spec, key) in enumerate(zip(specs, keys)):
        restored = restore_from_journal(journal, spec, key)
        if restored is None:
            pending.append(_Lease(index=index, spec=spec, key=key))
        else:
            outcomes[index] = restored
    skipped = len(specs) - len(pending)
    if skipped:
        process_registry().counter("sweep.resumed_skips").inc(skipped)
    return pending


class SweepCoordinator:
    """The one sweep loop: shards of leases over lanes, policy applied here.

    ``hosts`` name ``repro worker`` daemons (``HOST:PORT`` or
    ``spool:PATH``).  Without any, or once the last of them is lost, the
    sweep runs on ``local_workers`` forked local workers, and without
    those in this process.  ``task`` is the lease task
    (``spec -> (payload, pid, encode_misses, encode_hits)``); local
    workers are forked from this process, so an injected task reaches
    them.  ``on_terminal`` sees each lease as it turns terminal, in
    completion order.
    """

    def __init__(
        self,
        hosts: Sequence[str] = (),
        *,
        policy: Optional[SweepPolicy] = None,
        journal: Optional[SweepJournal] = None,
        local_workers: int = 0,
        connect_timeout_s: float = 5.0,
        io_timeout_s: float = 600.0,
        task: Callable = _lease_task,
        on_terminal: Optional[Callable[[LeaseResult], None]] = None,
    ):
        self.hosts = list(hosts)
        self.policy = policy if policy is not None else SweepPolicy()
        self.journal = journal
        self.local_workers = local_workers
        self.connect_timeout_s = connect_timeout_s
        self.io_timeout_s = io_timeout_s
        self.task = task
        self.on_terminal = on_terminal
        self.stats = SweepStats()
        self._session = base64.b16encode(os.urandom(8)).decode("ascii")
        # Decodes the entries of a sweep without a journal to store them.
        self._codec = OutcomeCache(Path(os.devnull))
        self._pool = None  # the local worker pool, once the sweep uses it
        self._lanes: list = []  # the lanes of the current tier; [] = here
        self._queue: deque[_Shard] = deque()
        self._delayed: list[tuple[float, int, _Lease]] = []  # backoff heap
        self._ids = itertools.count()
        self._deaths = 0  # consecutive local worker deaths
        self._outcomes: list = []

    # -- bookkeeping -------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        setattr(self.stats, name, getattr(self.stats, name) + amount)
        metric = f"sweep.{name}"
        if metric not in SWEEP_COUNTERS:
            metric = f"dispatch.{name}"
        process_registry().counter(metric).inc(amount)

    def _backoff_delay(self, lease: _Lease) -> float:
        policy = self.policy
        attempt = max(1, lease.attempts)
        base = min(
            policy.backoff_cap_s,
            policy.backoff_base_s * (2 ** (attempt - 1)),
        )
        material = f"{policy.backoff_seed}:{lease.key or lease.index}:{attempt}"
        seed = int.from_bytes(
            hashlib.sha256(material.encode()).digest()[:8], "big"
        )
        return base * (0.5 + 0.5 * random.Random(seed).random())

    def _describe(self, lease: _Lease) -> str:
        spec = lease.spec
        return (
            f"{spec.service_name}/profile{spec.profile_id}"
            f"/rep{spec.repetition} (lease {lease.key or f'#{lease.index}'})"
        )

    def _enqueue(self, leases: Sequence[_Lease]) -> None:
        if leases:
            self._queue.append(_Shard(next(self._ids), list(leases)))

    def _requeue(self, leases: Sequence[_Lease]) -> None:
        """Put leases a lane did not finish back for the others."""
        if leases:
            self._count("redispatched_leases", len(leases))
            self._enqueue(leases)

    # -- lanes -------------------------------------------------------------

    def _handshake(self, host: str):
        from repro.core.distributed import Lane, _connect, handshake

        channel = _connect(host, timeout=self.connect_timeout_s)
        welcome = handshake(
            channel, self._session, timeout=self.connect_timeout_s, host=host
        )
        return Lane(channel, welcome, self._session, remote=True)

    def _connect_all(self) -> list:
        from repro.core.distributed import TransportError

        lanes = []
        for host in self.hosts:
            try:
                lane = self._handshake(host)
            except (TransportError, ValueError, OSError) as exc:
                self._count("hosts_unreachable")
                log.warning("dispatch: %s unreachable: %s", host, exc)
                continue
            lanes.append(lane)
            log.info(
                "dispatch: connected %s (label=%s, %d pool worker(s))",
                host, lane.label, lane.workers,
            )
        return lanes

    def _local_lanes(self) -> list:
        """The local workers' lanes, or [] to run in this process."""
        if self.local_workers <= 0:
            return []
        from repro.core.pool import local_pool

        self._pool = local_pool(self.local_workers, self.task)
        return list(self._pool.lanes)

    def _fall_back(self, leases: int) -> None:
        """No daemon is left: finish on local workers, else here."""
        self._count("local_fallback_leases", leases)
        self._lanes = self._local_lanes()
        if self.stats.hosts_unreachable or self.stats.worker_deaths:
            log.warning(
                "dispatch: finishing %d lease(s) locally (workers=%d)",
                leases, len(self._lanes),
            )

    def _replace(self, lane) -> None:
        self._lanes[self._lanes.index(lane)] = self._pool.replace(lane)

    def _release(self) -> None:
        """Hang up on daemons; kill local workers still mid-shard, whose
        late messages would reach the next sweep."""
        for lane in self._lanes:
            if lane.remote:
                lane.close(bye=True)
            elif lane.shard is not None:
                lane.shard = None
                self._pool.kill(lane)
        self._lanes = []

    # -- terminal states ---------------------------------------------------

    def _finish(self, lease: _Lease, result: LeaseResult, lane) -> None:
        """A lease turned terminal: fill its slot, journal it (after its
        payload, which the caller stored) and tell the observer."""
        self._outcomes[lease.index] = result.outcome
        if self.journal is not None and lease.key is not None:
            self.journal.record(
                lease.key, result.status,
                attempt=result.attempts,
                duration_s=result.duration_s,
                kind=result.kind,
                message=result.message,
                host=lane.label if lane is not None and lane.remote else None,
                pid=result.pid,
            )
        if self.on_terminal is not None:
            self.on_terminal(result)

    def _succeed(
        self,
        lease: _Lease,
        outcome,
        *,
        duration_s: float,
        pid: Optional[int],
        lane=None,
        entry: Optional[bytes] = None,
    ) -> None:
        from repro.core.fleet import FleetOutcome
        from repro.core.pool import record_worker_utilization
        from repro.core.run import RunOutcome

        remote = lane is not None and lane.remote
        record_worker_utilization(
            -1 if pid is None else pid,
            duration_s,
            host=lane.label if remote else None,
        )
        if lane is not None:
            self._count("leases_completed")
            self._deaths = 0
        if (
            self.journal is not None
            and lease.key is not None
            and isinstance(outcome, (RunOutcome, FleetOutcome))
        ):
            # Stored before its journal line: a crash between the two
            # re-runs the lease, never trusts a missing payload.
            store = self.journal.payload_store(lease.spec)
            if entry is None:
                entry = store.encode_entry(lease.spec, outcome, key=lease.key)
            store.put_bytes(lease.key, entry)
        self._finish(lease, LeaseResult(
            lease.index, lease.key, "done", outcome, lease.attempts + 1,
            duration_s, pid=pid, entry=entry,
        ), lane)

    def _quarantine(
        self, lease: _Lease, kind: str, message: str, lane=None
    ) -> None:
        attempts = max(lease.attempts, lease.deaths, 1)
        self._count("quarantined")
        log.error(
            "sweep: quarantined %s after %d attempt(s) [%s] %s",
            self._describe(lease), attempts, kind, message,
        )
        failed = FailedOutcome(
            spec=lease.spec, kind=kind, attempts=attempts, message=message
        )
        self._finish(lease, LeaseResult(
            lease.index, lease.key, "quarantined", failed, attempts, 0.0,
            kind=kind, message=message,
        ), lane)

    def _handle_failure(
        self,
        lease: _Lease,
        kind: str,
        exc: BaseException,
        lane=None,
        message: Optional[str] = None,
    ) -> None:
        """One failed attempt: retry with backoff, quarantine, or raise."""
        lease.attempts += 1
        if kind == "timeout":
            self._count("timeouts")
        if lease.attempts >= self.policy.max_attempts:
            if self.policy.quarantine:
                message = message or f"{type(exc).__name__}: {exc}"
                self._quarantine(lease, kind, message, lane)
                return
            raise exc
        self._count("retries")
        if self.journal is not None and lease.key is not None:
            self.journal.record(
                lease.key, "failed",
                attempt=lease.attempts,
                duration_s=0.0,
                kind=kind,
            )
        due = time.monotonic() + self._backoff_delay(lease)
        heapq.heappush(self._delayed, (due, next(self._ids), lease))

    def _bury(self, lease: _Lease, lane) -> bool:
        """A worker died under ``lease``; True if the lease should re-run,
        False once it has ridden ``lease_death_limit`` deaths and is
        presumed poison."""
        lease.deaths += 1
        if (
            self.policy.quarantine
            and lease.deaths >= self.policy.lease_death_limit
        ):
            self._quarantine(lease, "pool_death", "", lane)
            return False
        return True

    # -- lane events -------------------------------------------------------

    def _send(self, lane, shard: _Shard) -> None:
        from repro.core.distributed import TransportError

        try:
            lane.send_shard(
                shard.id,
                [lease.spec for lease in shard.leases],
                [lease.key for lease in shard.leases],
                self.policy.timeout_s,
            )
        except TransportError as exc:
            self._queue.appendleft(shard)
            self._lost(lane, exc)
            return
        lane.start(shard, time.monotonic())
        self._count("shards")
        self._count("leases_sent", len(shard.leases))
        if not lane.remote:
            process_registry().counter("pool.tasks_dispatched").inc(
                len(shard.leases)
            )

    def _receive(self, lane) -> bool:
        """Handle one message from a busy lane; False when there was
        none (or the lane is no longer busy)."""
        from repro.core.distributed import TransportError

        if lane.shard is None or lane not in self._lanes:
            return False
        try:
            msg = lane.recv(self.io_timeout_s)
        except TransportError as exc:
            self._lost(lane, exc)
            return False
        if msg is None:
            return False
        lane.heard = time.monotonic()
        shard = lane.shard
        kind = msg.get("t")
        if kind == "lease" and msg.get("shard") == shard.id:
            self._on_lease(lane, msg)
        elif kind == "shard_done" and msg.get("id") == shard.id:
            # Leases left open here had undecodable payloads (or a buggy
            # worker skipped them): the idempotent remedy is re-dispatch.
            self._requeue(lane.unfinished())
        elif kind == "shard_failed" and msg.get("id") == shard.id:
            raise RuntimeError(
                f"distributed sweep failed: {lane.label}: {msg.get('error')}"
            )
        return True

    def _on_lease(self, lane, msg: dict) -> None:
        from repro.core.distributed import lease_error, lease_payload

        position = msg.get("index")
        if position not in lane.open:
            return
        lease = lane.shard.leases[position]
        lane.next, lane.started = position + 1, time.monotonic()
        if msg.get("status") != "done":
            lane.open.discard(position)
            kind = msg.get("kind") or "error"
            if kind == "pool_death":
                if self._bury(lease, lane):
                    self._requeue([lease])
                return
            if not lane.remote:
                process_registry().counter("pool.tasks_failed").inc()
            self._handle_failure(
                lease, kind, lease_error(msg), lane, msg.get("message")
            )
            return
        store = (
            self.journal.payload_store(lease.spec)
            if self.journal is not None
            else self._codec
        )
        try:
            outcome, entry = lease_payload(msg, lease.spec, lease.key, store)
        except Exception as exc:  # noqa: BLE001 - a lost lease, re-run
            log.warning(
                "dispatch: undecodable lease payload from %s (%s); "
                "the lease will re-run", lane.label, exc,
            )
            return
        lane.open.discard(position)
        pid = msg.get("pid")
        if not lane.remote:
            registry = process_registry()
            registry.gauge("pool.worker.asset_encodes", pid=pid).set(
                msg.get("misses", 0)
            )
            registry.gauge("pool.worker.asset_hits", pid=pid).set(
                msg.get("hits", 0)
            )
        self._succeed(
            lease, outcome,
            duration_s=float(msg.get("duration", 0.0)),
            pid=pid,
            lane=lane,
            entry=entry,
        )

    def _lost(self, lane, exc: BaseException) -> None:
        """A lane died: re-dispatch what it left unfinished."""
        # A local worker runs its shard in order: the lease it was on is
        # the suspect, the rest of its shard never started.
        suspect = None if lane.remote else lane.current()
        leftovers = lane.unfinished()
        self._count("worker_deaths")
        log.warning(
            "dispatch: lost %s (%s); re-dispatching %d unfinished lease(s)",
            lane.label, exc, len(leftovers),
        )
        if lane.remote:
            lane.close()
            self._lanes.remove(lane)
            self._requeue(leftovers)
            if not any(other.remote for other in self._lanes):
                self._fall_back(
                    sum(len(s.leases) for s in self._queue)
                    + len(self._delayed)
                )
            return
        self._requeue([
            lease for lease in leftovers
            if lease is not suspect or self._bury(lease, lane)
        ])
        self._deaths += 1
        if self._deaths > self.policy.max_pool_respawns:
            self._degrade()
        else:
            self._count("pool_respawns")
            self._replace(lane)

    def _degrade(self) -> None:
        self._count("serial_degradations")
        log.error(
            "sweep: %d consecutive local worker deaths exceed "
            "max_pool_respawns=%d — degrading to in-process execution "
            "for the remaining lease(s)",
            self._deaths, self.policy.max_pool_respawns,
        )
        for lane in self._lanes:
            self._requeue(lane.unfinished())
            self._pool.kill(lane)
        self._lanes = []

    def _time_out(self, lane) -> None:
        """The local worker's lease outlived ``timeout_s``: kill the
        worker; its lease failed an attempt, the rest of the shard is
        innocent and re-dispatched."""
        lease = lane.current()
        leftovers = [left for left in lane.unfinished() if left is not lease]
        self._count("pool_respawns")
        self._replace(lane)
        self._requeue(leftovers)
        self._handle_failure(lease, "timeout", SpecTimeout(
            f"{self._describe(lease)} exceeded "
            f"{self.policy.timeout_s:.1f} s"
        ))

    def _deadline(self, lane) -> Optional[float]:
        if lane.remote:
            return lane.heard + self.io_timeout_s
        if self.policy.timeout_s is not None and lane.current() is not None:
            return lane.started + self.policy.timeout_s
        return None

    def _run_here(self, shard: _Shard) -> None:
        """The in-process lane: call the task directly."""
        for lease in shard.leases:
            started = time.monotonic()
            try:
                outcome, pid, _, _ = self.task(lease.spec)
            except Exception as exc:  # noqa: BLE001 - policy decides
                self._handle_failure(lease, "error", exc)
                continue
            self._succeed(
                lease, outcome, duration_s=time.monotonic() - started, pid=pid
            )

    # -- the loop ----------------------------------------------------------

    def _wait(self, busy: list) -> list:
        """Block until a busy lane may have a message or a deadline
        passes; the lanes worth a receive."""
        from repro.core.distributed import SpoolChannel

        horizons = [self._deadline(lane) for lane in busy]
        if self._delayed:
            horizons.append(self._delayed[0][0])
        horizons = [h for h in horizons if h is not None]
        wait_s = (
            max(0.0, min(horizons) - time.monotonic()) if horizons else None
        )
        sockets = [lane for lane in busy if not lane.polled]
        spools = [lane for lane in busy if lane.polled]
        if spools:
            wait_s = (
                SpoolChannel.POLL_S
                if wait_s is None
                else min(wait_s, SpoolChannel.POLL_S)
            )
        if not sockets:
            time.sleep(wait_s or 0.0)
            return spools
        # poll(), not select(): no limit on descriptor numbers.
        poller = select.poll()
        for lane in sockets:
            poller.register(lane.fileno(), select.POLLIN)
        ready = {fd for fd, _ in poller.poll(
            None if wait_s is None else wait_s * 1e3
        )}
        return [lane for lane in sockets if lane.fileno() in ready] + spools

    def _busy(self) -> list:
        return [lane for lane in self._lanes if lane.shard is not None]

    def _loop(self) -> None:
        while self._queue or self._delayed or self._busy():
            now = time.monotonic()
            while self._delayed and self._delayed[0][0] <= now:
                self._enqueue([heapq.heappop(self._delayed)[2]])
            if not self._lanes and self._queue:
                self._run_here(self._queue.popleft())
                continue
            for lane in list(self._lanes):
                if self._queue and lane.shard is None and lane in self._lanes:
                    self._send(lane, self._queue.popleft())
            busy = self._busy()
            if not busy:  # nothing runs until a retry is due
                if self._delayed:
                    time.sleep(
                        max(0.0, self._delayed[0][0] - time.monotonic())
                    )
                continue
            for lane in self._wait(busy):
                # A socket has a frame ready; a spool may hold several.
                while self._receive(lane) and lane.polled:
                    pass
            now = time.monotonic()
            for lane in list(self._lanes):
                deadline = None if lane.shard is None else self._deadline(lane)
                if deadline is None or now < deadline:
                    continue
                if lane.remote:
                    from repro.core.distributed import TransportError

                    self._lost(lane, TransportError(
                        f"{lane.label}: silent past {self.io_timeout_s:.0f} s"
                    ))
                else:
                    self._time_out(lane)

    # -- entry point -------------------------------------------------------

    def run(
        self,
        specs: Sequence["RunSpec"],
        *,
        keys: Optional[Sequence[Optional[str]]] = None,
    ) -> list:
        """Execute every spec; outcomes in spec order.

        ``keys`` are the specs' lease keys when the caller has computed
        them already.
        """
        from repro.core.run import _plan_chunks

        outcomes = self._outcomes = [None] * len(specs)
        leases = resume_leases(specs, keys, self.journal, outcomes)
        self.stats.resumed_skips += len(specs) - len(leases)
        if not leases:
            return outcomes
        self._queue.clear()  # whatever a run that raised left behind
        self._delayed.clear()
        try:
            if self.hosts:
                self._lanes = self._connect_all()
                if not self._lanes:
                    self._fall_back(len(leases))
            else:
                self._lanes = self._local_lanes()
            chunks = _plan_chunks(
                [lease.spec for lease in leases], max(1, len(self._lanes))
            )
            for chunk in chunks:
                self._enqueue([leases[i] for i in chunk])
            if self.journal is None:
                self._loop()
            else:
                with self.journal.batched(JOURNAL_FLUSH_EVERY):
                    self._loop()
        finally:
            self._release()
        return outcomes


class SweepSupervisor(SweepCoordinator):
    """The sweep loop on this machine alone: ``workers`` forked local
    workers, or with ``workers=0`` this process."""

    def __init__(
        self,
        workers: int = 0,
        *,
        policy: Optional[SweepPolicy] = None,
        journal: Optional[SweepJournal] = None,
        task: Callable = _lease_task,
        on_terminal: Optional[Callable[[LeaseResult], None]] = None,
    ):
        super().__init__(
            (),
            policy=policy,
            journal=journal,
            local_workers=workers,
            task=task,
            on_terminal=on_terminal,
        )
