"""Crash-safe sweep supervision: leases, retries, quarantine, resume.

The sweep fabric (PR 5) made sweeps fast; this layer makes them
survivable.  ``executor.map`` was all-or-nothing: one worker death
(``BrokenProcessPool``) discarded every completed-but-undelivered
result, one hung spec stalled the sweep forever, and a SIGKILL'd sweep
restarted from zero unless the opt-in outcome cache happened to cover
it.  :class:`SweepSupervisor` replaces that path with future-per-task
dispatch over the same persistent :class:`~repro.core.pool.WorkerPool`:

* **Leases.** Each spec is an idempotent lease keyed by the canonical
  RunSpec SHA-256 (:func:`~repro.core.outcome_cache.lease_key` — the
  outcome cache's addressing, minus the side-effect refusal).  Running
  a lease twice produces the same outcome, so re-running is always
  safe; the supervisor only decides *whether* it is necessary.
* **Timeout / retry / quarantine.** A lease that raises (or exceeds
  ``SweepPolicy.timeout_s``) is retried with seeded exponential
  backoff up to ``max_attempts``; a poison spec that keeps failing is
  recorded as a typed :class:`FailedOutcome` instead of sinking the
  other N-1 results.  With quarantine off (the default policy) the
  first exhausted lease raises, preserving the old contract.
* **Pool-death salvage.** On ``BrokenProcessPool`` every delivered
  result is kept, the pool is respawned in place, and only the
  in-flight leases re-run.  After ``max_pool_respawns`` *consecutive*
  deaths the supervisor degrades to in-process serial execution with a
  loud log line and a ``sweep.serial_degradations`` metric — slow
  beats dead.
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
``sweep.serial_degradations``) land in the process-level metrics
registry: where and whether work re-ran is process history, and must
stay outside the ``workers=0 == workers=N`` snapshot equivalence.

Determinism contract, restated: supervision changes *where and
whether* a lease executes — never what it produces.  A sweep that lost
workers, timed out stragglers and resumed from a journal compares
``==`` to a clean ``workers=0`` run, minus any quarantined leases,
which are typed failures rather than silent absences.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import logging
import os
import random
import time
from collections import deque
from contextlib import contextmanager
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, ClassVar, Optional, Sequence, Union

from repro.core.outcome_cache import (
    OutcomeCache,
    code_fingerprint,
    default_cache_dir,
    has_file_sink,
    lease_key,
)
from repro.obs.metrics import EMPTY_SNAPSHOT, MetricsSnapshot, process_registry

if TYPE_CHECKING:  # circular at runtime: run.py imports this module
    from repro.core.parallel import RunSpec

log = logging.getLogger("repro.sweep")


class SpecTimeout(RuntimeError):
    """A lease exceeded its ``SweepPolicy.timeout_s`` wall-clock budget."""


@dataclass(frozen=True)
class SweepPolicy:
    """Supervision knobs for one sweep.

    The default policy preserves the legacy contract — no timeout, one
    attempt, first failure raises — while still salvaging results
    across pool deaths.  Robust sweeps opt in, e.g.::

        SweepPolicy(timeout_s=120.0, max_attempts=3, quarantine=True)
    """

    #: Per-spec wall-clock budget; ``None`` disables.  Enforced only on
    #: worker-pool runs — an in-process lease cannot be preempted.
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
    #: Consecutive pool deaths tolerated (each one respawns the pool);
    #: one more degrades the sweep to in-process serial execution.
    max_pool_respawns: int = 3
    #: Pool deaths a single lease may be in flight for before it is
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
    """What supervision did during one sweep (mirrored to ``sweep.*``)."""

    retries: int = 0
    timeouts: int = 0
    quarantined: int = 0
    pool_respawns: int = 0
    resumed_skips: int = 0
    serial_degradations: int = 0


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
    opening + fsyncing per line — the merge-path optimisation for a
    coordinator streaming thousands of lease completions.  The write
    itself still happens per record, so the torn-tail guarantee is
    unchanged; a crash loses at most the records since the last fsync,
    each of which simply re-runs.  :meth:`flush` forces the fsync;
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

    def store_outcome(self, key: str, outcome) -> None:
        self.payload_store(outcome.spec).put(outcome.spec, outcome, key=key)

    def load_outcome(self, spec: "RunSpec", key: str):
        """The stored payload for a done lease, or ``None`` (re-run)."""
        return self.payload_store(spec).get(spec, key=key)


def restore_from_journal(
    journal: Optional[SweepJournal], spec: "RunSpec", key: Optional[str]
):
    """Rebuild the outcome a journal marks terminal, or ``None`` (re-run).

    The resume primitive shared by :class:`SweepSupervisor` and the
    distributed coordinator: a ``done`` entry restores its stored
    payload (which must load under the current code fingerprint), a
    ``quarantined`` entry restores a typed :class:`FailedOutcome` only
    when recorded under the same code — a fixed simulator deserves a
    fresh try at the poison spec.
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
    """One terminal lease, as streamed to an ``on_terminal`` observer.

    The distributed worker (:mod:`repro.core.distributed`) forwards
    these over its transport as they land, so a coordinator can journal
    and merge progress without waiting for the whole shard.
    """

    index: int  # position in the supervised spec sequence
    key: Optional[str]
    status: str  # "done" | "quarantined"
    outcome: object  # RunOutcome | FleetOutcome | FailedOutcome | raw payload
    attempts: int
    duration_s: float
    kind: Optional[str] = None
    message: Optional[str] = None


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
# The supervisor
# ---------------------------------------------------------------------------


def _lease_task(spec: "RunSpec"):
    """Run one lease in a worker: the outcome plus the worker's asset
    cache activity since its initializer baseline (for the per-worker
    encode gauges ``execute`` publishes)."""
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
    started_at: float = 0.0
    deadline: Optional[float] = None


def resume_leases(
    specs: Sequence["RunSpec"],
    keys: Optional[Sequence[Optional[str]]],
    journal: Optional[SweepJournal],
    outcomes: list,
) -> list[_Lease]:
    """Lease every spec, restoring those the journal marks terminal.

    The journal-resume prefix shared by :meth:`SweepSupervisor.run` and
    the distributed coordinator: each restored outcome lands in its
    ``outcomes`` slot and counts one ``sweep.resumed_skips``; the
    returned leases still need running.  ``keys`` are the specs' lease
    keys when the caller has computed them already.
    """
    if keys is None:
        keys = [lease_key(spec) for spec in specs]
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


class SweepSupervisor:
    """Future-per-task sweep execution with leases, retries and resume.

    ``task`` is the module-level callable each lease dispatches
    (``spec -> (payload, pid, encode_misses, encode_hits)``);
    injectable so chaos tests can wrap it with worker-killing or
    hanging behaviour without touching the production path.
    """

    def __init__(
        self,
        workers: int,
        *,
        policy: Optional[SweepPolicy] = None,
        journal: Optional[SweepJournal] = None,
        task: Callable = _lease_task,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        on_terminal: Optional[Callable[[LeaseResult], None]] = None,
    ):
        self.workers = workers
        self.policy = policy if policy is not None else SweepPolicy()
        self.journal = journal
        self.task = task
        self.clock = clock
        self.sleep = sleep
        #: Streaming observer: called once per lease as it turns
        #: terminal (success or quarantine), in completion order.  The
        #: distributed worker uses this to push results over its
        #: transport while the rest of the shard is still running.
        self.on_terminal = on_terminal
        self.stats = SweepStats()
        #: (pid, misses, hits) asset-cache reports from worker leases.
        self.encode_reports: list[tuple[int, int, int]] = []

    # -- bookkeeping -------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        setattr(self.stats, name, getattr(self.stats, name) + amount)
        process_registry().counter(f"sweep.{name}").inc(amount)

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

    # -- terminal states ---------------------------------------------------

    def _record_success(
        self, lease: _Lease, payload, outcomes: list, duration_s: float
    ) -> None:
        from repro.core.pool import record_worker_utilization

        outcome, pid, misses, hits = payload
        outcomes[lease.index] = outcome
        if pid != os.getpid():
            self.encode_reports.append((pid, misses, hits))
        record_worker_utilization(pid, duration_s)
        if self.journal is not None and lease.key is not None:
            from repro.core.fleet import FleetOutcome
            from repro.core.run import RunOutcome

            if isinstance(outcome, (RunOutcome, FleetOutcome)):
                self.journal.store_outcome(lease.key, outcome)
            self.journal.record(
                lease.key,
                "done",
                attempt=lease.attempts + 1,
                duration_s=duration_s,
                pid=pid,
            )
        if self.on_terminal is not None:
            self.on_terminal(LeaseResult(
                index=lease.index,
                key=lease.key,
                status="done",
                outcome=outcome,
                attempts=lease.attempts + 1,
                duration_s=duration_s,
            ))

    def _quarantine(
        self,
        lease: _Lease,
        kind: str,
        exc: Optional[BaseException],
        outcomes: list,
    ) -> None:
        message = "" if exc is None else f"{type(exc).__name__}: {exc}"
        attempts = max(lease.attempts, lease.deaths, 1)
        outcomes[lease.index] = FailedOutcome(
            spec=lease.spec, kind=kind, attempts=attempts, message=message
        )
        self._count("quarantined")
        log.error(
            "sweep: quarantined %s after %d attempt(s) [%s] %s",
            self._describe(lease), attempts, kind, message,
        )
        if self.journal is not None and lease.key is not None:
            self.journal.record(
                lease.key,
                "quarantined",
                attempt=attempts,
                duration_s=0.0,
                kind=kind,
                message=message,
            )
        if self.on_terminal is not None:
            self.on_terminal(LeaseResult(
                index=lease.index,
                key=lease.key,
                status="quarantined",
                outcome=outcomes[lease.index],
                attempts=attempts,
                duration_s=0.0,
                kind=kind,
                message=message,
            ))

    def _handle_failure(
        self,
        lease: _Lease,
        kind: str,
        exc: BaseException,
        outcomes: list,
        *,
        retry: Callable[[_Lease, float], None],
    ) -> None:
        """One failed attempt: retry with backoff, quarantine, or raise."""
        lease.attempts += 1
        if kind == "timeout":
            self._count("timeouts")
        if lease.attempts >= self.policy.max_attempts:
            if self.policy.quarantine:
                self._quarantine(lease, kind, exc, outcomes)
                return
            raise exc
        self._count("retries")
        if self.journal is not None and lease.key is not None:
            self.journal.record(
                lease.key,
                "failed",
                attempt=lease.attempts,
                duration_s=0.0,
                kind=kind,
            )
        retry(lease, self._backoff_delay(lease))

    # -- entry point -------------------------------------------------------

    def run(
        self,
        specs: Sequence["RunSpec"],
        *,
        order: Optional[Sequence[int]] = None,
        keys: Optional[Sequence[Optional[str]]] = None,
    ) -> list:
        """Execute every spec under supervision; outcomes in spec order.

        ``order`` (indices into ``specs``) sets worker submission order
        — ``execute`` passes its catalogue-locality plan — and never
        affects the returned order.  ``keys`` are the specs' lease keys
        when the caller has computed them already.
        """
        outcomes: list = [None] * len(specs)
        pending = resume_leases(specs, keys, self.journal, outcomes)
        self.stats.resumed_skips += len(specs) - len(pending)
        if not pending:
            return outcomes
        if self.workers <= 0:
            self._run_serial(pending, outcomes)
        else:
            submit_order = pending
            if order is not None:
                by_index = {lease.index: lease for lease in pending}
                submit_order = [
                    by_index[i] for i in order if i in by_index
                ]
            self._run_pool(submit_order, outcomes)
        return outcomes

    # -- serial (workers=0, and the degradation target) --------------------

    def _run_serial(
        self, pending: Sequence[_Lease], outcomes: list
    ) -> None:
        def retry(lease: _Lease, delay: float) -> None:
            self.sleep(delay)

        for lease in sorted(pending, key=lambda lease: lease.index):
            while outcomes[lease.index] is None:
                started = self.clock()
                try:
                    payload = self.task(lease.spec)
                except Exception as exc:  # noqa: BLE001 - policy decides
                    self._handle_failure(
                        lease, "error", exc, outcomes, retry=retry
                    )
                    continue
                self._record_success(
                    lease, payload, outcomes, self.clock() - started
                )

    # -- pooled ------------------------------------------------------------

    def _run_pool(
        self, submit_order: Sequence[_Lease], outcomes: list
    ) -> None:
        from repro.core.pool import worker_pool

        policy = self.policy
        pool = worker_pool(self.workers)
        queue: deque[_Lease] = deque(submit_order)
        delayed: list[tuple[float, int, _Lease]] = []  # backoff heap
        active: dict = {}  # future -> lease
        consecutive_deaths = 0
        sequence = 0

        def retry(lease: _Lease, delay: float) -> None:
            nonlocal sequence
            sequence += 1
            heapq.heappush(delayed, (self.clock() + delay, sequence, lease))

        def requeue_victim(lease: _Lease) -> None:
            """A lease whose worker died under it: re-run, unless it has
            now ridden too many deaths to be presumed innocent."""
            lease.deaths += 1
            if policy.quarantine and lease.deaths >= policy.lease_death_limit:
                self._quarantine(lease, "pool_death", None, outcomes)
            else:
                queue.append(lease)

        def handle_pool_death() -> bool:
            """Salvage, respawn (or degrade).  True = keep pooling."""
            nonlocal consecutive_deaths, pool
            consecutive_deaths += 1
            victims = list(active.values())
            active.clear()
            log.warning(
                "sweep: worker pool died with %d lease(s) in flight "
                "(consecutive death %d); completed results salvaged",
                len(victims), consecutive_deaths,
            )
            for lease in victims:
                requeue_victim(lease)
            if consecutive_deaths > policy.max_pool_respawns:
                self._count("serial_degradations")
                log.error(
                    "sweep: %d consecutive pool deaths exceed "
                    "max_pool_respawns=%d — degrading to in-process "
                    "serial execution for the %d remaining lease(s)",
                    consecutive_deaths, policy.max_pool_respawns,
                    len(queue) + len(delayed),
                )
                remaining = list(queue) + [entry[2] for entry in delayed]
                queue.clear()
                delayed.clear()
                self._run_serial(remaining, outcomes)
                return False
            self._count("pool_respawns")
            pool.respawn()
            return True

        while queue or delayed or active:
            if pool.closed:  # external close_worker_pool() raced us
                pool = worker_pool(self.workers)
            now = self.clock()
            while delayed and delayed[0][0] <= now:
                queue.append(heapq.heappop(delayed)[2])
            pool_broke = False
            while queue and len(active) < self.workers:
                lease = queue[0]
                try:
                    future = pool.submit(self.task, lease.spec)
                except BrokenProcessPool:
                    pool_broke = True
                    break
                queue.popleft()
                lease.started_at = self.clock()
                lease.deadline = (
                    lease.started_at + policy.timeout_s
                    if policy.timeout_s is not None
                    else None
                )
                active[future] = lease
            if pool_broke:
                if not handle_pool_death():
                    return
                continue
            if not active:
                if delayed:
                    self.sleep(max(0.0, delayed[0][0] - self.clock()))
                continue
            horizons = [
                lease.deadline
                for lease in active.values()
                if lease.deadline is not None
            ]
            if delayed:
                horizons.append(delayed[0][0])
            wait_s = (
                max(0.0, min(horizons) - self.clock()) if horizons else None
            )
            done, _ = wait(
                set(active), timeout=wait_s, return_when=FIRST_COMPLETED
            )
            for future in done:
                lease = active.pop(future)
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    pool_broke = True
                    active[future] = lease  # a victim; salvaged below
                except Exception as exc:  # noqa: BLE001 - policy decides
                    pool.note_task_failure()
                    self._handle_failure(
                        lease, "error", exc, outcomes, retry=retry
                    )
                else:
                    self._record_success(
                        lease, payload, outcomes,
                        self.clock() - lease.started_at,
                    )
                    consecutive_deaths = 0
            if pool_broke:
                if not handle_pool_death():
                    return
                continue
            now = self.clock()
            expired = [
                (future, lease)
                for future, lease in active.items()
                if lease.deadline is not None
                and lease.deadline <= now
                and not future.done()
            ]
            if expired:
                # A hung worker cannot be preempted from here: the only
                # clean remedy is a pool respawn, which also costs the
                # innocent in-flight leases their (idempotent) work.
                for future, lease in expired:
                    active.pop(future)
                    self._handle_failure(
                        lease,
                        "timeout",
                        SpecTimeout(
                            f"{self._describe(lease)} exceeded "
                            f"{policy.timeout_s:.1f} s"
                        ),
                        outcomes,
                        retry=retry,
                    )
                for lease in active.values():
                    queue.append(lease)
                active.clear()
                self._count("pool_respawns")
                pool.respawn(kill_workers=True)
