"""The run API: the one way to execute run specs.

Every run, single or swept, goes through two verbs on one
RunSpec-first shape:

    spec = RunSpec(service="H1", profile_id=9, duration_s=120.0)
    outcome = run_one(spec, tracer=True)       # one run, live result
    outcomes = execute(specs, workers=4)       # a sweep, any backend

Every execution path flows through :meth:`RunSpec.build`, and every
result is a :class:`RunOutcome` carrying the compact record, tick
accounting, the run's metrics snapshot and (when tracing) its trace —
all picklable, so ``workers=N`` returns exactly what ``workers=0``
returns, in spec order.

``execute`` is also the seat of the **sweep fabric**: parallel sweeps
run on the persistent worker pool (:mod:`repro.core.pool`), specs are
grouped by :func:`~repro.core.parallel.catalogue_key` and submitted
catalogue-locality first, and ``cache=`` memoises whole outcomes
through the content-addressed :mod:`repro.core.outcome_cache`.
Parallel dispatch itself is owned by the crash-safe
:class:`~repro.core.supervisor.SweepSupervisor`: future-per-task
leases with per-spec timeout, capped retries, poison quarantine,
``BrokenProcessPool`` salvage and a resumable sweep journal
(``policy=`` / ``journal=``); ``hosts=`` shards the leases over worker
daemons through :class:`~repro.core.distributed.SweepCoordinator`.
None of these layers changes any comparable outcome: cold pool, warm
pool, cache hit, resumed journal, remote hosts and ``workers=0`` all
compare ``==``.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

from repro.core.fleet import (
    FleetOutcome,
    FleetSpec,
    fleet_catalogue_key,
    run_fleet,
)
from repro.core.outcome_cache import (
    CacheSpec,
    has_file_sink,
    lease_key,
    resolve_outcome_cache,
)
from repro.core.parallel import (
    RunRecord,
    RunSpec,
    TickStats,
    catalogue_key,
    record_from_result,
)
from repro.core.session import SessionResult
from repro.core.supervisor import (
    FailedOutcome,
    JournalSpec,
    SweepPolicy,
    SweepSupervisor,
    resolve_sweep_journal,
)
from repro.obs import (
    MetricsSnapshot,
    Observability,
    TraceConfig,
    TraceEvent,
)
from repro.obs.metrics import process_registry

#: What ``tracer=`` accepts: nothing, "just collect" (unbounded ring
#: buffer), or a full sink description.
TracerSpec = Union[None, bool, TraceConfig]


@dataclass(frozen=True)
class RunOutcome:
    """Everything one executed :class:`RunSpec` produced.

    The comparable fields (spec, record, tick stats, metrics, trace)
    are pure functions of the spec, so outcomes from any worker count
    compare equal with ``==``.  ``result`` (the live session graph, only
    on in-process runs that asked for it) is excluded from comparison.
    """

    spec: RunSpec
    record: RunRecord
    tick_stats: TickStats
    metrics: MetricsSnapshot
    trace: tuple[TraceEvent, ...] = ()
    result: Optional[SessionResult] = field(
        default=None, repr=False, compare=False
    )


def _resolve_tracing(spec, tracer: TracerSpec):
    """Attach the sweep-level tracer request to a spec lacking one.

    FleetSpecs pass through untouched — per-client trace spines are a
    population of files, not a run artifact (a fleet's observability
    rides its metrics snapshot instead).
    """
    if not isinstance(spec, RunSpec):
        return spec
    if tracer is None or tracer is False or spec.tracing is not None:
        return spec
    config = tracer if isinstance(tracer, TraceConfig) else TraceConfig()
    return replace(spec, tracing=config)


def run_one(
    spec: Union[RunSpec, FleetSpec],
    *,
    tracer: TracerSpec = None,
    keep_result: bool = True,
    **build_extras,
) -> Union[RunOutcome, FleetOutcome]:
    """Execute one spec in process and return its full outcome.

    ``build_extras`` (``player_config``, ``manifest_rewriter``,
    ``reject_after_segments``, ``server``) pass straight to
    :meth:`RunSpec.build` — they may hold live objects, which is fine
    here because nothing crosses a process boundary.

    A :class:`~repro.core.fleet.FleetSpec` dispatches to
    :func:`~repro.core.fleet.run_fleet`; this is the seam that lets
    ``execute()``, the supervisor's lease task, the outcome cache and
    the journal treat fleets as just another spec kind.
    """
    if isinstance(spec, FleetSpec):
        if build_extras:
            raise TypeError(
                "build extras do not apply to fleet specs: "
                f"{sorted(build_extras)}"
            )
        return run_fleet(spec, keep_results=keep_result)
    spec = _resolve_tracing(spec, tracer)
    obs = Observability.create(
        spec.tracing,
        service=spec.service_name,
        profile_id=spec.profile_id,
        repetition=spec.repetition,
    )
    session = spec.build(obs=obs, **build_extras)
    result = session.run(spec.duration_s)
    closer = getattr(obs.tracer, "close", None)
    if closer is not None:  # flush file-backed sinks (JSONL)
        closer()
    return RunOutcome(
        spec=spec,
        record=record_from_result(spec, result),
        tick_stats=TickStats.from_session(session),
        metrics=obs.metrics.snapshot(),
        trace=obs.tracer.events(),
        result=result if keep_result else None,
    )


def _plan_chunks(
    specs: Sequence[RunSpec],
    workers: int,
) -> list[list[int]]:
    """Split spec indices into worker chunks, catalogue-locality first.

    Specs are grouped by :func:`catalogue_key` and each group becomes
    as few chunks as load balancing allows (about two chunks per worker
    across the whole sweep, never splitting a group that a single
    worker can own) — so a catalogue is encoded by as few workers as
    possible, and by each of them at most once.
    """
    groups: OrderedDict[object, list[int]] = OrderedDict()
    for index, spec in enumerate(specs):
        key = (
            fleet_catalogue_key(spec)
            if isinstance(spec, FleetSpec)
            else catalogue_key(spec)
        )
        groups.setdefault(key, []).append(index)
    total = len(specs)
    chunks: list[list[int]] = []
    for indices in groups.values():
        # This group's proportional share of ~2 chunks per worker;
        # small groups stay whole (one encode per catalogue total).
        share = max(1, round(2 * workers * len(indices) / total))
        per_chunk = math.ceil(len(indices) / share)
        chunks.extend(
            indices[start : start + per_chunk]
            for start in range(0, len(indices), per_chunk)
        )
    return chunks


def _record_worker_encode_stats(
    reports: Sequence[tuple[int, int, int]],
) -> None:
    """Publish per-worker asset-cache totals as process-level gauges.

    ``reports`` holds ``(pid, misses, hits)`` per delivered lease.
    Worker cache counters are monotone per process, so the max across
    lease reports is the worker's lifetime total; benchmarks difference
    these gauges around a sweep to count encodes it caused.
    """
    registry = process_registry()
    per_pid: dict[int, tuple[int, int]] = {}
    for pid, misses, hits in reports:
        prev_misses, prev_hits = per_pid.get(pid, (0, 0))
        per_pid[pid] = (max(prev_misses, misses), max(prev_hits, hits))
    for pid, (misses, hits) in per_pid.items():
        registry.gauge("pool.worker.asset_encodes", pid=pid).set(misses)
        registry.gauge("pool.worker.asset_hits", pid=pid).set(hits)


def execute(
    specs: Sequence[Union[RunSpec, FleetSpec]],
    *,
    workers: int = 0,
    tracer: TracerSpec = None,
    keep_results: bool = False,
    cache: CacheSpec = None,
    policy: Optional[SweepPolicy] = None,
    journal: JournalSpec = None,
    hosts: Optional[Sequence[str]] = None,
) -> list[Union[RunOutcome, FleetOutcome, FailedOutcome]]:
    """Execute a batch of specs, serially or over worker processes.

    The single sweep entry point: ``workers=0`` runs in process (and may
    keep live results); ``workers=N`` fans out over the persistent
    worker pool through the crash-safe sweep supervisor.  The
    comparable parts of the outcomes are identical either way, in spec
    order.  ``tracer`` applies to every spec that does not already
    carry its own ``tracing`` config.

    Worker submission follows a catalogue-locality plan, so each worker
    encodes each (service, duration, seed) catalogue at most once.
    ``cache`` memoises comparable outcomes on disk — ``True`` for the
    default directory, a path, or an
    :class:`~repro.core.outcome_cache.OutcomeCache`; only cache misses
    are executed, and hits reconstruct outcomes that compare ``==`` to
    freshly computed ones.

    ``policy`` supplies the supervision knobs (per-spec timeout,
    retries with seeded backoff, poison quarantine — a quarantined spec
    yields a typed :class:`~repro.core.supervisor.FailedOutcome` in its
    slot instead of raising).  ``journal`` makes the sweep resumable:
    ``True`` derives a journal directory from the sweep's identity
    under the cache dir, or pass a path / live
    :class:`~repro.core.supervisor.SweepJournal`; leases the journal
    marks complete are skipped — even uncacheable ones — so a killed
    sweep picks up where it stopped.  A journal built from ``True`` or
    a path keeps its payloads in ``cache`` when one is given, so each
    outcome is written once; resume such a sweep with the same cache.

    Each spec's lease key is computed once per call and serves the
    cache read, the journal and the cache write.

    ``hosts`` shards the sweep across worker daemons
    (:mod:`repro.core.distributed`): each entry is ``HOST:PORT`` for a
    ``repro worker --listen`` daemon or ``spool:PATH`` for a shared
    filesystem spool.  ``workers`` then sizes the *local fallback* pool
    used when no host is reachable.  Outcomes still compare ``==`` to a
    ``workers=0`` in-process run — distribution changes where a lease
    executes, never what it produces.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if keep_results and workers > 0:
        raise ValueError(
            "keep_results needs workers=0: live session graphs hold "
            "unpicklable objects and cannot cross process boundaries"
        )
    if keep_results and hosts:
        raise ValueError(
            "keep_results needs hosts=None: live session graphs hold "
            "unpicklable objects and cannot cross host boundaries"
        )
    store = resolve_outcome_cache(cache)
    if store is not None and keep_results:
        raise ValueError(
            "keep_results needs cache=None: the outcome cache stores "
            "only comparable payloads, never live session graphs"
        )
    if keep_results and (policy is not None or journal is not None):
        raise ValueError(
            "keep_results needs policy=None and journal=None: supervised "
            "runs produce only picklable, comparable payloads"
        )
    specs = [_resolve_tracing(spec, tracer) for spec in specs]
    supervised = policy is not None or journal is not None
    keys: Optional[list[Optional[str]]] = None
    if store is not None or supervised or hosts:
        keys = [lease_key(spec) for spec in specs]
    # A spec enters the shared cache when it has a key and no file sink.
    cacheable = [False] * len(specs)
    if store is not None:
        cacheable = [
            key is not None and not has_file_sink(spec)
            for spec, key in zip(specs, keys)
        ]
    outcomes: list[Optional[Union[RunOutcome, FailedOutcome]]] = (
        [None] * len(specs)
    )
    pending = list(range(len(specs)))
    if store is not None:
        for index in pending:
            if cacheable[index]:
                outcomes[index] = store.get(specs[index], key=keys[index])
        pending = [index for index in pending if outcomes[index] is None]
    sweep_journal = None
    if pending and supervised:
        sweep_journal = resolve_sweep_journal(
            journal, specs, keys=keys, cache=store
        )
    pending_keys = None if keys is None else [keys[i] for i in pending]
    if hosts and pending:
        # Distributed path: shard the pending leases over worker
        # daemons; journal resume, cache putback and the determinism
        # contract are unchanged.  Lazy import — distributed.py needs
        # _plan_chunks from this module.
        from repro.core.distributed import SweepCoordinator

        coordinator = SweepCoordinator(
            hosts,
            policy=policy,
            journal=sweep_journal,
            local_workers=workers,
        )
        dispatched = coordinator.run(
            [specs[i] for i in pending], keys=pending_keys
        )
        for local_index, outcome in enumerate(dispatched):
            outcomes[pending[local_index]] = outcome
    elif not supervised and (workers == 0 or len(pending) <= 1):
        # The byte-identity oracle path: plain in-process loop.
        for index in pending:
            outcomes[index] = run_one(
                specs[index], keep_result=keep_results
            )
    elif pending:
        pending_specs = [specs[i] for i in pending]
        serial = workers == 0 or len(pending) <= 1
        order = None
        if not serial:
            chunks = _plan_chunks(pending_specs, workers)
            order = [i for chunk in chunks for i in chunk]
        supervisor = SweepSupervisor(
            0 if serial else workers,
            policy=policy,
            journal=sweep_journal,
        )
        supervised_outcomes = supervisor.run(
            pending_specs, order=order, keys=pending_keys
        )
        for local_index, outcome in enumerate(supervised_outcomes):
            outcomes[pending[local_index]] = outcome
        if supervisor.encode_reports:
            _record_worker_encode_stats(supervisor.encode_reports)
    if store is not None and (
        sweep_journal is None or sweep_journal.cache is not store
    ):
        # Write back what no journal stored in this cache already.
        for index in pending:
            outcome = outcomes[index]
            if (
                cacheable[index]
                and outcome is not None
                and not isinstance(outcome, FailedOutcome)
            ):
                store.put(specs[index], outcome, key=keys[index])
    return outcomes


def aggregate_metrics(outcomes: Sequence[RunOutcome]) -> MetricsSnapshot:
    """Merge per-run metrics across a sweep (counters/histograms sum)."""
    return MetricsSnapshot.merge(outcome.metrics for outcome in outcomes)
