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

``execute`` is also the seat of the **sweep fabric**.  Every sweep
but the plain in-process one runs through one loop, the
:class:`~repro.core.supervisor.SweepCoordinator`: it plans
catalogue-pure shards (:func:`_plan_chunks`, grouped by
:func:`~repro.core.parallel.catalogue_key`), hands them to lanes — this
process, forked local workers (``workers=N``, :mod:`repro.core.pool`)
or ``repro worker`` daemons (``hosts=``, :mod:`repro.core.distributed`)
— and applies the sweep policy once for all of them: per-spec timeout,
capped retries, poison quarantine, death re-dispatch and a resumable
sweep journal (``policy=`` / ``journal=``).  ``cache=`` memoises whole
outcomes through the content-addressed :mod:`repro.core.outcome_cache`.
None of these layers changes any comparable outcome: local workers,
cache hit, resumed journal, remote hosts and ``workers=0`` all compare
``==``.
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
    LeaseResult,
    SweepCoordinator,
    SweepPolicy,
    resolve_sweep_journal,
)
from repro.obs import (
    MetricsSnapshot,
    Observability,
    TraceConfig,
    TraceEvent,
)

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
    keep live results); ``workers=N`` fans out over N local workers
    through the sweep loop.  The comparable parts of the outcomes are
    identical either way, in spec order.  ``tracer`` applies to every
    spec that does not already carry its own ``tracing`` config.

    Leases go out in catalogue-pure shards, so each worker encodes each
    (service, duration, seed) catalogue at most once.  ``cache``
    memoises comparable outcomes on disk — ``True`` for the default
    directory, a path, or an
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

    A spec's lease key is computed once per call, and only when a
    cache, journal, policy or host needs it; it serves the cache read,
    the journal and the cache write.  A done lease is pickled once:
    workers ship cache-entry bytes, which land verbatim in the store
    the journal picks and in the cache.

    ``hosts`` shards the sweep across worker daemons
    (:mod:`repro.core.distributed`): each entry is ``HOST:PORT`` for a
    ``repro worker --listen`` daemon or ``spool:PATH`` for a shared
    filesystem spool.  ``workers`` then sizes the *local fallback* used
    when no host is left.  Outcomes still compare ``==`` to a
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
    local_workers = workers if len(pending) > 1 else 0
    fabric = store is not None or supervised or hosts or local_workers
    if not pending or not fabric:
        # The byte-identity oracle path: plain in-process loop.
        for index in pending:
            outcomes[index] = run_one(
                specs[index], keep_result=keep_results
            )
        return outcomes
    sweep_journal = resolve_sweep_journal(
        journal, specs, keys=keys, cache=store
    )

    def write_back(result: LeaseResult) -> None:
        """Put a done lease in the cache, unless the journal did."""
        index = pending[result.index]
        spec, key = specs[index], keys[index]
        if result.status != "done" or not cacheable[index] or (
            sweep_journal is not None
            and sweep_journal.payload_store(spec) is store
        ):
            return
        if result.entry is not None:
            store.put_bytes(key, result.entry)
        else:
            store.put(spec, result.outcome, key=key)

    coordinator = SweepCoordinator(
        hosts or (),
        policy=policy,
        journal=sweep_journal,
        local_workers=local_workers,
        on_terminal=write_back if store is not None else None,
    )
    dispatched = coordinator.run(
        [specs[i] for i in pending],
        keys=None if keys is None else [keys[i] for i in pending],
    )
    for local_index, outcome in enumerate(dispatched):
        outcomes[pending[local_index]] = outcome
    return outcomes


def aggregate_metrics(outcomes: Sequence[RunOutcome]) -> MetricsSnapshot:
    """Merge per-run metrics across a sweep (counters/histograms sum)."""
    return MetricsSnapshot.merge(outcome.metrics for outcome in outcomes)
