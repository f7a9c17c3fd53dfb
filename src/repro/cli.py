"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's main entry points:

* ``run SERVICE [--profile N | --bandwidth MBPS] [--duration S]`` —
  stream one service and print its QoE report;
* ``trace SERVICE [--profile N | --bandwidth MBPS] [--duration S]
  [--jsonl PATH]`` — stream one service with the trace spine enabled
  and render the session timeline;
* ``compare [SERVICES...] [--profiles N,N] [--duration S] [--workers N]
  [--metrics-json PATH]`` — the cross-sectional comparison table,
  optionally fanned out over worker processes;
* ``probe SERVICE`` — black-box recovery of a Table 1 column;
* ``resilience [SERVICES...] [--scenarios A,B] [--profile N]
  [--duration S] [--workers N] [--json PATH] [--metrics-json PATH]`` —
  the services x fault-scenarios sweep (stalls, failures, give-ups);
* ``fleet [SERVICES...] [--clients N] [--profile N | --cell-mbps M]
  [--duration S] [--arrival-rate R --mean-dwell S] [--engine E]
  [--json PATH]`` — N clients sharing one cell with optional Poisson
  churn; prints the population QoE distribution (startup/stall/bitrate
  percentiles, Jain fairness, per-service rows);
* ``cache stats|clear|verify [--cache-dir PATH]`` — inspect or manage
  the content-addressed outcome cache the sweep commands share;
* ``worker --listen HOST:PORT | --spool PATH [--workers N]`` — serve
  sweep shards as a distributed worker daemon
  (:mod:`repro.core.distributed`); transports carry pickled specs, so
  bind to loopback or trusted networks only;
* ``sweep status JOURNAL_DIR`` — summarize a sweep journal: lease
  states, per-host/worker utilization, skipped lines;
* ``services`` — list the modelled services and their designs;
* ``profiles`` — list the 14 cellular bandwidth profiles.

``compare`` and ``resilience`` accept ``--cache`` (memoise outcomes in
the default cache directory) or ``--cache-dir PATH``; repeated sweeps
then cost disk reads instead of simulation.  They also accept the
crash-safe supervision flags: ``--resume [DIR]`` journals the sweep so
a killed run restarts where it stopped, ``--spec-timeout S`` /
``--max-attempts N`` / ``--quarantine`` configure the per-spec
timeout, retry and poison-quarantine policy, and a ``sweep
supervisor:`` summary line reports what supervision did (also merged
into ``--metrics-json`` output as ``sweep.*`` counters).  With
``--hosts H1:P1,spool:PATH,...`` the sweep is sharded across ``repro
worker`` daemons.  When leases went to workers (daemons or
``--workers N`` local ones) a ``sweep dispatch:`` line reports shards
sent, worker deaths and re-dispatched leases (``dispatch.*``
counters).

Every command executes through the unified run API
(:mod:`repro.core.run`): a command builds :class:`RunSpec`s and hands
them to ``run_one`` / ``execute``.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.report import render_comparison, render_qoe_report
from repro.core.experiment import (
    ProfileRun,
    profile_sweep_specs,
    summarize_runs,
)
from repro.core.fleet import (
    DEFAULT_DEVICE,
    DEVICE_CLASSES,
    FleetSpec,
    get_device_class,
)
from repro.core.multi import ENGINES
from repro.core.outcome_cache import resolve_outcome_cache
from repro.core.parallel import RunSpec
from repro.core.run import aggregate_metrics, execute, run_one
from repro.core.supervisor import FailedOutcome, SweepPolicy
from repro.net.schedule import ConstantSchedule
from repro.net.traces import cellular_profiles
from repro.obs import TraceConfig, render_timeline
from repro.obs.metrics import (
    DISPATCH_COUNTERS,
    SWEEP_COUNTERS,
    MetricsSnapshot,
    process_registry,
)
from repro.services import ALL_SERVICE_NAMES, get_service
from repro.util import mbps, to_mbps


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dissecting VOD Services for Cellular - reproduction CLI",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="stream one service")
    run_parser.add_argument("service", choices=ALL_SERVICE_NAMES)
    run_parser.add_argument("--profile", type=int, default=None,
                            help="cellular profile id (1-14)")
    run_parser.add_argument("--bandwidth", type=float, default=None,
                            help="constant bandwidth in Mbps")
    run_parser.add_argument("--duration", type=float, default=300.0)

    trace_parser = commands.add_parser(
        "trace", help="stream one service and render its trace timeline")
    trace_parser.add_argument("service", choices=ALL_SERVICE_NAMES)
    trace_parser.add_argument("--profile", type=int, default=None,
                              help="cellular profile id (1-14)")
    trace_parser.add_argument("--bandwidth", type=float, default=None,
                              help="constant bandwidth in Mbps")
    trace_parser.add_argument("--duration", type=float, default=120.0)
    trace_parser.add_argument("--jsonl", default=None, metavar="PATH",
                              help="also write the trace as JSON lines")
    _add_engine_argument(trace_parser)

    compare_parser = commands.add_parser("compare",
                                         help="compare services")
    compare_parser.add_argument("services", nargs="*",
                                default=list(ALL_SERVICE_NAMES))
    compare_parser.add_argument("--profiles", default="2,5,8",
                                help="comma-separated profile ids")
    compare_parser.add_argument("--duration", type=float, default=300.0)
    compare_parser.add_argument("--workers", type=int, default=0,
                                help="worker processes (0 = serial)")
    compare_parser.add_argument("--metrics-json", default=None,
                                metavar="PATH",
                                help="write aggregated sweep metrics as JSON")
    _add_engine_argument(compare_parser)
    _add_cache_arguments(compare_parser)
    _add_supervision_arguments(compare_parser)

    probe_parser = commands.add_parser("probe",
                                       help="black-box probe a service")
    probe_parser.add_argument("service", choices=ALL_SERVICE_NAMES)

    res_parser = commands.add_parser(
        "resilience", help="sweep services across fault scenarios")
    res_parser.add_argument("services", nargs="*",
                            default=list(ALL_SERVICE_NAMES))
    res_parser.add_argument("--scenarios", default=None,
                            help="comma-separated scenario names "
                                 "(default: all standard scenarios)")
    res_parser.add_argument("--profile", type=int, default=9,
                            help="cellular profile id (1-14)")
    res_parser.add_argument("--duration", type=float, default=120.0)
    res_parser.add_argument("--workers", type=int, default=0,
                            help="worker processes (0 = serial)")
    res_parser.add_argument("--json", default=None, metavar="PATH",
                            help="also write the report as JSON")
    res_parser.add_argument("--metrics-json", default=None, metavar="PATH",
                            help="write aggregated sweep metrics as JSON")
    _add_engine_argument(res_parser)
    _add_cache_arguments(res_parser)
    _add_supervision_arguments(res_parser)

    fleet_parser = commands.add_parser(
        "fleet", help="simulate a fleet of clients sharing one cell")
    fleet_parser.add_argument("services", nargs="*", default=["H1", "D1"],
                              help="service pool (weighted draw when "
                                   "--clients is given; one client per "
                                   "entry otherwise)")
    fleet_parser.add_argument("--clients", type=int, default=None,
                              help="population size (draws services from "
                                   "the pool); omit for one client per "
                                   "listed service")
    fleet_parser.add_argument("--service-weights", default=None,
                              help="comma-separated draw weights, one per "
                                   "service")
    fleet_parser.add_argument("--devices", default=None,
                              help="comma-separated device classes "
                                   f"({', '.join(DEVICE_CLASSES)})")
    fleet_parser.add_argument("--profile", type=int, default=None,
                              help="cellular profile id (1-14)")
    fleet_parser.add_argument("--cell-mbps", type=float, default=None,
                              help="constant cell capacity in Mbps")
    fleet_parser.add_argument("--duration", type=float, default=120.0)
    fleet_parser.add_argument("--content-duration", type=float, default=None,
                              help="title length in seconds "
                                   "(default: --duration)")
    fleet_parser.add_argument("--arrival-rate", type=float, default=None,
                              metavar="PER_S",
                              help="Poisson arrival rate (clients/s); "
                                   "omit for everyone-at-zero")
    fleet_parser.add_argument("--mean-dwell", type=float, default=None,
                              metavar="S",
                              help="mean watch time before departure "
                                   "(exponential); omit to never leave")
    fleet_parser.add_argument("--churn-seed", type=int, default=0)
    fleet_parser.add_argument("--json", default=None, metavar="PATH",
                              help="also write the outcome as JSON")
    _add_engine_argument(fleet_parser)
    _add_cache_arguments(fleet_parser)

    cache_parser = commands.add_parser(
        "cache", help="manage the content-addressed outcome cache")
    cache_parser.add_argument("action", choices=("stats", "clear", "verify"))
    cache_parser.add_argument("--cache-dir", default=None, metavar="PATH",
                              help="cache directory (default: "
                                   "$REPRO_CACHE_DIR or the XDG cache dir)")

    worker_parser = commands.add_parser(
        "worker", help="serve sweep shards as a distributed worker")
    transport = worker_parser.add_mutually_exclusive_group(required=True)
    transport.add_argument("--listen", default=None, metavar="HOST:PORT",
                           help="accept coordinator connections on "
                                "HOST:PORT (port 0 = ephemeral; the bound "
                                "address is printed); pickled payloads — "
                                "bind to loopback or trusted networks only")
    transport.add_argument("--spool", default=None, metavar="PATH",
                           help="exchange messages through a shared "
                                "filesystem spool directory instead of a "
                                "socket")
    worker_parser.add_argument("--workers", type=int, default=0,
                               help="local workers to run each shard on "
                                    "(0 = in this process)")
    worker_parser.add_argument("--label", default=None,
                               help="host label in coordinator journals "
                                    "and metrics (default: hostname:pid)")

    sweep_parser = commands.add_parser(
        "sweep", help="inspect sweep state")
    sweep_parser.add_argument("action", choices=("status",))
    sweep_parser.add_argument("journal_dir", metavar="JOURNAL_DIR",
                              help="a sweep journal directory "
                                   "(journal.jsonl + outcomes/)")

    commands.add_parser("services", help="list modelled services")
    commands.add_parser("profiles", help="list cellular profiles")
    return parser


def _add_engine_argument(parser) -> None:
    parser.add_argument("--engine", choices=ENGINES,
                        default="event",
                        help="simulation core: the event-driven engine or "
                             "the per-tick oracle loop it is pinned "
                             "byte-identical to (slower, same results)")


def _add_cache_arguments(parser) -> None:
    parser.add_argument("--cache", action="store_true",
                        help="memoise outcomes in the default cache dir")
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="memoise outcomes under PATH (implies --cache)")


def _add_supervision_arguments(parser) -> None:
    parser.add_argument("--resume", nargs="?", const=True, default=None,
                        metavar="DIR",
                        help="journal the sweep and skip leases it already "
                             "completed (a killed sweep picks up where it "
                             "stopped); the journal dir is derived from "
                             "the sweep under the cache dir, or pass DIR "
                             "to pin it")
    parser.add_argument("--spec-timeout", type=float, default=None,
                        metavar="S",
                        help="per-spec wall-clock timeout in seconds "
                             "(parallel sweeps only)")
    parser.add_argument("--max-attempts", type=int, default=None,
                        metavar="N",
                        help="tries per spec before giving up (default 1)")
    parser.add_argument("--quarantine", action="store_true",
                        help="record specs that exhaust their attempts as "
                             "typed failures instead of aborting the sweep")
    parser.add_argument("--hosts", default=None, metavar="H1,H2,...",
                        help="shard the sweep across repro worker daemons "
                             "(HOST:PORT or spool:PATH entries, comma-"
                             "separated); --workers then sizes the local "
                             "fallback pool")


def _cache_for(args):
    """Resolve the shared --cache/--cache-dir pair to a cache spec."""
    if args.cache_dir:
        return args.cache_dir
    return True if args.cache else None


def _policy_for(args):
    """Resolve supervision flags to a SweepPolicy (None = defaults)."""
    if (args.spec_timeout is None and args.max_attempts is None
            and not args.quarantine):
        return None
    return SweepPolicy(
        timeout_s=args.spec_timeout,
        max_attempts=args.max_attempts if args.max_attempts else 1,
        quarantine=args.quarantine,
    )


def _hosts_for(args):
    """Resolve the --hosts flag to a host list (None = local sweep)."""
    if not args.hosts:
        return None
    return [part.strip() for part in args.hosts.split(",") if part.strip()]


def _sample_sweep_counters() -> dict[str, float]:
    snapshot = process_registry().snapshot()
    return {
        name: snapshot.total(name)
        for name in SWEEP_COUNTERS + DISPATCH_COUNTERS
    }


def _sweep_counter_delta(before: dict[str, float]) -> MetricsSnapshot:
    """What supervision and dispatch did during this command.

    Sweep and dispatch counters live in the process registry (they are
    process history, not run output); the CLI differences them around
    the sweep so the summary and ``--metrics-json`` describe this
    command only.
    """
    after = _sample_sweep_counters()
    return MetricsSnapshot(counters=tuple(sorted(
        (name, (), after[name] - before[name]) for name in before
    )))


def _print_sweep_summary(delta: MetricsSnapshot) -> None:
    parts = " ".join(
        f"{name.split('.', 1)[1]}={value:.0f}"
        for name, _, value in delta.counters
        if name in SWEEP_COUNTERS
    )
    print(f"\nsweep supervisor: {parts}")
    dispatch = [
        (name, value)
        for name, _, value in delta.counters
        if name in DISPATCH_COUNTERS
    ]
    if any(value for _, value in dispatch):
        parts = " ".join(
            f"{name.split('.', 1)[1]}={value:.0f}"
            for name, value in dispatch
        )
        print(f"sweep dispatch: {parts}")


def _schedule_for(args):
    if args.bandwidth is not None:
        return ConstantSchedule(mbps(args.bandwidth)), None
    profiles = cellular_profiles(int(args.duration))
    profile_id = args.profile if args.profile is not None else 7
    if not 1 <= profile_id <= len(profiles):
        raise SystemExit(f"profile must be 1..{len(profiles)}")
    return profiles[profile_id - 1].as_schedule(), profile_id


def _cmd_run(args) -> int:
    schedule, profile_id = _schedule_for(args)
    source = (f"profile {profile_id}" if profile_id
              else f"constant {args.bandwidth} Mbps")
    print(f"Running {args.service} over {source} for {args.duration:.0f} s")
    spec = RunSpec(
        service=args.service, schedule=schedule, duration_s=args.duration
    )
    result = run_one(spec).result
    print()
    print(render_qoe_report(result))
    return 0


def _cmd_trace(args) -> int:
    schedule, profile_id = _schedule_for(args)
    source = (f"profile {profile_id}" if profile_id
              else f"constant {args.bandwidth} Mbps")
    print(f"Tracing {args.service} over {source} for {args.duration:.0f} s")
    spec = RunSpec(
        service=args.service,
        schedule=schedule,
        duration_s=args.duration,
        engine=args.engine,
    )
    tracer = (
        TraceConfig(sink="jsonl", path=args.jsonl)
        if args.jsonl
        else True
    )
    outcome = run_one(spec, tracer=tracer)
    print()
    print(render_timeline(outcome.trace))
    if args.engine == "event":
        print()
        print(_render_event_metrics(outcome.metrics))
    if args.jsonl:
        print(f"\nwrote {args.jsonl}")
    return 0


def _render_event_metrics(metrics) -> str:
    """Event-engine accounting lines for ``repro trace`` (default engine)."""
    lines = ["event engine:"]
    dispatches = metrics.value("session.dispatches") or 0
    pushes = metrics.value("session.queue_pushes") or 0
    depth = metrics.value("session.queue_depth_max") or 0
    lines.append(f"  dispatches      : {dispatches:.0f}")
    for name, labels, value in metrics.counters:
        if name == "session.events":
            kind = dict(labels).get("type", "?")
            lines.append(f"    {kind:<15}: {value:.0f}")
    lines.append(f"  queue pushes    : {pushes:.0f}")
    cancelled = metrics.value("session.queue_cancelled") or 0
    lines.append(f"  queue cancelled : {cancelled:.0f}")
    lines.append(f"  queue depth max : {depth:.0f}")
    stops = [
        (dict(labels).get("reason", "?"), value)
        for name, labels, value in metrics.counters
        if name == "session.advance_stops"
    ]
    if stops:
        lines.append("  advance stops   :")
        for reason, value in sorted(stops):
            lines.append(f"    {reason:<15}: {value:.0f}")
    return "\n".join(lines)


def _cmd_compare(args) -> int:
    if args.workers < 0:
        raise SystemExit("--workers must be >= 0")
    profile_ids = [int(part) for part in args.profiles.split(",") if part]
    profiles = cellular_profiles(int(args.duration))
    selected = [profiles[pid - 1] for pid in profile_ids]
    cache = resolve_outcome_cache(_cache_for(args))
    policy = _policy_for(args)
    hosts = _hosts_for(args)
    supervised = (policy is not None or args.resume is not None
                  or hosts is not None)
    before = _sample_sweep_counters()
    summaries = []
    all_outcomes = []
    for name in args.services:
        specs = profile_sweep_specs(
            name, selected, duration_s=args.duration, engine=args.engine,
        )
        outcomes = execute(
            specs, workers=args.workers, cache=cache,
            policy=policy, journal=args.resume, hosts=hosts,
        )
        all_outcomes.extend(outcomes)
        quarantined = [o for o in outcomes if o.record is None]
        if quarantined:
            print(f"warning: {name}: {len(quarantined)} spec(s) "
                  f"quarantined, excluded from the comparison",
                  file=sys.stderr)
        runs = [
            ProfileRun.from_outcome(outcome)
            for outcome in outcomes
            if outcome.record is not None
        ]
        summaries.append(summarize_runs(runs))
    print(render_comparison(summaries))
    delta = _sweep_counter_delta(before)
    if supervised or args.workers > 0:
        _print_sweep_summary(delta)
    if args.metrics_json:
        merged = MetricsSnapshot.merge(
            [aggregate_metrics(all_outcomes), delta]
        )
        merged.write_json(args.metrics_json)
        print(f"\nwrote {args.metrics_json}")
    return 0


def _cmd_probe(args) -> int:
    from repro.blackbox import (
        probe_convergence,
        probe_download_thresholds,
        probe_startup_buffer,
    )

    print(f"Probing {args.service} ...")
    startup = probe_startup_buffer(args.service)
    print(f"startup buffer : {startup.startup_buffer_s:.0f} s "
          f"({startup.startup_segments} segments), track "
          f"{(startup.startup_track_declared_bps or 0) / 1e3:.0f} kbps")
    thresholds = probe_download_thresholds(args.service)
    print(f"download ctrl  : pause ~{thresholds.pausing_threshold_s:.0f} s, "
          f"resume ~{thresholds.resuming_threshold_s:.0f} s "
          f"({thresholds.cycle_count} cycles)")
    convergence = probe_convergence(args.service, mbps(2.0))
    print(f"adaptation     : "
          f"{'stable' if convergence.stable else 'UNSTABLE'}, converged "
          f"declared {(convergence.modal_declared_bps or 0) / 1e3:.0f} kbps "
          f"({convergence.aggressiveness:.2f}x of 2 Mbps)")
    return 0


def _cmd_resilience(args) -> int:
    import json

    from repro.blackbox.resilience import (
        run_resilience_sweep,
        standard_fault_scenarios,
    )

    if args.workers < 0:
        raise SystemExit("--workers must be >= 0")
    scenarios = standard_fault_scenarios(args.duration)
    if args.scenarios:
        wanted = [part.strip() for part in args.scenarios.split(",") if part]
        by_name = {scenario.name: scenario for scenario in scenarios}
        unknown = [name for name in wanted if name not in by_name]
        if unknown:
            raise SystemExit(
                f"unknown scenario(s) {', '.join(unknown)}; "
                f"available: {', '.join(by_name)}"
            )
        scenarios = tuple(by_name[name] for name in wanted)
    policy = _policy_for(args)
    hosts = _hosts_for(args)
    supervised = (policy is not None or args.resume is not None
                  or hosts is not None)
    before = _sample_sweep_counters()
    report = run_resilience_sweep(
        args.services,
        scenarios,
        profile_id=args.profile,
        duration_s=args.duration,
        workers=args.workers,
        engine=args.engine,
        cache=_cache_for(args),
        policy=policy,
        journal=args.resume,
        hosts=hosts,
    )
    print(report.render())
    delta = _sweep_counter_delta(before)
    if supervised or args.workers > 0:
        _print_sweep_summary(delta)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_json(), handle, indent=2)
        print(f"\nwrote {args.json}")
    if args.metrics_json:
        merged = MetricsSnapshot.merge([report.metrics, delta])
        merged.write_json(args.metrics_json)
        print(f"\nwrote {args.metrics_json}")
    return 0


def _render_percentile_row(label: str, row, unit: str) -> str:
    cells = "  ".join(f"p{int(q)}={value:.2f}" for q, value in row)
    return f"  {label:<12}: {cells} {unit}"


def _cmd_fleet(args) -> int:
    import json

    if args.cell_mbps is not None:
        schedule = ConstantSchedule(mbps(args.cell_mbps))
        profile_id = 0
        source = f"constant {args.cell_mbps} Mbps"
    else:
        profile_id = args.profile if args.profile is not None else 7
        schedule = None
        source = f"profile {profile_id}"
    weights = None
    if args.service_weights:
        weights = tuple(
            float(part) for part in args.service_weights.split(",") if part
        )
    devices = (DEFAULT_DEVICE,)
    if args.devices:
        devices = tuple(
            get_device_class(part.strip())
            for part in args.devices.split(",")
            if part.strip()
        )
    spec = FleetSpec(
        services=tuple(args.services),
        clients=args.clients,
        service_weights=weights,
        devices=devices,
        device_weights=None,
        duration_s=args.duration,
        content_duration_s=args.content_duration,
        churn_seed=args.churn_seed,
        arrival_rate_per_s=args.arrival_rate,
        mean_dwell_s=args.mean_dwell,
        profile_id=profile_id,
        schedule=schedule,
        engine=args.engine,
    )
    print(f"Fleet of {spec.size} clients over {source} "
          f"for {args.duration:.0f} s ({args.engine} engine)")
    outcome = execute([spec], cache=_cache_for(args))[0]
    if isinstance(outcome, FailedOutcome):
        print(f"fleet failed: {outcome.error}", file=sys.stderr)
        return 1
    pop = outcome.population
    print()
    print(f"population   : {pop.clients} offered, {pop.arrived} arrived, "
          f"{pop.departed} departed, {pop.completed} completed")
    print(f"stalled      : {pop.stalled} client(s)")
    print(_render_percentile_row("startup", pop.startup_s, "s"))
    print(_render_percentile_row("stall time", pop.stall_s, "s"))
    print(_render_percentile_row("stall ratio", pop.stall_rate, ""))
    print(_render_percentile_row("bitrate", pop.bitrate_mbps, "Mbps"))
    print(f"  jain index  : {pop.jain_bitrate:.3f} (displayed bitrate)")
    if pop.per_service:
        print("per service:")
        for row in pop.per_service:
            print(f"  {row.service:<4}: {row.clients:4d} clients, "
                  f"{row.stalled:3d} stalled, "
                  f"{row.mean_bitrate_mbps:5.2f} Mbps mean, "
                  f"{row.mean_stall_s:5.1f} s stall mean")
    stats = outcome.tick_stats
    print(f"ticks        : {stats.ticks_executed} executed, "
          f"{stats.ticks_simulated - stats.ticks_executed} batched")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(outcome.to_json(), handle, indent=2)
        print(f"\nwrote {args.json}")
    return 0


def _cmd_cache(args) -> int:
    from repro.core.outcome_cache import OutcomeCache

    cache = OutcomeCache(args.cache_dir) if args.cache_dir else OutcomeCache()
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached outcome(s) from {cache.root}")
        return 0
    if args.action == "verify":
        report = cache.verify()
        print(f"verified {cache.root} (code fingerprint "
              f"{cache.fingerprint})")
        print(f"  ok      : {report.ok}")
        print(f"  corrupt : {report.corrupt} (removed)")
        print(f"  stale   : {report.stale} (superseded fingerprints; "
              f"'cache clear' reclaims them)")
        return 0 if report.clean else 1
    stats = cache.stats()
    print(f"outcome cache at {stats.cache_dir}")
    print(f"  code fingerprint : {stats.code_fingerprint}")
    print(f"  entries          : {stats.entries}")
    print(f"  stale entries    : {stats.stale_entries}")
    print(f"  size             : {stats.bytes / 1024:.1f} KiB")
    print(f"  session hits     : {stats.hits}")
    print(f"  session misses   : {stats.misses}")
    print(f"  invalidations    : {stats.invalidations}")
    return 0


def _cmd_worker(args) -> int:
    import logging
    import signal
    from types import SimpleNamespace

    from repro.core.distributed import SweepWorker
    from repro.core.pool import close_worker_pool

    logging.basicConfig(level=logging.INFO, format="%(message)s")
    if args.workers < 0:
        raise SystemExit("--workers must be >= 0")
    worker = SweepWorker(args.workers, label=args.label)
    # Non-interactive shells start background jobs with SIGINT ignored,
    # so scripts (and CI) stop daemons with plain `kill`: drain
    # gracefully on SIGTERM just like Ctrl-C.
    signal.signal(signal.SIGTERM, lambda *_: worker.stop())
    try:
        if args.listen:
            host, _, port = args.listen.rpartition(":")
            if not host or not port.isdigit():
                raise SystemExit("--listen expects HOST:PORT")
            # The bound address line is machine-parsed (CI, scripts):
            # with port 0 it is the only way to learn the real port.
            # Served from this thread, which is the only one: a worker
            # with --workers N forks its local workers from it.
            bound = SimpleNamespace(set=lambda: print(
                f"worker {worker.label} listening on "
                f"{worker.address[0]}:{worker.address[1]}", flush=True))
            worker.serve_socket(host, int(port), ready=bound)
        else:
            print(f"worker {worker.label} watching spool {args.spool}",
                  flush=True)
            worker.serve_spool(args.spool)
    except KeyboardInterrupt:
        worker.stop()
    finally:
        close_worker_pool()
    print(f"worker {worker.label} served {worker.shards_run} shard(s), "
          f"{worker.leases_run} lease(s)")
    return 0


def _cmd_sweep(args) -> int:
    from repro.core.supervisor import SweepJournal

    journal = SweepJournal(args.journal_dir)
    entries = journal.entries()
    by_status: dict[str, int] = {}
    by_host: dict[str, list] = {}
    for entry in entries.values():
        status = entry.get("status", "?")
        by_status[status] = by_status.get(status, 0) + 1
        where = entry.get("host")
        if where is None and entry.get("pid") is not None:
            where = f"local pid {entry['pid']}"
        row = by_host.setdefault(where or "local", [0, 0.0])
        row[0] += 1
        row[1] += float(entry.get("duration", 0.0))
    print(f"sweep journal at {journal.root}")
    print(f"  leases recorded  : {len(entries)}")
    for status in sorted(by_status):
        print(f"    {status:<15}: {by_status[status]}")
    print("  pending leases are the sweep's remainder: the journal "
          "records only terminal leases")
    if journal.skipped_lines:
        print(f"  skipped lines    : {journal.skipped_lines} "
              f"(undecodable; see the log warning)")
    stats = journal.store.stats()
    print(f"  journal's store  : {stats.entries} outcome(s) "
          f"({stats.bytes / 1024:.1f} KiB)")
    print("  a sweep run with a cache keeps its cacheable payloads there, "
          "not in the journal's store")
    if by_host:
        print("per worker:")
        width = max(len(name) for name in by_host)
        for name in sorted(by_host):
            leases, busy = by_host[name]
            print(f"  {name:<{width}} : {leases:5d} lease(s), "
                  f"{busy:8.2f} s busy")
    return 0


def _cmd_services(args) -> int:
    print(f"{'svc':4} {'protocol':8} {'seg s':>5} {'audio':>5} "
          f"{'#TCP':>4} {'persist':>7} {'startup':>9} {'pause/resume':>13}")
    for name in ALL_SERVICE_NAMES:
        spec = get_service(name)
        print(f"{name:4} {spec.protocol.value:8} "
              f"{spec.segment_duration_s:5.0f} "
              f"{'sep' if spec.separate_audio else 'mux':>5} "
              f"{spec.max_tcp:4d} "
              f"{'yes' if spec.persistent else 'no':>7} "
              f"{spec.startup_buffer_s:7.0f} s "
              f"{spec.pausing_threshold_s:5.0f}/"
              f"{spec.resuming_threshold_s:.0f}")
    return 0


def _cmd_profiles(args) -> int:
    for trace in cellular_profiles(600):
        print(f"profile {trace.profile_id:2d}: {trace.scenario.value:10} "
              f"avg {to_mbps(trace.average_bps):6.2f} Mbps  "
              f"min {to_mbps(trace.min_bps):5.2f}  "
              f"max {to_mbps(trace.max_bps):6.2f}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "trace": _cmd_trace,
    "compare": _cmd_compare,
    "probe": _cmd_probe,
    "resilience": _cmd_resilience,
    "fleet": _cmd_fleet,
    "cache": _cmd_cache,
    "worker": _cmd_worker,
    "sweep": _cmd_sweep,
    "services": _cmd_services,
    "profiles": _cmd_profiles,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
