"""Metric names, units and how each is computed from a run.

``END_TO_END`` and ``PER_LAYER`` are the names ``BENCHMARK.json``
lists, in the same order; ``bench/tests`` checks that they agree.
"""

from __future__ import annotations

import statistics

from bench.stats import percentile
from bench.tracing import LAYERS, OP, LayerTracer

#: (name, unit); every workload reports every one.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("sim_rate", "s/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Counts the program reports itself (outcome metrics, tick stats,
#: journals, process counters), not timed by the tracer.
_COUNTED: tuple[tuple[str, str], ...] = (
    ("media.encode.misses", "count"),
    ("media.encode.hits", "count"),
    ("engine.dispatches", "count"),
    ("engine.ticks_simulated", "count"),
    ("engine.batched_share", "ratio"),
    ("engine.noop_share", "ratio"),
    ("events.pushes_per_dispatch", "ratio"),
    ("events.cancelled_share", "ratio"),
    ("multi.dispatches", "count"),
    ("net.advance_stops.horizon", "count"),
    ("net.advance_stops.completion", "count"),
    ("net.advance_stops.schedule", "count"),
    ("net.advance_stops.fault", "count"),
    ("pool.tasks", "count"),
    ("pool.spawns", "count"),
    ("dispatch.redispatched_leases", "count"),
    ("sweep.simulate_s", "s"),
    ("sweep.overhead_ms_per_lease", "ms"),
    ("sweep.hosts.simulate_s", "s"),
    ("sweep.hosts.overhead_ms_per_lease", "ms"),
)

#: Process-registry counters differenced around the traced pass.
REGISTRY_COUNTERS = {
    "pool.tasks": "pool.tasks_dispatched",
    "pool.spawns": "pool.spawns",
    "dispatch.redispatched_leases": "dispatch.redispatched_leases",
}

_UNIT_OF = {"ticks": "count", "flows": "count", "hits": "count",
            "bytes": "B"}


def _timed() -> tuple[tuple[str, str], ...]:
    rows = [("op.s", "s")]
    for layer in LAYERS:
        rows.append((f"{layer.name}.s", "s"))
        rows.append((f"{layer.name}.calls", "count"))
        if layer.unit_name:
            rows.append((f"{layer.name}.{layer.unit_name}",
                         _UNIT_OF[layer.unit_name]))
    return tuple(rows)


PER_LAYER: tuple[tuple[str, str], ...] = (
    ("trace.wall_s", "s"),
    ("trace_overhead", "ratio"),
    ("trace.wrapper_ns", "ns"),
    ("trace.wrapped_calls", "count"),
) + _timed() + _COUNTED


def end_to_end(measurement, setup_samples) -> tuple[dict, dict]:
    """``(values, sample counts)`` of every end-to-end metric.

    They cover the operations run in the measuring process; one that
    fans out to other processes is left out.  An operation's time is
    the median of its repetitions' normalised times; the simulated
    seconds are those of one pass.
    """
    kept = [(result.sim_s, time)
            for result, time in zip(measurement.first, measurement.times)
            if not result.op.fans_out]
    times = [time for _, time in kept]
    values = {
        "setup_s": statistics.median(setup_samples),
        "sim_rate": sum(sim for sim, _ in kept) / sum(times),
        "op_p50_ms": percentile(times, 50) * 1e3,
        "op_p90_ms": percentile(times, 90) * 1e3,
        "peak_rss_mb": measurement.peak_rss_mb,
    }
    samples = {
        "setup_s": len(setup_samples),
        "sim_rate": len(times),
        "op_p50_ms": len(times),
        "op_p90_ms": len(times),
        "peak_rss_mb": 1,
    }
    return values, samples


def per_layer(
    tracer: LayerTracer,
    counts: dict[str, float],
    *,
    overhead: float,
    wrapper_ns: float,
) -> dict:
    """Every per-layer metric; a layer the workload skips reports 0.

    Layer seconds are raw self seconds of the traced pass; with
    ``op.s`` they add up to ``trace.wall_s``, the time spent inside
    the traced operations.
    """
    totals = tracer.totals()
    values = {
        "trace.wall_s": totals.get(OP, (0, 0.0))[1],
        "trace_overhead": overhead,
        "trace.wrapper_ns": wrapper_ns,
        "trace.wrapped_calls": tracer.wrapped_calls(),
    }
    for name, _ in _timed():
        layer, _, field = name.rpartition(".")
        calls, _, self_s, units = totals.get(layer, (0, 0.0, 0.0, 0))
        values[name] = {"s": self_s, "calls": calls}.get(field, units)
    for name, _ in _COUNTED:
        values[name] = counts.get(name, 0)
    return values
