"""Unit tests for the observability plane (repro.obs).

Covers the metrics registry (counters / gauges / histograms with
labels, snapshot merging), the trace sinks (ring buffer, JSONL) and
their pickling behaviour, the trace config resolution, the phase
profiler, and the rendering helpers.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.obs import (
    EMPTY_SNAPSHOT,
    AbrDecision,
    DownloadSpan,
    EventJump,
    JsonlTracer,
    MetricsRegistry,
    MetricsSnapshot,
    NULL_TRACER,
    Observability,
    PhaseProfiler,
    RebufferSpan,
    RingBufferTracer,
    TraceConfig,
    Tracer,
    event_to_dict,
    render_timeline,
    semantic_trace,
    write_jsonl,
)


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


def test_counter_labels_get_or_create():
    registry = MetricsRegistry()
    registry.counter("downloads", stream="video").inc(3)
    registry.counter("downloads", stream="video").inc(2)
    registry.counter("downloads", stream="audio").inc()
    snapshot = registry.snapshot()
    assert snapshot.value("downloads", stream="video") == 5
    assert snapshot.value("downloads", stream="audio") == 1
    assert snapshot.total("downloads") == 6


def test_counter_rejects_negative():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("x").inc(-1)


def test_gauge_set_and_add():
    registry = MetricsRegistry()
    gauge = registry.gauge("position_s")
    gauge.set(10.0)
    gauge.add(2.5)
    assert registry.snapshot().value("position_s") == 12.5


def _histogram_row(snapshot, name):
    for row in snapshot.histograms:
        if row[0] == name:
            return row
    raise KeyError(name)


def test_histogram_buckets_and_overflow():
    registry = MetricsRegistry()
    hist = registry.histogram("dur", buckets=(1.0, 5.0))
    for value in (0.5, 0.9, 3.0, 100.0):
        hist.observe(value)
    _, _, bounds, counts, total, count = _histogram_row(
        registry.snapshot(), "dur"
    )
    assert count == 4
    assert total == pytest.approx(104.4)
    assert bounds == (1.0, 5.0)
    # Two below 1.0, one in [1.0, 5.0), one overflow.
    assert counts == (2, 1, 1)


def test_snapshot_merge_sums_counters_and_histograms():
    a = MetricsRegistry()
    a.counter("runs").inc()
    a.histogram("dur", buckets=(1.0,)).observe(0.5)
    b = MetricsRegistry()
    b.counter("runs").inc(2)
    b.histogram("dur", buckets=(1.0,)).observe(2.0)
    merged = MetricsSnapshot.merge([a.snapshot(), b.snapshot()])
    assert merged.value("runs") == 3
    _, _, _, counts, total, count = _histogram_row(merged, "dur")
    assert count == 2
    assert counts == (1, 1)
    assert total == pytest.approx(2.5)
    assert merged == MetricsSnapshot.merge([merged])


def test_snapshot_merge_empty_is_empty():
    assert MetricsSnapshot.merge([]) == EMPTY_SNAPSHOT


def test_snapshot_json_roundtrip(tmp_path):
    registry = MetricsRegistry()
    registry.counter("runs", service="H1").inc(4)
    registry.gauge("pos").set(1.25)
    path = tmp_path / "metrics.json"
    registry.snapshot().write_json(str(path))
    payload = json.loads(path.read_text())
    assert isinstance(payload, dict)
    text = json.dumps(payload)
    assert "runs" in text and "H1" in text


def test_snapshot_is_picklable_and_stable():
    registry = MetricsRegistry()
    registry.counter("runs").inc()
    snapshot = registry.snapshot()
    assert pickle.loads(pickle.dumps(snapshot)) == snapshot


# ---------------------------------------------------------------------------
# Trace sinks
# ---------------------------------------------------------------------------


def _event(at=1.0):
    return DownloadSpan(
        at=at, job="segment", stream="video", index=0, level=2,
        start_s=at - 0.5, end_s=at, size_bytes=1000, success=True,
    )


def test_null_tracer_is_disabled():
    assert NULL_TRACER.enabled is False
    assert NULL_TRACER.events() == ()
    assert isinstance(NULL_TRACER, Tracer)


def test_ring_buffer_capacity_evicts_oldest():
    tracer = RingBufferTracer(capacity=2)
    for i in range(4):
        tracer.emit(_event(at=float(i)))
    assert len(tracer) == 2
    assert [e.at for e in tracer.events()] == [2.0, 3.0]


def test_ring_buffer_kind_filter():
    tracer = RingBufferTracer(kinds=("rebuffer",))
    tracer.emit(_event())
    tracer.emit(RebufferSpan(at=2.0, start_s=1.0, end_s=2.0, position_s=5.0))
    assert [e.kind for e in tracer.events()] == ["rebuffer"]


def test_ring_buffer_pickles_with_events():
    tracer = RingBufferTracer()
    tracer.emit(_event())
    clone = pickle.loads(pickle.dumps(tracer))
    assert clone.events() == tracer.events()


def test_jsonl_tracer_writes_lines_and_pickles(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = JsonlTracer(str(path), keep_events=True)
    tracer.emit(_event(at=1.0))
    tracer.emit(_event(at=2.0))
    tracer.close()
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["kind"] == "download"
    assert len(tracer.events()) == 2
    # The file handle is dropped from pickled state.
    clone = pickle.loads(pickle.dumps(tracer))
    assert clone._handle is None
    assert clone.events() == tracer.events()


def test_write_jsonl_helper(tmp_path):
    path = tmp_path / "out.jsonl"
    count = write_jsonl([_event(), _event(at=2.0)], str(path))
    assert count == 2
    assert len(path.read_text().strip().splitlines()) == 2


def test_trace_config_validation():
    with pytest.raises(ValueError):
        TraceConfig(sink="bogus")
    with pytest.raises(ValueError):
        TraceConfig(sink="jsonl")  # needs a path


def test_trace_config_creates_sinks(tmp_path):
    ring = TraceConfig(capacity=5).create()
    assert isinstance(ring, RingBufferTracer)
    assert ring.capacity == 5
    jsonl = TraceConfig(
        sink="jsonl", path=str(tmp_path / "{service}-{profile}-{repetition}.jsonl")
    ).create(service="H1", profile_id=9, repetition=2)
    assert isinstance(jsonl, JsonlTracer)
    assert jsonl.path.endswith("H1-9-2.jsonl")


def test_event_to_dict_carries_kind():
    payload = event_to_dict(_event())
    assert payload["kind"] == "download"
    assert payload["size_bytes"] == 1000


# ---------------------------------------------------------------------------
# Semantic trace + rendering
# ---------------------------------------------------------------------------


def test_semantic_trace_drops_meta_and_numbers_per_kind():
    events = (
        _event(at=1.0),
        EventJump(at=1.5, layer="idle", ticks=100, end_s=11.5,
                  next_event="player_wake"),
        _event(at=12.0),
        RebufferSpan(at=13.0, start_s=12.5, end_s=13.0, position_s=6.0),
    )
    semantic = semantic_trace(events)
    assert [sid for sid, _ in semantic] == [
        "download-1", "download-2", "rebuffer-1",
    ]
    assert all(event.kind != "event_jump" for _, event in semantic)


def test_render_timeline_formats_each_kind():
    events = (
        _event(at=1.0),
        AbrDecision(at=1.0, index=3, level=2, previous_level=1,
                    buffer_s=8.0, estimate_bps=4e6),
        RebufferSpan(at=2.0, start_s=1.5, end_s=2.0, position_s=4.0),
        EventJump(at=3.0, layer="transfer", ticks=50, end_s=8.0,
                  next_event="completion"),
    )
    text = render_timeline(events)
    assert "download" in text
    assert "segment 3 -> L2" in text
    assert "stall" in text
    assert "event_jump" in text and "[transfer]" in text
    assert "(next: completion)" in text


# ---------------------------------------------------------------------------
# Profiler + plane
# ---------------------------------------------------------------------------


def test_phase_profiler_accumulates():
    profiler = PhaseProfiler()
    profiler.add("network", 0.5, calls=10)
    profiler.add("network", 0.25, calls=5)
    with profiler.time("player"):
        pass
    stats = {stat.phase: stat for stat in profiler.snapshot()}
    assert stats["network"].wall_s == pytest.approx(0.75)
    assert stats["network"].calls == 15
    assert stats["player"].calls == 1
    assert "network" in profiler.render()


def test_observability_create_variants(tmp_path):
    disabled = Observability.create(None)
    assert disabled.tracer is NULL_TRACER
    assert disabled.profiler is None
    ring = Observability.create(True)
    assert isinstance(ring.tracer, RingBufferTracer)
    jsonl = Observability.create(
        TraceConfig(sink="jsonl", path=str(tmp_path / "t.jsonl")),
        profile=True,
    )
    assert isinstance(jsonl.tracer, JsonlTracer)
    assert jsonl.profiler is not None
