"""Shared test helpers.

``run_session`` is the successor of the retired ``repro.core.session``
shim of the same name: tests describe a run with the keyword surface
they always used, and the helper routes it through the unified run API
(``RunSpec`` + ``run_one``).  Living here keeps the convenience without
keeping a deprecated public entry point in the library.

``check_cache_and_journal`` drives one ``execute()`` dispatch path
(serial, pool or hosts) through a sweep that has both an outcome cache
and a journal.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Optional

from repro.analysis.faults import FaultSpec
from repro.analysis.proxy import ManifestRewriter
from repro.core.outcome_cache import OutcomeCache, lease_key
from repro.core.parallel import RunSpec
from repro.core.run import execute, run_one
from repro.core.session import SessionResult
from repro.net.schedule import BandwidthSchedule
from repro.net.traces import CellularTrace
from repro.obs import TraceConfig
from repro.obs.metrics import process_registry
from repro.player.config import PlayerConfig


def run_session(
    spec_or_name,
    schedule: BandwidthSchedule | CellularTrace,
    *,
    duration_s: float = 600.0,
    content_duration_s: Optional[float] = None,
    dt: float = 0.1,
    rtt_s: float = 0.05,
    player_config: Optional[PlayerConfig] = None,
    manifest_rewriter: Optional[ManifestRewriter] = None,
    reject_after_segments: Optional[int] = None,
    content_seed: int = 11,
    faults: Optional[FaultSpec] = None,
    engine: str = "event",
) -> SessionResult:
    """Build a :class:`RunSpec` from keywords and run it to completion."""
    spec = RunSpec(
        service=spec_or_name,
        trace=schedule if isinstance(schedule, CellularTrace) else None,
        schedule=None if isinstance(schedule, CellularTrace) else schedule,
        duration_s=duration_s,
        content_duration_s=content_duration_s,
        dt=dt,
        rtt_s=rtt_s,
        content_seed=content_seed,
        faults=faults,
        engine=engine,
    )
    outcome = run_one(
        spec,
        player_config=player_config,
        manifest_rewriter=manifest_rewriter,
        reject_after_segments=reject_after_segments,
    )
    result = outcome.result
    assert result is not None  # run_one keeps the live result
    return result


def _stored_keys(root: Path) -> set[str]:
    return {path.stem for path in root.glob("*/*.pkl")}


def _lines(path: Path) -> list[str]:
    return path.read_text().splitlines() if path.exists() else []


def check_cache_and_journal(tmp_path: Path, specs, **dispatch) -> None:
    """One dispatch path of ``execute(cache=..., journal=...)``.

    ``specs`` are cacheable; the helper adds a twin of the first that
    traces to a file, which the shared cache may never hold.
    ``dispatch`` selects the path (``workers=`` or ``hosts=``).  Checks
    that each new lease's payload is written once, cacheable ones into
    the cache and none into the journal's own store; that a second run
    executes nothing; that a fresh journal still re-runs the file-sink
    spec; and that the journal resumed without its cache re-runs the
    leases whose payloads the cache kept.  Outcomes always equal a
    ``workers=0`` run.
    """
    trace_file = tmp_path / "sink-trace.jsonl"
    sink = replace(
        specs[0], tracing=TraceConfig(sink="jsonl", path=str(trace_file))
    )
    specs = list(specs) + [sink]
    oracle = execute(specs, workers=0)
    trace_file.unlink()
    puts = process_registry().counter("outcome_cache.puts")
    cache = OutcomeCache(tmp_path / "cache")
    journal = tmp_path / "journal"

    before = puts.value
    assert execute(specs, cache=cache, journal=journal, **dispatch) == oracle
    assert puts.value - before == len(specs)  # one write per lease
    assert _stored_keys(cache.root) == {lease_key(s) for s in specs[:-1]}
    assert _stored_keys(journal / "outcomes") == {lease_key(sink)}
    done = _lines(journal / "journal.jsonl")
    assert [json.loads(line)["status"] for line in done] == (
        ["done"] * len(specs)
    )
    traced = _lines(trace_file)
    assert traced

    # Same cache and journal: everything is served, nothing executes.
    before = puts.value
    assert execute(specs, cache=cache, journal=journal, **dispatch) == oracle
    assert puts.value == before
    assert _lines(journal / "journal.jsonl") == done
    assert _lines(trace_file) == traced

    # A fresh journal: the cache serves the rest, the file sink re-runs.
    hits, before = cache.hits, puts.value
    fresh = tmp_path / "journal-fresh"
    assert execute(specs, cache=cache, journal=fresh, **dispatch) == oracle
    assert cache.hits - hits == len(specs) - 1
    assert puts.value - before == 1
    assert _stored_keys(fresh / "outcomes") == {lease_key(sink)}
    assert len(_lines(trace_file)) == 2 * len(traced)

    # Resumed without the cache, the journal re-runs the leases whose
    # payloads live there; the file sink's payload is its own.
    before = puts.value
    assert execute(specs, journal=journal, **dispatch) == oracle
    assert puts.value - before == len(specs) - 1
    assert len(_lines(journal / "journal.jsonl")) == len(done) + len(specs) - 1
    assert len(_lines(trace_file)) == 2 * len(traced)
