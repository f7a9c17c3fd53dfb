"""Shared test helpers.

``run_session`` is the successor of the retired ``repro.core.session``
shim of the same name: tests describe a run with the keyword surface
they always used, and the helper routes it through the unified run API
(``RunSpec`` + ``run_one``).  Living here keeps the convenience without
keeping a deprecated public entry point in the library.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.faults import FaultSpec
from repro.analysis.proxy import ManifestRewriter
from repro.core.parallel import RunSpec
from repro.core.run import run_one
from repro.core.session import SessionResult
from repro.net.schedule import BandwidthSchedule
from repro.net.traces import CellularTrace
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
