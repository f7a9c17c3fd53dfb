"""Observability overhead: what an enabled trace spine costs.

Runs a sample of the grid with the tracer disabled (the default) and
enabled (unbounded ring buffer), in ``PAIRS`` alternating pairs (the
order flips every pair, so host drift lands on both modes alike), and
writes each pair's traced/disabled wall ratio, the median overhead and
its quartiles to ``benchmarks/BENCH_obs.json``.  The disabled runs are
the baseline: this measures what enabling the tracer costs over the
default path, not what the disabled spine costs over code without one.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.core.parallel import sweep_grid
from repro.core.run import execute
from repro.media.cache import clear_asset_cache
from repro.services import ALL_SERVICE_NAMES

from benchmarks.conftest import bench_env, once

GRID_DURATION_S = 45.0
GRID_PROFILES = (2, 5, 9, 13)
PAIRS = 7
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_obs.json"


def _timed(specs, *, tracer=None):
    """One sweep's outcomes and wall time (warm encode cache)."""
    start = time.perf_counter()
    outcomes = execute(specs, workers=0, tracer=tracer)
    return outcomes, time.perf_counter() - start


def test_perf_obs_overhead(benchmark, show):
    grid = sweep_grid(
        ALL_SERVICE_NAMES, GRID_PROFILES, duration_s=GRID_DURATION_S
    )

    def run():
        clear_asset_cache()
        # Warm the encode cache outside the timed region.
        execute(grid, workers=0)

        disabled_walls, traced_walls, identical, events = [], [], True, 0
        for pair in range(PAIRS):
            modes = [None, True] if pair % 2 == 0 else [True, None]
            walls = {}
            records = {}
            for tracer in modes:
                outcomes, walls[tracer] = _timed(grid, tracer=tracer)
                records[tracer] = [outcome.record for outcome in outcomes]
                if tracer:
                    events = sum(len(outcome.trace) for outcome in outcomes)
            disabled_walls.append(walls[None])
            traced_walls.append(walls[True])
            identical = identical and records[None] == records[True]

        overheads = [
            traced / disabled - 1.0
            for disabled, traced in zip(disabled_walls, traced_walls)
        ]
        q1, median, q3 = statistics.quantiles(
            overheads, n=4, method="inclusive"
        )
        return {
            "grid": {
                "services": len(ALL_SERVICE_NAMES),
                "profiles": list(GRID_PROFILES),
                "runs": len(grid),
                "duration_s": GRID_DURATION_S,
            },
            "pairs": PAIRS,
            "disabled": {"wall_s": disabled_walls},
            "traced": {
                "wall_s": traced_walls,
                "pair_overheads": overheads,
                "overhead_vs_disabled": median,
                "overhead_quartiles": [q1, q3],
                "events": events,
            },
            "records_identical": identical,
            "env": bench_env(),
        }

    results = once(benchmark, run)

    BASELINE_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))

    traced = results["traced"]
    q1, q3 = traced["overhead_quartiles"]
    show(
        f"Observability overhead (grid sample, {PAIRS} alternating pairs)",
        ["mode", "median wall s", "overhead (median, quartiles)"],
        [
            ["disabled",
             f"{statistics.median(results['disabled']['wall_s']):.2f}",
             "baseline"],
            ["traced",
             f"{statistics.median(traced['wall_s']):.2f}",
             f"{traced['overhead_vs_disabled']:+.1%} "
             f"({q1:+.1%} .. {q3:+.1%})"],
        ],
    )

    # Tracing must never change simulation output.
    assert results["records_identical"]
    assert traced["events"] > 0
    # Enabled tracing is allowed real cost, but it must stay moderate on
    # this grid.
    assert traced["overhead_vs_disabled"] < 0.5
