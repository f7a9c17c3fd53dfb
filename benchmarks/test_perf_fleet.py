"""Fleet scaling: per-client cost as the population grows.

Times ``run_fleet`` at N in {50, 200, 1000} clients on one cell and
writes ``benchmarks/BENCH_fleet.json`` as a regression baseline.  The
quantity of interest is *per-client wall cost*: a dispatched tick
visits only the clients it touches, the others catch up when next read
(DESIGN.md §4l), the link plans each tick with one water-fill over the
busy flows (a few passes over a list, DESIGN.md §4p), and a finished
cell is freed by reference counting, not by full collections that walk
every live client (DESIGN.md §4t), so cost per client must stay
roughly flat — asserted as "no worse than linear in N with generous
slack".

Also gates the tentpole's headline claim directly: a 1000-client fleet
completes in one process.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.fleet import FleetSpec, run_fleet
from repro.net.schedule import ConstantSchedule

from benchmarks.conftest import bench_env, once

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_fleet.json"

FLEET_SIZES = (50, 200, 1000)
DURATION_S = 30.0
CONTENT_S = 20.0
CELL_BPS = 150_000_000.0  # one busy 150 Mbps cell


def _fleet_spec(clients: int) -> FleetSpec:
    return FleetSpec(
        services=("H1", "D1", "S1"),
        clients=clients,
        service_weights=(1.0, 1.0, 1.0),
        schedule=ConstantSchedule(CELL_BPS),
        duration_s=DURATION_S,
        content_duration_s=CONTENT_S,
        arrival_rate_per_s=clients / DURATION_S * 1.5,
        mean_dwell_s=20.0,
        churn_seed=1,
        engine="event",
    )


def _run_scaling():
    rows = []
    for clients in FLEET_SIZES:
        start = time.perf_counter()
        outcome = run_fleet(_fleet_spec(clients))
        wall = time.perf_counter() - start
        rows.append({
            "clients": outcome.population.clients,
            "wall_s": wall,
            "per_client_ms": wall / clients * 1e3,
            "arrived": outcome.population.arrived,
            "departed": outcome.population.departed,
            "stalled": outcome.population.stalled,
            "jain_bitrate": outcome.population.jain_bitrate,
            "ticks_executed": outcome.tick_stats.ticks_executed,
        })
    return rows


def test_fleet_scaling(benchmark, show):
    rows = once(benchmark, _run_scaling)

    # The 1000-client fleet completed in one process with everyone
    # accounted for: a record per client, some arrived, and none
    # departed without arriving.
    biggest = rows[-1]
    assert biggest["clients"] == 1000
    assert biggest["arrived"] > 0
    assert biggest["departed"] <= biggest["arrived"]

    # Per-client cost no worse than linear in N: if each tick were
    # quadratic in the population, per-client cost would grow ~N-fold;
    # allow generous slack for fixed per-run overheads and the denser
    # contention at large N.
    base = rows[0]["per_client_ms"]
    for row in rows[1:]:
        growth = row["clients"] / rows[0]["clients"]
        assert row["per_client_ms"] <= base * growth, (
            f"per-client cost superlinear: {row}"
        )

    show(
        "Fleet scaling (one cell, event engine)",
        ["clients", "wall s", "ms/client", "arrived", "departed",
         "jain"],
        [
            [
                row["clients"],
                f"{row['wall_s']:.2f}",
                f"{row['per_client_ms']:.2f}",
                row["arrived"],
                row["departed"],
                f"{row['jain_bitrate']:.3f}",
            ]
            for row in rows
        ],
    )

    BASELINE_PATH.write_text(json.dumps(
        {
            "env": bench_env(),
            "config": {
                "services": ["H1", "D1", "S1"],
                "duration_s": DURATION_S,
                "content_duration_s": CONTENT_S,
                "cell_bps": CELL_BPS,
                "engine": "event",
            },
            "scaling": rows,
        },
        indent=2, sort_keys=True,
    ))
