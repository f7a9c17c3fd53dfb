"""A finished run leaves no reference cycle behind.

Every request used to build a cycle — the job holds its parts, each
part's callback closes over the job — and a run that ended with jobs in
flight stayed cyclic as a whole, through each job's ``on_complete``,
a method of its player.  Only the cyclic collector freed them.  Now
``Network.complete`` drops a callback once it fired, and both loops
detach what is still in flight when they end (DESIGN.md §4t), so
reference counting frees every completed request and every finished
session or cell.

Each case runs with the collector off and ``gc.DEBUG_SAVEALL`` set,
then collects: whatever the collector finds was unreachable only
through a cycle, and must be nothing.
"""

from __future__ import annotations

import dataclasses
import gc

import pytest

from repro.core.fleet import FleetSession
from repro.core.parallel import RunSpec
from repro.core.run import run_one

from tests.test_fleet_dispatch import BENCH_CELL
from tests.test_wire_invariant import TORN_DOWN


def _cyclic_garbage(run) -> list[str]:
    """The type names of what the collector finds after ``run()``."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return sorted({type(obj).__name__ for obj in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


CASES = {
    f"{service}-{engine}": RunSpec(
        service=service, profile_id=5, duration_s=90.0, engine=engine)
    for service in ("H1", "D1", "D3")
    for engine in ("event", "tick")
}
CASES["reset-storm"] = TORN_DOWN["reset-storm-session"]
CASES["d3-timeout"] = TORN_DOWN["timeout-session"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_finished_session_is_freed_by_reference_counting(name):
    spec = CASES[name]
    run_one(spec)  # first-use caches fill outside the check
    assert _cyclic_garbage(lambda: run_one(spec)) == []


CELLS = {
    # Departed clients' jobs stay in flight, their parts torn down.
    "churny-reset-storm": TORN_DOWN["churny-reset-storm-cell"],
    # The horizon also cuts live clients' downloads short.
    "bench-cell": BENCH_CELL,
}


@pytest.mark.parametrize("engine", ["event", "tick"])
@pytest.mark.parametrize("name", sorted(CELLS))
def test_a_finished_cell_is_freed_by_reference_counting(name, engine):
    spec = dataclasses.replace(CELLS[name], engine=engine)
    results = FleetSession(spec).run()
    assert any(result.player.scheduler.busy for result in results)
    del results
    assert _cyclic_garbage(lambda: FleetSession(spec).run()) == []
