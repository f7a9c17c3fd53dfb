"""No client is observed stale: a bystander catches up before it is read.

The event loop runs a full tick only for the clients a dispatch
touches; every other client sits its ticks out behind the clock and
replays them when its state is next read (``Player.catch_up``,
DESIGN.md §4l).  Two kinds of reads come from outside the player's own
tick: a job-completion handler, which the network step may fire for a
client that sat out the window before it, and the loop's retirement of
a departing client.  The tick oracle advances every client on every
tick, so what such a read sees there is the truth.

These tests record, per client, the clock, the playhead, the segment
playing and the lengths of the UI sample and event logs: on entry to
``MultiSession._retire`` (the loop catches the client up before it
calls it), and on exit from each handler (a handler catches its player
up first, so what it leaves behind is what it saw plus what it did).
The event loop's sequence must equal the oracle's.
"""

from __future__ import annotations

import contextlib
import dataclasses

import pytest
from hypothesis import given, settings

from repro.core.fleet import FleetSession
from repro.core.multi import MultiSession
from repro.core.parallel import RunSpec
from repro.core.run import run_one
from repro.player.player import Player

from tests.test_behaviour_pin import PINNED_CELLS
from tests.test_fleet_dispatch import fleet_specs
from tests.test_wire_invariant import TORN_DOWN


def _seen(player: Player) -> tuple:
    return (
        player.manifest_url,
        player.clock.now,
        player._play_pos,
        player._current_play_index,
        len(player.ui_samples),
        len(player.events.events),
    )


@contextlib.contextmanager
def _recording():
    """Record what every handler and every retirement observes."""
    log: list[tuple] = []
    segment = Player._on_segment_complete
    metadata = Player._on_metadata_complete
    retire = MultiSession._retire

    def on_segment(self, job, result):
        segment(self, job, result)
        log.append(("segment",) + _seen(self))

    def on_metadata(self, job, result):
        metadata(self, job, result)
        log.append(("metadata",) + _seen(self))

    def retiring(self, index, now):
        log.append(("retire",) + _seen(self.players[index]))
        return retire(self, index, now)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Player, "_on_segment_complete", on_segment)
        patch.setattr(Player, "_on_metadata_complete", on_metadata)
        patch.setattr(MultiSession, "_retire", retiring)
        yield log


def _observed(spec, engine: str) -> list[tuple]:
    spec = dataclasses.replace(spec, engine=engine)
    with _recording() as log:
        if isinstance(spec, RunSpec):
            run_one(spec)
        else:
            FleetSession(spec).run()
    return log


def _assert_same_reads(spec) -> None:
    event = _observed(spec, "event")
    assert event == _observed(spec, "tick")
    assert any(entry[0] == "segment" for entry in event)


@pytest.mark.parametrize("name", sorted(PINNED_CELLS))
def test_pinned_cells_read_no_stale_client(name):
    _assert_same_reads(PINNED_CELLS[name][0])


@pytest.mark.parametrize("name", sorted(TORN_DOWN))
def test_torn_down_runs_read_no_stale_client(name):
    """Resets, timeouts and departures: completions fire outside any
    tick the client was touched on, and departed clients retire."""
    _assert_same_reads(TORN_DOWN[name])


@settings(max_examples=20, deadline=None)
@given(spec=fleet_specs())
def test_generated_fleets_read_no_stale_client(spec):
    assert _observed(spec, "event") == _observed(spec, "tick")
