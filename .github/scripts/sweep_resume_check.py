"""CI gate: kill a journalled sweep mid-flight, resume it, compare.

The crash-safety claim of the sweep supervisor, exercised end to end
at the process level: a child process runs a journalled serial sweep
and is SIGKILL'd as soon as its journal shows partial progress; the
parent then resumes the same journal in-process and asserts that

* the resumed sweep re-executes only the journal-missing leases
  (``resumed_skips`` equals the lines the kill left behind),
* the merged outcomes are identical to a clean ``workers=0`` run, and
* the healed journal is terminal for every lease.

Deterministic by construction — the only race is *where* the kill
lands, and the contract is that it must not matter.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

from repro.core.outcome_cache import lease_key
from repro.core.parallel import sweep_grid
from repro.core.run import execute
from repro.core.supervisor import SweepJournal, SweepSupervisor

DURATION_S = 45.0


def _grid():
    return sweep_grid(
        ["H1", "S1", "D2", "H4"],
        [2, 9],
        duration_s=DURATION_S,
    )


def _child(journal_dir: str) -> None:
    """Child mode: run the journalled sweep until the parent kills us."""
    execute(_grid(), workers=0, journal=journal_dir)


def _journal_lines(path: str) -> list[dict]:
    lines = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                try:
                    lines.append(json.loads(line))
                except json.JSONDecodeError:
                    pass  # torn tail: exactly what the kill may leave
    except FileNotFoundError:
        pass
    return lines


def main() -> None:
    grid = _grid()
    reference = execute(grid, workers=0)
    with tempfile.TemporaryDirectory() as root:
        journal_path = os.path.join(root, "journal.jsonl")
        child = subprocess.Popen(
            [sys.executable, __file__, "--child", root],
            env=os.environ.copy(),
        )
        # Kill as soon as the journal shows partial progress (at least
        # one lease done, with luck not yet all of them).
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if child.poll() is not None:
                break
            if len(_journal_lines(journal_path)) >= 2:
                child.send_signal(signal.SIGKILL)
                break
            time.sleep(0.02)
        child.wait(timeout=60)

        done_before = {
            entry["spec_sha"]
            for entry in _journal_lines(journal_path)
            if entry.get("status") == "done"
        }
        if len(done_before) == len(grid):
            # The child out-ran the poll loop; the resume below then
            # degenerates to the all-skip case, which is still a gate.
            print("note: child completed before the kill landed")

        supervisor = SweepSupervisor(0, journal=SweepJournal(root))
        resumed = supervisor.run(grid)

        assert resumed == reference, "resumed outcomes differ from clean run"
        assert supervisor.stats.resumed_skips == len(done_before), (
            supervisor.stats.resumed_skips,
            len(done_before),
        )
        healed = SweepJournal(root)
        for spec in grid:
            entry = healed.completed(lease_key(spec))
            assert entry is not None, f"lease not terminal: {spec}"
            assert entry["status"] == "done"
    print(
        f"sweep resume gate: {len(grid)} leases, killed child after "
        f"{len(done_before)} completed, resume re-ran "
        f"{len(grid) - len(done_before)} and matched the clean run"
    )


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        _child(sys.argv[2])
    else:
        main()
