"""CI gate: distributed sweep over real daemons, one SIGKILL'd mid-run.

The distributed fabric's crash-safety claim, exercised end to end at
the process level: two ``repro worker`` daemons serve loopback
sockets, a coordinator shards a journalled sweep across both, and one
daemon is SIGKILL'd as soon as the journal shows progress.  The gate
asserts that

* the sweep still completes — the dead worker's unfinished leases are
  re-dispatched to the survivor (or finished by the local fallback if
  the survivor was already done),
* the merged outcomes are identical to a clean ``workers=0`` run, and
* a second coordinator over the same journal resumes to an immediate
  all-skip: zero leases re-sent, identical outcomes again.

Deterministic by construction — the only race is *where* the kill
lands, and the contract is that it must not matter.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.core.distributed import SweepCoordinator
from repro.core.outcome_cache import lease_key
from repro.core.parallel import sweep_grid
from repro.core.run import execute
from repro.core.supervisor import SweepJournal

DURATION_S = 45.0


def _grid():
    return sweep_grid(
        ["H1", "S1", "D2", "H4", "H6", "D1"],
        [2, 9],
        duration_s=DURATION_S,
    )


def _spawn_worker(label: str) -> tuple[subprocess.Popen, str]:
    env = os.environ.copy()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--listen", "127.0.0.1:0", "--label", label],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = process.stdout.readline()
    match = re.search(r"listening on (\S+)", line)
    assert match, f"worker {label} failed to start: {line!r}"
    return process, match.group(1)


def _journal_lines(path: Path) -> list[dict]:
    lines = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                try:
                    lines.append(json.loads(line))
                except json.JSONDecodeError:
                    pass  # torn tail: possible under group commit
    except FileNotFoundError:
        pass
    return lines


def main() -> None:
    grid = _grid()
    reference = execute(grid, workers=0)

    victim, victim_addr = _spawn_worker("victim")
    survivor, survivor_addr = _spawn_worker("survivor")
    killed = threading.Event()
    try:
        with tempfile.TemporaryDirectory() as root:
            journal_path = Path(root) / "journal.jsonl"

            def kill_on_progress() -> None:
                deadline = time.monotonic() + 120.0
                while time.monotonic() < deadline:
                    if len(_journal_lines(journal_path)) >= 1:
                        victim.send_signal(signal.SIGKILL)
                        killed.set()
                        return
                    time.sleep(0.002)

            killer = threading.Thread(target=kill_on_progress, daemon=True)
            killer.start()
            coordinator = SweepCoordinator(
                [victim_addr, survivor_addr],
                journal=SweepJournal(root),
                io_timeout_s=60.0,
            )
            outcomes = coordinator.run(grid)
            killer.join(timeout=120.0)

            assert outcomes == reference, (
                "distributed outcomes differ from the clean serial run"
            )
            if not killed.is_set():
                print("note: sweep completed before the kill landed")
            elif coordinator.stats.worker_deaths == 0:
                # The victim died between shards; the coordinator saw a
                # clean bye instead of a mid-shard EOF.  Still a pass:
                # the kill provably did not corrupt the sweep.
                print("note: kill landed between shards (no mid-shard "
                      "death observed)")
            else:
                print(f"kill landed mid-shard: "
                      f"{coordinator.stats.worker_deaths} worker death(s), "
                      f"{coordinator.stats.redispatched_leases} lease(s) "
                      f"re-dispatched, "
                      f"{coordinator.stats.local_fallback_leases} finished "
                      f"by the local fallback")

            healed = SweepJournal(root)
            for spec in grid:
                entry = healed.completed(lease_key(spec))
                assert entry is not None, f"lease not terminal: {spec}"
                assert entry["status"] == "done"

            # Resume: a fresh coordinator over the merged journal skips
            # everything, even with every remote gone.
            resumed = SweepCoordinator(
                ["127.0.0.1:1"],
                journal=SweepJournal(root),
                connect_timeout_s=1.0,
            )
            again = resumed.run(grid)
            assert again == reference, "resumed outcomes differ"
            assert resumed.stats.leases_sent == 0, "resume re-sent leases"
            assert resumed.stats.local_fallback_leases == 0, (
                "resume re-ran leases locally"
            )
    finally:
        for process in (victim, survivor):
            if process.poll() is None:
                process.kill()
            process.wait(timeout=10)

    print(
        f"distributed smoke gate: {len(grid)} leases over 2 workers, "
        f"victim SIGKILL'd, merged journal healed, outcomes and resume "
        f"both matched the clean run"
    )


if __name__ == "__main__":
    main()
