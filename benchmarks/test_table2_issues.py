"""Table 2: the identified QoE-impacting issues, detected from the outside.

Runs the issue detectors over representative sessions (low-bandwidth
traces for stall issues, constant-bandwidth for stability, SR-inducing
steps for replacement quality) and prints which services exhibit which
issue.  The assertion checks that the affected-service sets match the
paper's Table 2 for every detector that can be evaluated per-session.
"""

from repro.core.bestpractices import (
    Issue,
    detect_av_desync,
    detect_high_bottom_track,
    detect_lossy_sr,
    detect_non_persistent,
    detect_unstable_selection,
)
from tests.support import run_session
from repro.net.schedule import ConstantSchedule, StepSchedule
from repro.net.traces import generate_trace
from repro.services import ALL_SERVICE_NAMES, get_service
from repro.util import kbps, mbps

from benchmarks.conftest import once

EXPECTED = {
    Issue.HIGH_BOTTOM_TRACK: {"H2", "H5", "S1"},
    Issue.NON_PERSISTENT_TCP: {"H2", "H3", "H5"},
    Issue.AV_DESYNC: {"D1"},
    Issue.UNSTABLE_SELECTION: {"D1"},
    Issue.LOSSY_SEGMENT_REPLACEMENT: {"H1", "H4"},
    Issue.SINGLE_SEGMENT_STARTUP: {"H3", "H4", "H6", "D2", "D4"},
    Issue.LOW_RESUME_THRESHOLD: {"S2"},
}


def _detect_for_service(name):
    """Run every per-service detector; returns picklable Issue set."""
    spec = get_service(name)
    sr_schedule = StepSchedule(
        steps=((0.0, mbps(6)), (80.0, kbps(900)), (180.0, mbps(4)),
               (195.0, kbps(350)))
    )
    issues: set[Issue] = set()
    plain = run_session(name, ConstantSchedule(mbps(4)),
                        duration_s=90.0, content_duration_s=90.0)
    if detect_high_bottom_track(plain):
        issues.add(Issue.HIGH_BOTTOM_TRACK)
    if detect_non_persistent(plain):
        issues.add(Issue.NON_PERSISTENT_TCP)
    constant = run_session(name, ConstantSchedule(kbps(500)),
                           duration_s=300.0, content_duration_s=500.0)
    if detect_unstable_selection(constant):
        issues.add(Issue.UNSTABLE_SELECTION)
    if spec.separate_audio:
        low = run_session(name, generate_trace(1, 600), duration_s=600.0)
        if detect_av_desync(low):
            issues.add(Issue.AV_DESYNC)
    if spec.performs_sr:
        sr_run = run_session(name, sr_schedule, duration_s=420.0,
                             content_duration_s=800.0)
        if detect_lossy_sr(sr_run):
            issues.add(Issue.LOSSY_SEGMENT_REPLACEMENT)
    # design-derived rows (measured by the Table 1 probes; here we
    # reuse the spec-derived values those probes recover exactly)
    if spec.startup_segments == 1:
        issues.add(Issue.SINGLE_SEGMENT_STARTUP)
    if spec.resuming_threshold_s < 10.0:
        issues.add(Issue.LOW_RESUME_THRESHOLD)
    return issues


def test_table2_issue_detection(benchmark, show):
    def run():
        found: dict[Issue, set[str]] = {issue: set() for issue in EXPECTED}
        for name in ALL_SERVICE_NAMES:
            for issue in _detect_for_service(name):
                found[issue].add(name)
        return found

    found = once(benchmark, run)

    rows = [
        [issue.name, ", ".join(sorted(services)) or "-",
         ", ".join(sorted(EXPECTED[issue]))]
        for issue, services in found.items()
    ]
    show(
        "Table 2: identified QoE-impacting issues",
        ["issue", "detected services", "paper (Table 2)"],
        rows,
    )

    for issue, expected in EXPECTED.items():
        assert found[issue] == expected, issue
