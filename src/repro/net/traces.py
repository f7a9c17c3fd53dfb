"""Synthetic cellular bandwidth traces (the paper's 14 profiles).

The authors recorded 14 one-second-granularity throughput traces from a
real cellular network "in various scenarios covering different movement
patterns, signal strength and locations", sorted them by average
bandwidth, and replayed them via traffic shaping (section 2.6 and
Figure 3).  We cannot ship their traces, so we generate 14 seeded
synthetic equivalents: an average-bandwidth ladder from ~0.35 to
~40 Mbps, with variability and outage behaviour tied to a movement
scenario (driving traces fade hard and often, stationary ones are
smooth).  Everything downstream treats them exactly like recordings.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

from repro.net.schedule import TraceSchedule
from repro.util import DeterministicRng, check_positive, derive_seed, mbps

TRACE_SEED = 20170901  # fixed so every experiment sees identical profiles
PROFILE_COUNT = 14
DEFAULT_DURATION_S = 600
#: Entries kept by the trace memo: the 14 profiles at a few durations
#: and trace seeds.
TRACE_MEMO_SIZE = 64

# Average-bandwidth ladder (Mbps), lowest first, mirroring Figure 3's
# spread from well under 1 Mbps to ~40 Mbps.
_MEAN_LADDER_MBPS = (
    0.35, 0.55, 0.85, 1.3, 2.0, 3.0, 4.5, 7.0, 10.0, 14.0, 19.0, 26.0, 33.0, 40.0,
)


class Scenario(enum.Enum):
    DRIVING = "driving"
    WALKING = "walking"
    STATIONARY = "stationary"


# (coefficient of variation of the slow component, fade rate per second,
#  fade depth range, fade length range in seconds)
_SCENARIO_SHAPE = {
    Scenario.DRIVING: (0.60, 1 / 45.0, (0.03, 0.15), (2, 8)),
    Scenario.WALKING: (0.40, 1 / 120.0, (0.10, 0.30), (1, 5)),
    Scenario.STATIONARY: (0.22, 1 / 300.0, (0.25, 0.50), (1, 3)),
}


def _scenario_for(profile_id: int) -> Scenario:
    if profile_id <= 4:
        return Scenario.DRIVING
    if profile_id <= 9:
        return Scenario.WALKING
    return Scenario.STATIONARY


@dataclass(frozen=True)
class CellularTrace:
    """A 1 Hz cellular bandwidth recording (synthetic)."""

    profile_id: int
    scenario: Scenario
    samples_bps: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.samples_bps:
            raise ValueError("trace must have samples")

    @property
    def duration_s(self) -> int:
        return len(self.samples_bps)

    @property
    def average_bps(self) -> float:
        return sum(self.samples_bps) / len(self.samples_bps)

    @property
    def min_bps(self) -> float:
        return min(self.samples_bps)

    @property
    def max_bps(self) -> float:
        return max(self.samples_bps)

    @property
    def name(self) -> str:
        return f"Profile {self.profile_id}"

    def as_schedule(self) -> TraceSchedule:
        return TraceSchedule(samples_bps=self.samples_bps)


def generate_trace(
    profile_id: int,
    duration_s: int = DEFAULT_DURATION_S,
    seed: int = TRACE_SEED,
) -> CellularTrace:
    """Generate one profile; identical inputs give identical traces."""
    if not 1 <= profile_id <= PROFILE_COUNT:
        raise ValueError(f"profile_id must be 1..{PROFILE_COUNT}, got {profile_id}")
    check_positive("duration_s", duration_s)
    scenario = _scenario_for(profile_id)
    cv, fade_rate, fade_depth_range, fade_len_range = _SCENARIO_SHAPE[scenario]
    mean_bps = mbps(_MEAN_LADDER_MBPS[profile_id - 1])
    rng = DeterministicRng(derive_seed(seed, f"profile-{profile_id}"))

    # Slow multiplicative component: AR(1) on log bandwidth.
    sigma_log = math.sqrt(math.log(1.0 + cv * cv))
    log_series = rng.child("slow").ar1_series(
        duration_s, mean=0.0, sigma=sigma_log, rho=0.92,
        low=-3.0 * sigma_log, high=3.0 * sigma_log,
    )
    samples = [math.exp(value) for value in log_series]

    # Fast per-second jitter.
    jitter_rng = rng.child("jitter")
    samples = [
        value * jitter_rng.truncated_gauss(1.0, 0.10, 0.7, 1.3) for value in samples
    ]

    # Deep fades (coverage holes, handovers).
    fade_rng = rng.child("fades")
    second = 0
    while second < duration_s:
        gap = fade_rng.exponential(fade_rate)
        second += max(1, int(round(gap)))
        if second >= duration_s:
            break
        depth = fade_rng.uniform(*fade_depth_range)
        length = fade_rng.randint(*fade_len_range)
        for offset in range(length):
            if second + offset < duration_s:
                samples[second + offset] *= depth
        second += length

    # Pin the average to the ladder value so profiles sort exactly.
    scale = mean_bps / (sum(samples) / len(samples))
    floor_bps = mbps(0.01)
    samples_bps = tuple(max(value * scale, floor_bps) for value in samples)
    return CellularTrace(
        profile_id=profile_id, scenario=scenario, samples_bps=samples_bps
    )


@lru_cache(maxsize=TRACE_MEMO_SIZE, typed=True)
def profile_trace(
    profile_id: int, duration_s: int, seed: int
) -> CellularTrace:
    """:func:`generate_trace`, memoised on its exact arguments.

    Every spec that names a profile resolves its bandwidth through
    here, for its key as well as for its build, so a sweep generates
    each distinct trace once per process.  Sharing one instance is
    safe: the trace is frozen and its samples are a tuple.
    """
    return generate_trace(profile_id, duration_s, seed)


@lru_cache(maxsize=TRACE_MEMO_SIZE, typed=True)
def profile_schedule(
    profile_id: int, duration_s: int, seed: int
) -> TraceSchedule:
    """The replay schedule of :func:`profile_trace`, memoised alike.

    One instance serves every session and key that asks for it: a
    :class:`TraceSchedule` is frozen and stateless, and its
    ``next_change_at`` bisects change points computed at construction.
    """
    return profile_trace(profile_id, duration_s, seed).as_schedule()


@lru_cache(maxsize=TRACE_MEMO_SIZE, typed=True)
def trace_schedule(trace: CellularTrace) -> TraceSchedule:
    """``trace.as_schedule()``, memoised on the trace's value.

    A spec that carries an explicit trace resolves its bandwidth
    through here for its key and for its build, so each lease builds
    one schedule.  The spec itself caches nothing, so its pickle does
    not grow.
    """
    return trace.as_schedule()


def cellular_profiles(
    duration_s: int = DEFAULT_DURATION_S, seed: int = TRACE_SEED
) -> list[CellularTrace]:
    """All 14 profiles, sorted by average bandwidth (Profile 1 lowest)."""
    return [generate_trace(pid, duration_s, seed) for pid in range(1, PROFILE_COUNT + 1)]


def split_trace(trace: CellularTrace, chunk_s: int = 60) -> list[CellularTrace]:
    """Split a trace into consecutive chunks (Figure 15 builds 50 one-minute
    profiles out of the 5 lowest 10-minute ones this way)."""
    check_positive("chunk_s", chunk_s)
    chunks = []
    for start in range(0, trace.duration_s - chunk_s + 1, chunk_s):
        chunks.append(
            CellularTrace(
                profile_id=trace.profile_id,
                scenario=trace.scenario,
                samples_bps=trace.samples_bps[start:start + chunk_s],
            )
        )
    return chunks
