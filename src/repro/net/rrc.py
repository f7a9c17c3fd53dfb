"""LTE RRC state machine and radio energy model.

Section 3.3.2 of the paper observes that when a player's pausing and
resuming thresholds are less than the LTE RRC demotion timer apart, the
radio never demotes to idle between download bursts, so the pause saves
no energy.  This module provides the state machine needed to quantify
that: RRC_CONNECTED while data flows, a fixed-length high-power *tail*
after activity stops (the demotion timer), then RRC_IDLE.

Power figures follow common LTE measurement literature (e.g. Huang et
al., MobiSys'12): roughly 1–1.3 W while active, ~1 W during the tail,
tens of mW idle, and an extra promotion cost per idle->connected switch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

from repro.util import check_non_negative, check_positive


class RrcState(enum.Enum):
    IDLE = "idle"
    CONNECTED_ACTIVE = "connected_active"
    CONNECTED_TAIL = "connected_tail"


@dataclass(frozen=True)
class RrcConfig:
    demotion_timer_s: float = 11.0
    active_power_w: float = 1.25
    tail_power_w: float = 1.00
    idle_power_w: float = 0.03
    promotion_energy_j: float = 0.45

    def __post_init__(self) -> None:
        check_positive("demotion_timer_s", self.demotion_timer_s)
        check_positive("active_power_w", self.active_power_w)
        check_non_negative("tail_power_w", self.tail_power_w)
        check_non_negative("idle_power_w", self.idle_power_w)
        check_non_negative("promotion_energy_j", self.promotion_energy_j)


@dataclass
class RrcMachine:
    """Track RRC state and accumulate radio energy from activity samples."""

    config: RrcConfig = field(default_factory=RrcConfig)
    state: RrcState = RrcState.IDLE
    energy_j: float = 0.0
    promotions: int = 0
    demotions: int = 0
    _tail_remaining_s: float = 0.0
    time_in_state: dict = field(
        default_factory=lambda: {state: 0.0 for state in RrcState}
    )

    def observe(self, radio_active: bool, dt: float) -> None:
        """Feed one tick: was any data moving on the radio during it?"""
        self.observe_many((radio_active,), dt)

    def observe_many(self, activity: Iterable[bool], dt: float) -> None:
        """Feed a run of ticks, one activity flag per tick, in order.

        The state machine still steps once per tick: each tick adds its
        own ``power * dt`` to the energy and ``dt`` to its state's time,
        and takes ``dt`` off the tail, so the floats accumulate exactly
        as one call per tick would.  Only the bookkeeping is per run:
        the machine lives in locals and is written back once.
        """
        check_positive("dt", dt)
        config = self.config
        idle, active, tail = (
            RrcState.IDLE, RrcState.CONNECTED_ACTIVE, RrcState.CONNECTED_TAIL
        )
        active_step = config.active_power_w * dt
        tail_step = config.tail_power_w * dt
        idle_step = config.idle_power_w * dt
        promotion_energy = config.promotion_energy_j
        demotion_timer = config.demotion_timer_s
        state = self.state
        energy = self.energy_j
        remaining = self._tail_remaining_s
        promotions = self.promotions
        demotions = self.demotions
        time_in_state = self.time_in_state
        in_idle = time_in_state[idle]
        in_active = time_in_state[active]
        in_tail = time_in_state[tail]
        for radio_active in activity:
            if radio_active:
                if state is idle:
                    promotions += 1
                    energy += promotion_energy
                state = active
                remaining = demotion_timer
                energy += active_step
                in_active += dt
                continue
            if state is active:
                state = tail
            if state is tail:
                remaining -= dt
                if remaining <= 1e-9:
                    state = idle
                    demotions += 1
            if state is tail:
                energy += tail_step
                in_tail += dt
            else:
                energy += idle_step
                in_idle += dt
        self.state = state
        self.energy_j = energy
        self._tail_remaining_s = remaining
        self.promotions = promotions
        self.demotions = demotions
        time_in_state[idle] = in_idle
        time_in_state[active] = in_active
        time_in_state[tail] = in_tail

    @property
    def idle_fraction(self) -> float:
        total = sum(self.time_in_state.values())
        if total <= 0:
            return 0.0
        return self.time_in_state[RrcState.IDLE] / total
