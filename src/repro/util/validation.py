"""Argument validation helpers with informative error messages."""

from __future__ import annotations

import math


def check_positive(name: str, value: float) -> float:
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_non_negative(name: str, value: float) -> float:
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def check_probability(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def non_decreasing(values: list) -> bool:
    """Whether no value is smaller than the one before it.

    The precondition of every bisection index (DESIGN.md section 4k).
    A NaN anywhere turns the sum NaN and counts as a decrease; so does
    a list holding both infinities, which only costs the caller its
    scan fallback.  Sorting sorted input is a linear pass in C.
    """
    return values == sorted(values) and not math.isnan(sum(values))
