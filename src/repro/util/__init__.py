"""Shared utilities: deterministic randomness, unit helpers, validation."""

from repro.util.rng import DeterministicRng, derive_seed
from repro.util.units import (
    bits_to_bytes,
    bytes_to_bits,
    kbps,
    mbps,
    to_kbps,
    to_mbps,
)
from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_probability,
    non_decreasing,
)

__all__ = [
    "DeterministicRng",
    "derive_seed",
    "bits_to_bytes",
    "bytes_to_bits",
    "kbps",
    "mbps",
    "to_kbps",
    "to_mbps",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "non_decreasing",
]
