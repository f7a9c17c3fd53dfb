"""The link kernel's water-fill: ``allocate`` is ``water_fill`` with only
the capacity checked.

The kernel computes every demand itself, from non-negative windows and
rates, so ``allocate`` skips the per-demand checks the public
``water_fill`` keeps.  At every flow count the two must return *equal
floats*, not merely close ones: every batched window and every serial
tick of a cell divides its capacity through ``allocate``.  The property
against the verbatim pre-optimization formulation lives in
``tests/test_net.py``.
"""

from __future__ import annotations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import allocate, water_fill


def test_zero_demands_all_zero():
    demands = [0.0] * 30
    assert allocate(1e6, demands) == [0.0] * 30
    assert water_fill(1e6, demands) == [0.0] * 30


def test_single_flow_gets_min_of_demand_and_capacity():
    assert allocate(5.0, [3.0]) == [3.0]
    assert allocate(2.0, [3.0]) == [2.0]
    assert allocate(2.0, [3.0]) == water_fill(2.0, [3.0])


def test_tolerance_edge_demand_exactly_at_share_epsilon():
    # Three flows, capacity 9: share 3.0; a demand at share + 1e-12
    # sits exactly on the satisfaction boundary, and counts as
    # satisfied in the first round.
    demands = [3.0 + 1e-12, 5.0, 1.0]
    assert allocate(9.0, demands) == water_fill(9.0, demands) == demands


def test_negative_inputs_rejected_like_scalar():
    # The public water_fill checks every input; allocate, the kernel's
    # entry point, only the capacity.
    with pytest.raises(ValueError):
        water_fill(-1.0, [1.0])
    with pytest.raises(ValueError):
        water_fill(1.0, [-1.0, 2.0])


def test_allocate_checks_capacity_on_both_paths():
    # One flow takes the single-flow shortcut, more run the rounds;
    # the capacity is checked before either.
    for flows in (1, 2, 256):
        with pytest.raises(ValueError):
            allocate(-1.0, [1.0] * flows)


@settings(max_examples=100, deadline=None)
@given(
    demands=st.lists(
        st.floats(min_value=0.0, max_value=5e6),
        min_size=256,
        max_size=768,
    ),
    capacity=st.floats(min_value=0.0, max_value=1e8),
)
def test_allocate_large_fleets_match_oracle(demands, capacity):
    assert allocate(capacity, list(demands)) == water_fill(
        capacity, list(demands)
    )
