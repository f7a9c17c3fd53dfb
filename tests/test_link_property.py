"""Property tests: the vectorized water-fill is bit-identical to the
scalar oracle.

The fleet path auto-dispatches to :func:`water_fill_vec` above
``VECTORIZE_MIN_FLOWS`` flows, so byte-identity of every fleet result
rests on these two functions returning *equal floats*, not merely
close ones.  The scalar loop only accumulates allocations in its
terminal round (``demands[i] - allocations[i]`` with ``allocations[i]
== 0.0``), which is what makes exact equality achievable — and
testable.
"""

from __future__ import annotations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import (
    VECTORIZE_MIN_FLOWS,
    allocate,
    water_fill,
    water_fill_vec,
)

np = pytest.importorskip("numpy")


demand_values = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e-11),   # below the epsilon
    st.floats(min_value=1e-12, max_value=10.0),  # tolerance band
    st.floats(min_value=0.0, max_value=5e7),     # realistic byte rates
)

demand_lists = st.lists(demand_values, min_size=0, max_size=64)

# Up to 64 flows, or a count on either side of the allocator's
# threshold: a drawn pattern repeated, which keeps long lists cheap to
# draw and makes many flows leave the same round together.
fill_lists = st.one_of(demand_lists, st.builds(
    lambda pattern, n: (pattern * n)[:n],
    st.lists(demand_values, min_size=1, max_size=16),
    st.integers(VECTORIZE_MIN_FLOWS - 4, VECTORIZE_MIN_FLOWS + 4),
))


@settings(max_examples=800, deadline=None)
@given(demands=fill_lists, data=st.data())
def test_vectorized_water_fill_is_bit_identical(demands, data):
    capacity = data.draw(
        st.one_of(
            st.just(0.0),
            st.just(1e-12),
            st.floats(min_value=0.0, max_value=1e8),
            # Exercise the exhaustion branch: capacity near sum(demands).
            st.just(sum(demands)),
            st.just(sum(demands) * 0.5),
        )
    )
    scalar = water_fill(capacity, list(demands))
    vector = water_fill_vec(capacity, list(demands))
    assert scalar == vector  # float-exact, not approx


@settings(max_examples=200, deadline=None)
@given(demands=demand_lists)
def test_vectorized_results_are_builtin_floats(demands):
    for value in water_fill_vec(100.0, list(demands)):
        assert type(value) is float  # np.float64 must not leak out


def test_zero_demands_all_zero():
    demands = [0.0] * 30
    assert water_fill_vec(1e6, demands) == [0.0] * 30
    assert water_fill(1e6, demands) == water_fill_vec(1e6, demands)


def test_single_flow_gets_min_of_demand_and_capacity():
    assert water_fill_vec(5.0, [3.0]) == [3.0]
    assert water_fill_vec(2.0, [3.0]) == [2.0]
    assert water_fill_vec(2.0, [3.0]) == water_fill(2.0, [3.0])


def test_tolerance_edge_demand_exactly_at_share_epsilon():
    # Three flows, capacity 9: share 3.0; a demand at share + 1e-12
    # sits exactly on the satisfaction boundary.
    demands = [3.0 + 1e-12, 5.0, 1.0]
    assert water_fill(9.0, demands) == water_fill_vec(9.0, demands)


def test_negative_inputs_rejected_like_scalar():
    with pytest.raises(ValueError):
        water_fill_vec(-1.0, [1.0])
    with pytest.raises(ValueError):
        water_fill_vec(1.0, [-1.0, 2.0])


def test_allocate_checks_capacity_on_both_paths():
    # The link kernel computes the demands itself, so allocate checks
    # only the capacity before the scalar fill.
    for flows in (1, VECTORIZE_MIN_FLOWS):
        with pytest.raises(ValueError):
            allocate(-1.0, [1.0] * flows)


def test_allocate_dispatches_by_flow_count():
    few = [1.0] * (VECTORIZE_MIN_FLOWS - 1)
    many = [1.0] * (VECTORIZE_MIN_FLOWS + 1)
    # Either path must produce the oracle's answer.
    assert allocate(10.0, few) == water_fill(10.0, few)
    assert allocate(10.0, many) == water_fill(10.0, many)


@settings(max_examples=100, deadline=None)
@given(
    demands=st.lists(
        st.floats(min_value=0.0, max_value=5e6),
        min_size=VECTORIZE_MIN_FLOWS,
        max_size=3 * VECTORIZE_MIN_FLOWS,
    ),
    capacity=st.floats(min_value=0.0, max_value=1e8),
)
def test_allocate_large_fleets_match_oracle(demands, capacity):
    assert allocate(capacity, list(demands)) == water_fill(
        capacity, list(demands)
    )
