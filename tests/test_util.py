"""Unit tests for repro.util (rng, units, validation)."""

import math

import pytest

from repro.util import (
    DeterministicRng,
    bits_to_bytes,
    bytes_to_bits,
    check_non_negative,
    check_positive,
    check_probability,
    derive_seed,
    kbps,
    mbps,
    non_decreasing,
    to_kbps,
    to_mbps,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "x") == derive_seed(42, "x")

    def test_label_sensitive(self):
        assert derive_seed(42, "x") != derive_seed(42, "y")

    def test_parent_sensitive(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_returns_64bit_int(self):
        seed = derive_seed(7, "label")
        assert 0 <= seed < 2**64


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(5)
        b = DeterministicRng(5)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_children_independent_of_sibling_consumption(self):
        parent = DeterministicRng(9)
        child_a_first = parent.child("a").random()
        # Consuming from another child must not perturb "a".
        parent2 = DeterministicRng(9)
        parent2.child("b").random()
        assert parent2.child("a").random() == child_a_first

    def test_truncated_gauss_respects_bounds(self):
        rng = DeterministicRng(3)
        for _ in range(200):
            value = rng.truncated_gauss(1.0, 0.5, 0.5, 1.5)
            assert 0.5 <= value <= 1.5

    def test_truncated_gauss_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).truncated_gauss(0, 1, 2.0, 1.0)

    def test_ar1_series_length_and_bounds(self):
        series = DeterministicRng(4).ar1_series(500, mean=1.0, sigma=0.3,
                                                rho=0.9, low=0.0, high=2.0)
        assert len(series) == 500
        assert all(0.0 <= value <= 2.0 for value in series)

    def test_ar1_series_mean_near_target(self):
        series = DeterministicRng(4).ar1_series(5000, mean=2.0, sigma=0.2, rho=0.5)
        assert abs(sum(series) / len(series) - 2.0) < 0.1

    def test_ar1_autocorrelation_positive(self):
        series = DeterministicRng(8).ar1_series(2000, mean=0.0, sigma=1.0,
                                                rho=0.9, low=-10, high=10)
        mean = sum(series) / len(series)
        num = sum((a - mean) * (b - mean) for a, b in zip(series, series[1:]))
        den = sum((a - mean) ** 2 for a in series)
        assert num / den > 0.7

    def test_ar1_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).ar1_series(10, 0, 1, rho=1.0)

    def test_exponential_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).exponential(0)

    def test_lognormal_positive(self):
        rng = DeterministicRng(2)
        assert all(rng.lognormal(0, 0.5) > 0 for _ in range(100))


class TestUnits:
    def test_kbps(self):
        assert kbps(500) == 500_000

    def test_mbps(self):
        assert mbps(2) == 2_000_000

    def test_roundtrip(self):
        assert to_kbps(kbps(123.4)) == pytest.approx(123.4)
        assert to_mbps(mbps(9.9)) == pytest.approx(9.9)

    def test_bits_bytes(self):
        assert bytes_to_bits(10) == 80
        assert bits_to_bytes(80) == 10
        assert bits_to_bytes(bytes_to_bits(7.5)) == pytest.approx(7.5)


class TestValidation:
    def test_check_positive_accepts(self):
        assert check_positive("x", 0.1) == 0.1

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", 0)

    def test_check_non_negative_accepts_zero(self):
        assert check_non_negative("x", 0) == 0

    def test_check_non_negative_rejects(self):
        with pytest.raises(ValueError):
            check_non_negative("x", -1e-9)

    def test_check_probability(self):
        assert check_probability("p", 0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability("p", 1.01)
        assert not math.isnan(check_probability("p", 0.0))

    @pytest.mark.parametrize(
        "values,expected",
        [
            ([], True),
            ([1.0, 1.0, 2.0], True),
            ([0, 5, 5, 9], True),
            ([1.0, 0.5], False),
            # NaN compares false both ways, so sorting may keep it in
            # place; it must still count as a decrease.
            ([0.0, 4.0, math.nan, 8.0], False),
            ([math.nan], False),
            # Both infinities sum to NaN: refused, which is only slower.
            ([-math.inf, math.inf], False),
        ],
    )
    def test_non_decreasing(self, values, expected):
        assert non_decreasing(values) is expected
