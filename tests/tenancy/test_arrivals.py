"""Arrival processes: determinism, monotonicity, validation."""

from __future__ import annotations

import pytest

from repro.tenancy.arrivals import FixedArrivals, PoissonArrivals

ALL_PROCESSES = [
    FixedArrivals(interval=5.0, start=2.0),
    PoissonArrivals(rate=0.2, seed=11),
]


@pytest.mark.parametrize("process", ALL_PROCESSES, ids=lambda p: p.name)
class TestContract:
    def test_same_call_twice_is_identical(self, process):
        assert process.times(20) == process.times(20)

    def test_prefix_stable(self, process):
        # Drawing more arrivals never changes the earlier ones.
        assert process.times(20)[:7] == process.times(7)

    def test_non_decreasing_and_non_negative(self, process):
        times = process.times(50)
        assert all(t >= 0 for t in times)
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_zero_and_negative_n(self, process):
        assert process.times(0) == []
        with pytest.raises(ValueError):
            process.times(-1)


class TestFixed:
    def test_default_is_all_at_once(self):
        assert FixedArrivals().times(3) == [0.0, 0.0, 0.0]

    def test_spacing(self):
        assert FixedArrivals(interval=2.0, start=1.0).times(3) == [1.0, 3.0, 5.0]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedArrivals(interval=-1.0)
        with pytest.raises(ValueError):
            FixedArrivals(start=-1.0)


class TestPoisson:
    def test_seed_changes_times(self):
        a = PoissonArrivals(rate=0.5, seed=0).times(10)
        b = PoissonArrivals(rate=0.5, seed=1).times(10)
        assert a != b

    def test_rate_scales_mean_gap(self):
        slow = PoissonArrivals(rate=0.1, seed=0).times(200)
        fast = PoissonArrivals(rate=1.0, seed=0).times(200)
        assert slow[-1] == pytest.approx(fast[-1] * 10)

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate=0.0)
