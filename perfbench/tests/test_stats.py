import pytest

from stats import quartile_spread, tail


def test_tail_needs_more_samples_than_it_leaves_beyond():
    assert tail(range(10)) is None
    assert tail([], beyond=0) is None


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct, n = tail([5.0] + [1.0] * 10)
    assert (value, n) == (1.0, 11)
    assert pct == pytest.approx(100 / 11)

    xs = list(range(100, 0, -1))  # unsorted input
    value, pct, n = tail(xs)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(x > value for x in xs) == 10

    value, pct, n = tail([float(x) for x in range(20)])
    assert (value, pct, n) == (9.0, 50.0, 20)


def test_tail_with_other_counts_beyond():
    assert tail([3, 1, 2], beyond=1) == (2, 200 / 3, 3)


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9]) == pytest.approx((7.5 - 2.5) / 5)
