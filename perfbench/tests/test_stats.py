"""The percentile rule and the run aggregation."""

import pytest

from stats import (
    percentile,
    samples_beyond,
    supported,
    tail_percentile,
    variant_mean,
)


def test_percentile_interpolates_between_ranks():
    data = [float(x) for x in range(1, 11)]  # 1..10
    assert percentile(data, 0) == 1.0
    assert percentile(data, 100) == 10.0
    assert percentile(data, 50) == 5.5
    assert percentile(list(reversed(data)), 90) == pytest.approx(9.1)


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),    # even the median lacks 10 samples above it
        (20, 50.0),
        (39, 50.0),    # p75 would have 9 above it
        (40, 75.0),
        (99, 75.0),    # p90 would have 9 above it
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    samples = [float(i) for i in range(n)]
    tail = tail_percentile(samples)
    if expected is None:
        assert tail is None
        return
    p, value, count = tail
    assert p == expected
    assert count == n  # the sample count is reported with the figure
    assert value == percentile(samples, p)
    assert samples_beyond(n, p) >= 10
    assert sum(s > value for s in samples) >= 10


def test_supported_matches_rule():
    assert not supported(99, 90)
    assert supported(100, 90)
    assert supported(20, 50)


def test_variant_mean_weighs_variants_equally():
    # variant 0 ran three times, variant 1 once: each counts once
    assert variant_mean({0: [1.0, 1.0, 100.0], 1: [3.0]}) == 2.0
    with pytest.raises(ValueError):
        variant_mean({})
