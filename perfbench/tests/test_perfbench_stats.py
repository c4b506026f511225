"""The nearest-rank percentile and the ten-samples-beyond rule."""

import pytest

from perfbench import stats


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(list(reversed(values)), 90) == 90
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "count, percentile, expected",
    [(1000, 99, True), (999, 99, False), (1100, 99, True), (200, 95, True), (199, 95, False)],
)
def test_ten_samples_beyond(count, percentile, expected):
    assert stats.supported(count, percentile) is expected
    if expected:
        assert stats.beyond(count, percentile) >= stats.MIN_BEYOND


def test_highest_supported_percentile():
    candidates = (50.0, 95.0, 75.0, 90.0)
    assert stats.highest_supported(380, candidates) == 95.0
    assert stats.highest_supported(150, candidates) == 90.0
    assert stats.highest_supported(15, candidates) is None


def test_split_into_equal_windows():
    times = [0.0, 0.5, 1.0, 1.9, 2.0, 2.99, 3.0, -1.0]
    groups = stats.split(times, list(range(len(times))), 0.0, 3.0, 3)
    assert groups == [[0, 1, 7], [2, 3], [4, 5, 6]]
    with pytest.raises(ValueError):
        stats.split([], [], 1.0, 1.0, 3)
