import pytest

from run import nearest_rank, samples_beyond, tail_percentile


def test_nearest_rank_median_and_tail():
    values = list(range(1, 101))  # 1..100
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 90) == 90
    assert nearest_rank(values, 100) == 100
    assert nearest_rank([7.0], 50) == 7.0
    assert nearest_rank([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert tail_percentile(99) is None
    assert tail_percentile(100) == 90.0
    assert tail_percentile(200) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9
    assert tail_percentile(4) is None
