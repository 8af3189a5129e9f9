import numpy as np
import pytest

import stats


@pytest.mark.parametrize("n, pct, beyond", [
    (1, 50.0, 0), (19, 50.0, 9), (20, 50.0, 10), (99, 50.0, 49),
    (100, 90.0, 10), (999, 90.0, 99), (1000, 99.0, 10), (9999, 99.0, 99),
    (10000, 99.9, 10), (30000, 99.9, 30),
])
def test_tail_percentile_has_ten_samples_beyond(n, pct, beyond):
    assert stats.tail_percentile(n) == (pct, beyond)


def test_tail_latency_reads_the_chosen_percentile():
    samples = np.arange(1, 1001, dtype=float)       # 1 .. 1000
    value, pct, beyond = stats.tail_latency(samples)
    assert (pct, beyond) == (99.0, 10)
    assert value == pytest.approx(np.percentile(samples, 99.0))
    assert np.count_nonzero(samples > value) == 10


def test_tail_percentile_rejects_empty():
    with pytest.raises(ValueError):
        stats.tail_percentile(0)
