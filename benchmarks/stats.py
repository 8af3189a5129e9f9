"""Tail-latency rule of the benchmark."""

import numpy as np

# Candidate tail percentiles in tenths of a percent (50, 90, 99, 99.9).
_TAIL_CANDIDATES = (500, 900, 990, 999)
MIN_BEYOND = 10


def tail_percentile(n_samples):
    """Highest candidate percentile with at least ``MIN_BEYOND`` samples
    beyond it, for ``n_samples`` samples.

    Returns the percentile (a float such as 99.0) and the number of
    samples beyond it.  Below 20 samples no candidate qualifies; the
    median is returned then, with its (smaller) count beyond.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    chosen = _TAIL_CANDIDATES[0]
    for p10 in _TAIL_CANDIDATES:
        if (1000 - p10) * n_samples >= MIN_BEYOND * 1000:
            chosen = p10
    beyond = (1000 - chosen) * n_samples // 1000
    return chosen / 10.0, beyond


def tail_latency(samples):
    """``(value, percentile, beyond)`` of the tail rule over ``samples``."""
    pct, beyond = tail_percentile(len(samples))
    return float(np.percentile(np.asarray(samples, dtype=float), pct)), pct, beyond
