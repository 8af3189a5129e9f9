"""Test helpers shared across the suite."""

import numpy as np
from scipy.optimize import linear_sum_assignment


def match_multisets(values, reference, tol, label=""):
    """Assert two complex multisets agree within ``tol`` by optimal pairing.

    Returns the maximum matched distance.  Uses a minimax assignment so
    the comparison is robust to ordering of nearly-tied values.
    """
    values = np.asarray(values, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    if values.shape != reference.shape:
        raise ValueError(
            f"multiset sizes differ{': ' + label if label else ''}: "
            f"{values.shape} vs {reference.shape}"
        )
    cost = np.abs(values[:, None] - reference[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max()) if values.size else 0.0
    if worst > tol:
        raise AssertionError(
            f"multisets differ{': ' + label if label else ''}: "
            f"max matched distance {worst:.3e} > {tol:.1e}"
        )
    return worst


def trace_flip(n):
    """Dense matrix of the trace flip (v, q) -> (v, -q) on n nodes."""
    return np.diag(np.r_[np.ones(n), -np.ones(n)])
