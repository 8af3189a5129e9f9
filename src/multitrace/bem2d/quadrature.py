"""Quadrature rules on [0, 1] used by the boundary element assembly.

Besides mapped Gauss-Legendre rules this provides a generalized Gauss
rule for the weight ``-log(x)`` on [0, 1], built at runtime from the
exact moments ``int_0^1 x^k (-log x) dx = 1/(k+1)^2`` with the Chebyshev
moment algorithm in exact integer arithmetic (the raw-moment map is too
ill-conditioned for double precision beyond a handful of points), so
each recurrence coefficient is rounded to float once.
"""

import math
from functools import lru_cache

import numpy as np
import scipy.linalg


@lru_cache(maxsize=None)
def gauss01(n):
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    if n < 1:
        raise ValueError("need at least one quadrature point")
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def _log_weight_recurrence(n):
    """Three-term recurrence coefficients for the -log weight on [0, 1]:
    the Chebyshev moment algorithm on integers.  Row ``k`` holds the
    modified moments ``sigma[k, l]`` up to a factor of its own (the update
    is homogeneous in each row), divided by the row's gcd.  Each
    coefficient is an exact ratio of integers, rounded once by ``/``."""
    size = 2 * n
    scale = math.lcm(*range(1, size + 1)) ** 2
    cur = [scale // (l + 1) ** 2 for l in range(size)]   # scaled moments
    prev, s, t = [0] * size, 1, 0
    alpha, beta = [cur[1] / cur[0]], [cur[0] / scale]
    for k in range(1, n):
        p, r = cur[k - 1], cur[k]
        if k > 1:
            s, t = prev[k - 2], prev[k - 1]
        # sigma[k] = shifted sigma[k-1] - alpha[k-1] sigma[k-1]
        # - beta[k-1] sigma[k-2], times p * s and the factor of row k-1
        c1, c2, c3 = p * s, r * s - t * p, p * p
        new = [0] * size
        for l in range(k, size - k):
            new[l] = c1 * cur[l + 1] - c2 * cur[l] - c3 * prev[l]
        alpha.append((new[k + 1] * p - r * new[k]) / (new[k] * p))
        beta.append(new[k] / (c3 * s))
        g = math.gcd(*new)
        prev, cur = cur, [v // g for v in new]
    return alpha, beta


@lru_cache(maxsize=None)
def log_gauss01(n):
    """Nodes/weights integrating ``f(x) * (-log x)`` exactly for
    polynomials ``f`` of degree up to ``2n - 1`` on [0, 1]."""
    if n < 1:
        raise ValueError("need at least one quadrature point")
    alpha, beta = _log_weight_recurrence(n)
    if n == 1:
        return np.array([alpha[0]]), np.array([beta[0]])
    off = np.sqrt(np.array(beta[1:]))
    nodes, vecs = scipy.linalg.eigh_tridiagonal(np.array(alpha), off)
    weights = beta[0] * vecs[0, :] ** 2
    order = np.argsort(nodes)
    return nodes[order], weights[order]
