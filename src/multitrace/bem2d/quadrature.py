"""Quadrature rules on [0, 1] used by the boundary element assembly.

Besides mapped Gauss-Legendre rules this provides a generalized Gauss
rule for the weight ``-log(x)`` on [0, 1], built at runtime from the
exact moments ``int_0^1 x^k (-log x) dx = 1/(k+1)^2`` with the Chebyshev
moment algorithm in extended precision (the raw-moment map is too
ill-conditioned for double precision beyond a handful of points).
"""

from functools import lru_cache

import mpmath
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
    """Three-term recurrence coefficients for the -log weight on [0, 1],
    at 60 digits or more: about 1.3 digits are lost per point."""
    with mpmath.workdps(max(60, 2 * n + 20)):
        moments = [mpmath.mpf(1) / (k + 1) ** 2 for k in range(2 * n)]
        alpha = [moments[1] / moments[0]]
        beta = [moments[0]]
        sigma_prev = [mpmath.mpf(0)] * (2 * n)
        sigma_cur = list(moments)
        for k in range(1, n):
            sigma_new = [mpmath.mpf(0)] * (2 * n)
            for l in range(k, 2 * n - k):
                sigma_new[l] = (sigma_cur[l + 1]
                                - alpha[k - 1] * sigma_cur[l]
                                - beta[k - 1] * sigma_prev[l])
            alpha.append(sigma_new[k + 1] / sigma_new[k]
                         - sigma_cur[k] / sigma_cur[k - 1])
            beta.append(sigma_new[k] / sigma_cur[k - 1])
            sigma_prev, sigma_cur = sigma_cur, sigma_new
        return ([float(v) for v in alpha], [float(v) for v in beta])


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
