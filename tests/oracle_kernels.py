"""Pointwise reference kernels of -Laplace + a^2 in the plane.

The fundamental solution ``G(r) = K0(a r) / (2 pi)`` and its first and
second derivatives, evaluated point by point from scipy's ``k0``/``k1``.
Assembly forms the same kernels from shared Bessel values in batched
element-pair tables; these are the slow forms the tests check it against.
"""

import numpy as np
from scipy.special import k0, k1

from multitrace.bem2d.kernels import TWO_PI
from multitrace.line1d import _check_a


def kernel_2d(a, r):
    """Fundamental solution ``K0(a r) / (2 pi)`` at distance ``r > 0``."""
    a = _check_a(a)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("kernel requires strictly positive distance")
    return k0(a * r) / TWO_PI


def kernel_radial_deriv(a, r):
    """Radial derivative ``-a K1(a r) / (2 pi)`` of the kernel."""
    a = _check_a(a)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("kernel requires strictly positive distance")
    return -a * k1(a * r) / TWO_PI


def kernel_gradient_dot(a, d, r, vec):
    """``vec . grad(G)`` evaluated at offset ``d`` with ``r = |d|``; at
    ``d = x - y``, ``vec = n(y)`` it is minus the double-layer kernel."""
    return kernel_radial_deriv(a, r) * np.sum(vec * d, axis=-1) / r


def kernel_hessian_bilinear(a, d, r, nx, ny):
    """``nx^T Hess(G) ny`` at offset ``d = x - y`` with ``r = |d|``.

    The kernel of the cross-curve hypersingular blocks, where it is
    smooth; ``Hess(G) = g''(r) rhat rhat^T + g'(r)(I - rhat rhat^T)/r``.
    ``assembly.cross_block`` forms it from shared K0/K1 values; this
    pointwise form is its reference.
    """
    a = _check_a(a)
    gp = -a * k1(a * r) / TWO_PI
    gpp = a * a * (k0(a * r) + k1(a * r) / (a * r)) / TWO_PI
    nx_rhat = np.sum(nx * d, axis=-1) / r
    ny_rhat = np.sum(ny * d, axis=-1) / r
    nx_ny = np.sum(nx * ny, axis=-1)
    return gpp * nx_rhat * ny_rhat + gp * (nx_ny - nx_rhat * ny_rhat) / r
