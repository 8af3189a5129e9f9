"""Fundamental solution of -Laplace + a^2 in the plane and its derivatives.

The decaying fundamental solution is ``G(r) = K0(a r) / (2 pi)`` with
``K0`` the modified Bessel function of the second kind.  The singular
quadrature of ``assembly`` rests on the split of ``K0``/``K1`` into a
logarithmic part and a smooth remainder:

* ``K0(z) = -log(z) I0(z) + C0(z)``  with ``C0`` entire and even,
* ``K1(z) = 1/z + log(z) I1(z) + C1(z)``  with ``C1`` entire and odd.

At ``z = a s m`` with smooth ``m`` assembly evaluates ``C0 - log(a m) I0
= K0 + log(s) I0`` and ``C1 + log(a m) I1 + 1/z = K1 - log(s) I1``, one
K and one I per point, ``log s`` going to the log-weighted rule.
"""

import numpy as np
# i0, i1 stay bound for the Bessel call count of benchmarks/layers.py
from scipy.special import i0, i1, k0, k1  # noqa: F401

TWO_PI = 2.0 * np.pi


def _check_a(a):
    if not a > 0:
        raise ValueError(f"kernel parameter a must be positive, got {a}")
    return float(a)


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


def kernel_normal_derivative(a, x, y, normal_y):
    """Kernel of the double layer: ``d/dn(y) G(x - y)``.

    Arrays broadcast; the trailing axis holds the two coordinates.
    Equals ``a K1(a r) (n(y) . (x - y)) / (2 pi r)``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    normal_y = np.asarray(normal_y, dtype=float)
    d = x - y
    r = np.sqrt(np.sum(d * d, axis=-1))
    if np.any(r <= 0):
        raise ValueError("kernel requires distinct points")
    return -kernel_radial_deriv(a, r) * np.sum(normal_y * d, axis=-1) / r


def kernel_gradient_dot(a, d, r, vec):
    """``vec . grad(G)`` evaluated at offset ``d`` with ``r = |d|``."""
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
