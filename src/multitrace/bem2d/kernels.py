"""Fundamental solution of -Laplace + a^2 in the plane.

The decaying fundamental solution is ``G(r) = K0(a r) / (2 pi)`` with
``K0`` the modified Bessel function of the second kind.  The singular
quadrature of ``assembly`` rests on the split of ``K0``/``K1`` into a
logarithmic part and a smooth remainder:

* ``K0(z) = -log(z) I0(z) + C0(z)``  with ``C0`` entire and even,
* ``K1(z) = 1/z + log(z) I1(z) + C1(z)``  with ``C1`` entire and odd.

At ``z = a s m`` with smooth ``m`` assembly evaluates ``C0 - log(a m) I0
= K0 + log(s) I0`` and ``C1 + log(a m) I1 + 1/z = K1 - log(s) I1``, one
K and one I per point, ``log s`` going to the log-weighted rule.
Assembly forms every kernel from shared Bessel values; their pointwise
forms are the tests' references (``tests/oracle_kernels.py``).
"""

import numpy as np
# i0, i1 stay bound for the Bessel call count of benchmarks/layers.py
from scipy.special import i0, i1, k0, k1  # noqa: F401

TWO_PI = 2.0 * np.pi
