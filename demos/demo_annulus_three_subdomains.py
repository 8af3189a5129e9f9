"""Three subdomains in the plane: a disk, an annulus and the unbounded
exterior, meeting along two disjoint circles.  The middle-subdomain
projector splits into self blocks plus cross-curve couplings whose
products annihilate; the Jacobi spectrum clusters at one pair of points
for equal relaxation and three pairs for distinct relaxation.

Run:  python3 demos/demo_annulus_three_subdomains.py [n_per_curve]
"""

import sys

import numpy as np
import scipy.linalg

from multitrace import spectra
from multitrace.bem2d import (KernelParams, assemble_calderon_2d,
                              assemble_coupling, make_three_domain)

n = int(sys.argv[1]) if len(sys.argv) > 1 else 48
par = KernelParams(1.0)
inner, outer = make_three_domain(n, n)
print(f"curves: {inner.n_elements} + {outer.n_elements} elements, "
      f"radii 0.5 and 1.0")

P1 = assemble_calderon_2d(inner, par, "interior")
P2 = assemble_calderon_2d(outer, par, "exterior")
coupling = assemble_coupling(inner, outer, par)

Q12 = scipy.linalg.solve(coupling.P1_tilde.M_block, coupling.R12)
Q21 = scipy.linalg.solve(coupling.P2_tilde.M_block, coupling.R21)
print("cross-coupling products (must annihilate):")
print("  |R12 R21| =", f"{np.linalg.norm(Q12 @ Q21, 2):.2e}",
      "  |R21 R12| =", f"{np.linalg.norm(Q21 @ Q12, 2):.2e}")

for sig in ((0.25, 0.25, 0.25), (-0.4, 1.0, 0.25)):
    A, B = spectra.jacobi_2d_3dom(P1, P2, coupling, sig)
    res = spectra.pencil_spectrum(A, B, sig, eps=0.1)
    pts = np.unique(np.round(res.theoretical_points, 5))
    print(f"\nsigma = {sig}:")
    print("  predicted accumulation points:", pts)
    print(f"  spectral radius {res.spectral_radius:.4f}, "
          f"{1 - res.remainder_fraction:.1%} of eigenvalues within 0.1")
    if len(set(np.round(sig, 10))) == 1:
        lam2 = res.eigenvalues ** 2
        s = sig[0]
        near = np.mean(np.abs(lam2 - s / (1 + s)) < 0.1)
        print(f"  squared spectrum concentrates at {s/(1+s):.4f}: "
          f"{near:.1%} within 0.1")
