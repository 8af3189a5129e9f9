"""Spectral radius of the block Jacobi iteration versus the relaxation
parameter: the exact curve sqrt|s/(1+s)| diverges left of -1/2,
stagnates at -1/2 and dips to zero at s = 0.  A discretized 2D operator
follows the same curve with an overshoot near zero where discretization
error dominates the vanishing exact radius.

Run:  python3 demos/demo_sigma_sweep.py
"""

import numpy as np

from multitrace import line1d, spectra
from multitrace.bem2d import KernelParams, assemble_calderon_2d, make_circle
from multitrace.linalg import eig_dense

grid = np.array([-0.9, -0.6, -0.5, -0.4, -0.2, -0.05, 0.0, 0.05,
                 0.2, 0.5, 1.0, 2.0])

zero = line1d.JumpData(0.0, 0.0)


def analytic(s):
    return eig_dense(line1d.jacobi_operator_2dom(1.0, s, s, zero).matrix
                     ).eigenvalues


mesh = make_circle(48)
par = KernelParams(1.0)
P1 = assemble_calderon_2d(mesh, par, "interior")
P2 = assemble_calderon_2d(mesh, par, "exterior")


def discrete(s):
    A, B = spectra.jacobi_2d_2dom(P1, P2, (s, s))
    return spectra.pencil_spectrum(A, B, (s, s)).eigenvalues


rows_1d = spectra.sigma_sweep(analytic, grid)
rows_2d = spectra.sigma_sweep(discrete, grid)

print(f"{'sigma':>8} {'exact':>10} {'line op':>10} {'circle op':>10} {'leftover':>9}")
for (s, r1), (_, r2) in zip(rows_1d, rows_2d):
    exact = spectra.spectral_radius_formula(s)
    print(f"{s.real:8.2f} {exact:10.4f} {r1.spectral_radius:10.4f} "
          f"{r2.spectral_radius:10.4f} {r2.remainder_fraction:9.1%}")

print("\nThe 'leftover' column is the fraction of discrete eigenvalues"
      "\nfarther than 0.05 from the predicted pair; it flags the"
      "\nnear-zero region where the discrete radius overshoots.")
