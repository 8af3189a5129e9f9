"""Three subdomains on the line: the middle interval couples two outer
half lines through a rank-one nilpotent block, the 8x8 Jacobi operator
keeps the two-subdomain spectrum law, and vanishing relaxation gives a
direct solver in at most four steps.

Run:  python3 demos/demo_three_subdomains_line.py
"""

import numpy as np

from multitrace import line1d
from multitrace.linalg import eig_dense

a = 1.0
jl = line1d.JumpData(1.0, 0.5)
jr = line1d.JumpData(-0.3, 2.0)

print("== middle-interval projector (interfaces at -1 and 1) ==")
P0 = line1d.calderon_middle_3dom(a)
print(np.round(P0, 4))
print("  P0^2 - P0 max:", np.max(np.abs(P0 @ P0 - P0)))
R = line1d.middle_coupling_matrix(a)
P = line1d.calderon_halfline(a)
print("  coupling identities: PR =", np.max(np.abs(P @ R)),
      " RP-R =", np.max(np.abs(R @ P - R)), " R^2 =", np.max(np.abs(R @ R)))

print("\n== spectrum of the 8x8 Jacobi operator ==")
for sig in ((0.25, 0.25, 0.25), (-0.4, 1.0, 0.25)):
    op = line1d.jacobi_operator_3dom(a, *sig, jl, jr)
    w = eig_dense(op.matrix).eigenvalues
    print(f"  sigma={sig}:")
    print("   ", np.round(np.sort_complex(w), 5))

print("\n== direct solver at zero relaxation ==")
op0 = line1d.jacobi_operator_3dom(a, 0.0, 0.0, 0.0, jl, jr)
hist = line1d.block_jacobi_run(op0, np.linspace(-1, 1, 8), 5)
for k, e in enumerate(hist.errors):
    print(f"  step {k}: error {e:.2e}")
print("Convergence in at most four steps: the fourth power of the"
      "\niteration matrix vanishes identically.")
