"""Walk through the exact machinery on the real line.

A transmission problem prescribes jumps (alpha, beta) of the solution and
its derivative across the origin.  This script builds the solution by the
representation formula, inspects the Calderon projector of a half line,
assembles the relaxed multitrace system, and shows how the block Jacobi
iteration behaves as the relaxation parameter moves: contraction for
sigma > -1/2, stagnation at -1/2, and exact convergence in two steps at
sigma = 0 where the iteration matrix is nilpotent.

Run:  python3 demos/demo_line_transmission.py
"""

import numpy as np

from multitrace import line1d
from multitrace.linalg import eig_dense

a = 1.0
jump = line1d.JumpData(alpha=1.0, beta=2.0)

print("== representation formula ==")
u = line1d.represent_1d(a, jump)
for x in (-1.5, -0.5, 0.5, 1.5):
    print(f"  u({x:+.1f}) = {u(x):+.6f}")
print("  decay: u(8) =", f"{u(8.0):.2e}")

print("\n== Calderon projector of a half line ==")
P = line1d.calderon_halfline(a)
print(P)
print("  P^2 - P max:", np.max(np.abs(P @ P - P)))

print("\n== multitrace system, sigma = (0.4, 0.9) ==")
system = line1d.assemble_mtf([P, P], (0.4, 0.9), [(jump.alpha, jump.beta)])
U = system.solve()
print("  traces U1 =", np.round(U[:2].real, 6), " U2 =", np.round(U[2:].real, 6))
print("  jump recovery U1 - X U2 =",
      np.round((U[:2] - line1d.X2 @ U[2:]).real, 12), " (expect (-alpha, beta))")

print("\n== block Jacobi convergence versus relaxation ==")
for s in (0.4, 0.1, 0.0, -0.5, -0.6):
    op = line1d.jacobi_operator_2dom(a, s, s, jump)
    rho = np.max(np.abs(eig_dense(op.matrix).eigenvalues))
    hist = line1d.block_jacobi_run(op, np.ones(4), 8)
    tail = " ".join(f"{e:.1e}" for e in hist.errors[:5])
    print(f"  sigma={s:+.1f}: rho={rho:.4f}  errors: {tail}")

print("\nAt sigma = 0 the error dies after two steps: the iteration is a"
      "\ndirect solver, and the fixed point solves the multitrace system.")
