"""Correctness gates of the benchmark workloads.

Every gate is a pure function of program outputs that returns a list of
failure messages (empty when the output passes), so a perturbed input
can be shown to trip it.  The reference values (theoretical points,
radii, Bessel products) are computed here, not taken from the package
under test.  Bounds are fixed here and nowhere else.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import iv, kv

# circle-2dom: share of the fig2 spectrum within eps of +-sqrt(s/(1+s))
CLUSTER_FRAC_MIN = 0.80
# annulus-sweep: rho_h against sqrt|s/(1+s)| away from s = 0, where the
# discrete operator overshoots the analytic radius
SWEEP_RHO_TOL = 0.01
SWEEP_ZERO_NEIGHBOURHOOD = 0.25
# calderon-assembly at n = 128, a = 1: both sit at the discretization
# level, 7.118e-5 and 5.814e-5 for every quad_order from 4 to 10, so a
# quadrature change that keeps the accuracy keeps them
V_SYMMETRY_REL = 1e-13
PROJ_RESIDUAL_MAX = 9e-5
MODE_RELERR_MAX = 7.5e-5
# line-1d: exact engines
LINE_LAW_TOL = 1e-10
LINE_NILPOTENT_TOL = 1e-12
LINE_FIXED_POINT_TOL = 1e-10
SCHWARZ_DEVIATION_MAX = 1e-12
DTN_REBUILD_TOL = 1e-12


def theoretical_points(sigmas):
    """``+-sqrt(s / (1 + s))`` per relaxation parameter."""
    roots = [np.sqrt(complex(s) / (1.0 + complex(s))) for s in sigmas]
    return np.array([p for r in roots for p in (r, -r)])


def analytic_radius(sigma):
    s = complex(sigma)
    return float(np.sqrt(abs(s / (1.0 + s))))


def cluster_fraction(eigenvalues, sigmas, eps):
    """Share of eigenvalues within ``eps`` of some theoretical point."""
    eigs = np.asarray(eigenvalues, dtype=complex)
    dist = np.abs(eigs[:, None] - theoretical_points(sigmas)[None, :])
    return float(np.mean(dist.min(axis=1) <= eps))


def matched_distance(values, reference):
    """Largest distance of the optimal pairing of two complex multisets."""
    values = np.asarray(values, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    if values.shape != reference.shape:
        return float("inf")
    cost = np.abs(values[:, None] - reference[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def spectrum_2d(n_eigenvalues, expected, radius, cluster_frac=None):
    """A 2D spectrum run: eigenvalue count, finite radius and, for the
    fig2 case, the cluster share."""
    fails = []
    if n_eigenvalues != expected:
        fails.append(f"{n_eigenvalues} eigenvalues, expected {expected}")
    if not np.isfinite(radius):
        fails.append(f"spectral radius {radius} is not finite")
    if cluster_frac is not None and not cluster_frac >= CLUSTER_FRAC_MIN:
        fails.append(f"cluster_frac {cluster_frac:.4f} < {CLUSTER_FRAC_MIN}")
    return fails


def sweep_row(sigma, rho, n_eigs, expected_eigs):
    """One sweep row: eigenvalue count, the analytic radius away from
    s = 0, and divergence (rho > 1) below s = -1/2."""
    fails = []
    if n_eigs != expected_eigs:
        fails.append(f"sigma {sigma}: {n_eigs} eigenvalues, expected {expected_eigs}")
    dev = abs(rho - analytic_radius(sigma))
    if abs(sigma) > SWEEP_ZERO_NEIGHBOURHOOD and not dev <= SWEEP_RHO_TOL:
        fails.append(f"sigma {sigma}: |rho_h - rho| = {dev:.3e} > {SWEEP_RHO_TOL}")
    if sigma < -0.5 and not rho > 1.0:
        fails.append(f"sigma {sigma}: rho_h = {rho:.6f} <= 1 below -1/2")
    return fails


def calderon_accuracy(interior, exterior_same_curve, n):
    """Symmetry of V and exactness of K' = K^T from the block layout of
    two projectors on one curve with one material constant.

    ``P[:n, n:]`` is V exactly.  The interior ``P[n:, n:] = M/2 + K'``
    equals the transposed exterior ``P[:n, :n] = M/2 + K`` bit for bit
    exactly when K' is the transpose of K and M is symmetric.
    """
    fails = []
    V = interior.P[:n, n:]
    asym = float(np.max(np.abs(V - V.T)) / np.max(np.abs(V)))
    if not asym <= V_SYMMETRY_REL:
        fails.append(f"V asymmetry {asym:.3e} > {V_SYMMETRY_REL}")
    M = interior.M_block
    if not np.array_equal(M, M.T):
        fails.append("mass block is not exactly symmetric")
    if not np.array_equal(interior.P[n:, n:], exterior_same_curve.P[:n, :n].T):
        fails.append("K' differs from K^T")
    return fails


def projector_residual(P, M_block):
    """max-abs of ``P M^-1 P - P`` (the criterion-10 quantity)."""
    Q = np.linalg.solve(M_block, P)
    return float(np.max(np.abs(P @ Q - P)))


def mode_relerr(V, M, nodes, a):
    """Largest relative error of the mode-0 and mode-1 Rayleigh
    quotients of V on a centred circle against ``R I_k(aR) K_k(aR)``."""
    radius = float(np.mean(np.linalg.norm(nodes, axis=1)))
    theta = np.arctan2(nodes[:, 1], nodes[:, 0])
    worst = 0.0
    for k in (0, 1):
        phi = np.cos(k * theta)
        rq = (phi @ V @ phi) / (phi @ M @ phi)
        exact = radius * iv(k, a * radius) * kv(k, a * radius)
        worst = max(worst, abs(rq - exact) / exact)
    return float(worst)


def accuracy_bounds(proj_residual, mode_err):
    fails = []
    if not proj_residual <= PROJ_RESIDUAL_MAX:
        fails.append(f"proj_residual {proj_residual:.4e} > {PROJ_RESIDUAL_MAX}")
    if not mode_err <= MODE_RELERR_MAX:
        fails.append(f"mode_relerr {mode_err:.4e} > {MODE_RELERR_MAX}")
    return fails


def line_point(eigenvalues, sigmas, history_errors, fixed_point_residual):
    """A 1D Jacobi point: the spectrum law away from s = 0, nilpotency
    (2 steps for two subdomains, 4 for three) at s = 0, and the fixed
    point equation."""
    fails = []
    if all(s == 0 for s in sigmas):
        steps = 2 if len(sigmas) == 2 else 4
        err = float(history_errors[steps])
        if not err <= LINE_NILPOTENT_TOL:
            fails.append(f"sigma = 0: error {err:.3e} after {steps} steps")
    else:
        ref = theoretical_points(sigmas)
        if len(sigmas) == 3:             # middle subdomain counts twice
            ref = np.concatenate([theoretical_points(sigmas[:1]), ref])
        dist = matched_distance(eigenvalues, ref)
        if not dist <= LINE_LAW_TOL:
            fails.append(f"sigma {sigmas}: spectrum law off by {dist:.3e}")
    if not fixed_point_residual <= LINE_FIXED_POINT_TOL:
        fails.append(f"fixed point residual {fixed_point_residual:.3e}")
    return fails


def interval_point(max_deviation, rebuild_residual):
    fails = []
    if not max_deviation <= SCHWARZ_DEVIATION_MAX:
        fails.append(f"Schwarz/Jacobi deviation {max_deviation:.3e}")
    if not rebuild_residual <= DTN_REBUILD_TOL:
        fails.append(f"DtN projector rebuild off by {rebuild_residual:.3e}")
    return fails
