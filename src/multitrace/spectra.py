"""Spectra of block Jacobi iteration operators and cluster diagnostics.

The iteration operator for relaxation parameters ``sigma_j`` has the
exact eigenvalues ``+-sqrt(sigma_j / (1 + sigma_j))`` in the analytic 1D
setting; discretized 2D operators cluster around the same points.  This
module forms the operators as generalized pencils (mass matrices are
never inverted), computes spectra, sweeps relaxation grids and
quantifies how much of a spectrum sits near the theoretical points.

:func:`jacobi_pencil` builds the pencil for any list of subdomain
records (a ``DiscreteCalderon`` on one curve, a ``CouplingSet`` on the
annulus); ``jacobi_2d_2dom`` and ``jacobi_2d_3dom`` are its two- and
three-subdomain forms.
"""

from dataclasses import dataclass

import numpy as np

from . import line1d
from .linalg import eig_dense, eig_generalized


@dataclass(frozen=True)
class RelaxationConfig:
    """Relaxation parameters, one per subdomain; -1 is excluded."""

    sigmas: tuple

    def __post_init__(self):
        object.__setattr__(self, "sigmas",
                           tuple(complex(s) for s in self.sigmas))
        if any(s == -1 for s in self.sigmas):
            raise ValueError("relaxation parameter -1 is not invertible")


def theoretical_points(sigmas):
    """Accumulation points ``+-sqrt(s / (1 + s))`` for each relaxation."""
    pts = []
    for s in sigmas:
        root = complex(np.sqrt(complex(s) / (1.0 + complex(s))))
        pts.extend([root, -root])
    return np.array(pts)


def spectral_radius_formula(sigma):
    """Closed-form spectral radius ``sqrt(|s / (1 + s)|)``."""
    s = complex(sigma)
    return float(np.sqrt(abs(s / (1.0 + s))))


@dataclass(frozen=True)
class ClusterReport:
    """Fraction of eigenvalues within ``eps`` of each theoretical point."""

    points: np.ndarray
    fractions: np.ndarray
    remainder: float
    eps: float


def cluster_report(eigenvalues, points, eps):
    """Per-point cluster fractions plus the fraction matching no point."""
    if eps < 0:
        raise ValueError("cluster radius must be nonnegative")
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    points = np.asarray(points, dtype=complex)
    n = len(eigenvalues)
    if n == 0:
        raise ValueError("empty spectrum")
    dist = np.abs(eigenvalues[:, None] - points[None, :])
    inside = dist <= eps
    fractions = inside.sum(axis=0) / n
    remainder = float(np.count_nonzero(~inside.any(axis=1))) / n
    return ClusterReport(points, fractions, remainder, eps)


@dataclass(frozen=True)
class SpectrumResult:
    """Spectrum of a Jacobi operator with cluster diagnostics."""

    eigenvalues: np.ndarray
    spectral_radius: float
    theoretical_points: np.ndarray
    clusters: ClusterReport

    @property
    def cluster_fractions(self):
        return self.clusters.fractions

    @property
    def remainder_fraction(self):
        return self.clusters.remainder


def summarize_spectrum(eigenvalues, sigmas, eps=0.05):
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    pts = theoretical_points(sigmas)
    rep = cluster_report(eigenvalues, pts, eps)
    return SpectrumResult(eigenvalues, float(np.max(np.abs(eigenvalues))),
                          pts, rep)


def jacobi_pencil(subdomains, sigmas):
    """Generalized pencil ``(A, B)`` of the block Jacobi operator.

    A subdomain record has ``P``, its mass-paired Calderon matrix over
    its boundary curves, the block-diagonal mass ``M_block`` and
    ``curves``, the curve meshes in trace-block order.  Unknowns follow
    the list order; every curve must bound exactly two subdomains.
    Subdomain ``j`` has the diagonal block ``(1 + s_j) M_j - P_j`` and
    reaches its neighbours' traces through ``s_j M_j X`` (``X`` negates
    the Neumann trace), or ``M_j`` and ``P_j X`` at ``s_j = 0``.
    """
    sigmas = RelaxationConfig(sigmas).sigmas
    if len(sigmas) != len(subdomains):
        raise ValueError(f"{len(subdomains)} subdomains need as many "
                         f"relaxation parameters, got {len(sigmas)}")
    starts = np.cumsum([0] + [sd.P.shape[0] for sd in subdomains])
    sides = {}              # curve id -> [(subdomain, local column, nodes)]
    for j, sd in enumerate(subdomains):
        local = 0
        for curve in sd.curves:
            sides.setdefault(id(curve), []).append((j, local, curve.n_nodes))
            local += 2 * curve.n_nodes
        if local != sd.P.shape[0]:
            raise ValueError(f"subdomain {j}: P has {sd.P.shape[0]} rows "
                             f"but its curves carry {local} traces")
    for curve_sides in sides.values():
        if len(curve_sides) != 2:
            raise ValueError(f"a curve bounds {len(curve_sides)} "
                             "subdomain(s); an interface needs exactly two")

    A = np.zeros((starts[-1], starts[-1]), dtype=complex)
    B = np.zeros_like(A)
    rows = [slice(lo, hi) for lo, hi in zip(starts[:-1], starts[1:])]
    coupling = []
    for sd, s, r in zip(subdomains, sigmas, rows):
        if s == 0:
            coupling.append(sd.P)
            B[r, r] = sd.M_block
        else:
            coupling.append(s * sd.M_block)
            B[r, r] = (1 + s) * sd.M_block - sd.P
    for curve_sides in sides.values():
        for (j, lj, n), (k, lk, _) in (curve_sides, curve_sides[::-1]):
            own = coupling[j][:, lj:lj + 2 * n]
            ck = starts[k] + lk
            A[rows[j], ck:ck + n] = own[:, :n]
            A[rows[j], ck + n:ck + 2 * n] = -own[:, n:]
    return A, B


def jacobi_2d_2dom(P1, P2, cfg):
    """Two subdomains sharing one curve: :func:`jacobi_pencil` of
    ``(P1, P2)`` with ``cfg.sigmas = (s1, s2)``."""
    return jacobi_pencil((P1, P2), cfg.sigmas)


def jacobi_2d_3dom(P1, P2, coupling, cfg):
    """Annulus between two curves: :func:`jacobi_pencil` of the subdomain
    order ``(inner, middle, outer)``; ``cfg.sigmas = (s0, s1, s2)`` lists
    the middle subdomain first, so the unknowns are ``(U1, U01, U02, U2)``."""
    s0, s1, s2 = cfg.sigmas
    return jacobi_pencil((P1, coupling, P2), (s1, s0, s2))


def pencil_spectrum(A, B, sigmas, eps=0.05):
    """Eigenvalues of the pencil with cluster diagnostics."""
    res = eig_generalized(A, B)
    return summarize_spectrum(res.eigenvalues, sigmas, eps)


def analytic_spectrum_2dom(a, sigma1, sigma2, eps=0.05):
    """Spectrum of the exact 4x4 line operator (zero jump data)."""
    op = line1d.jacobi_operator_2dom(a, sigma1, sigma2,
                                     line1d.JumpData(0.0, 0.0))
    eigs = eig_dense(op.matrix).eigenvalues
    return summarize_spectrum(eigs, (sigma1, sigma2), eps)


def analytic_spectrum_3dom(a, sigma0, sigma1, sigma2, eps=0.05):
    """Spectrum of the exact 8x8 line operator (zero jump data)."""
    zero = line1d.JumpData(0.0, 0.0)
    op = line1d.jacobi_operator_3dom(a, sigma0, sigma1, sigma2, zero, zero)
    eigs = eig_dense(op.matrix).eigenvalues
    return summarize_spectrum(eigs, (sigma0, sigma1, sigma2), eps)


@dataclass(frozen=True)
class SweepRow:
    """One relaxation grid point of a spectral radius sweep."""

    sigma: complex
    spectral_radius: float
    n_eigs: int
    cluster_fractions: np.ndarray
    remainder: float


def sigma_sweep(builder, sigma_grid, eps=0.05):
    """Spectral radius versus relaxation parameter.

    ``builder(sigma)`` must return the eigenvalue array of the Jacobi
    operator with all relaxation parameters set to ``sigma``.  Grid
    points are independent (order of evaluation is irrelevant); rows
    come back ordered by the grid.  Near ``sigma = 0`` discretized
    operators overshoot the analytic radius; the per-row remainder
    fraction quantifies that contamination and no smoothing is applied.
    """
    rows = []
    for s in sigma_grid:
        if complex(s) == -1:
            raise ValueError("sigma grid must avoid -1")
        eigs = np.asarray(builder(s), dtype=complex)
        rep = cluster_report(eigs, theoretical_points([s]), eps)
        rows.append(SweepRow(complex(s), float(np.max(np.abs(eigs))),
                             len(eigs), rep.fractions, rep.remainder))
    return rows


def write_eigenvalues_csv(path, eigenvalues):
    """Eigenvalue dump, one ``re, im`` pair per line."""
    eigs = np.asarray(eigenvalues, dtype=complex)
    with open(path, "w") as fh:
        fh.write("re,im\n")
        for lam in eigs:
            fh.write(f"{lam.real:.16e},{lam.imag:.16e}\n")


def write_sweep_csv(path, rows):
    """Sweep dump: ``sigma, rho, n_eigs, frac_cluster_*, frac_remainder``."""
    if not rows:
        raise ValueError("empty sweep")
    k = len(rows[0].cluster_fractions)
    with open(path, "w") as fh:
        frac_names = ",".join(f"frac_cluster_{i + 1}" for i in range(k))
        fh.write(f"sigma,rho,n_eigs,{frac_names},frac_remainder\n")
        for row in rows:
            sig = row.sigma.real if row.sigma.imag == 0 else row.sigma
            fracs = ",".join(f"{f:.6f}" for f in row.cluster_fractions)
            fh.write(f"{sig},{row.spectral_radius:.16e},{row.n_eigs},"
                     f"{fracs},{row.remainder:.6f}\n")
