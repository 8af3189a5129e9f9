"""Spectra of block Jacobi iteration operators and cluster diagnostics.

The iteration operator for relaxation parameters ``sigma_j`` has the
exact eigenvalues ``+-sqrt(sigma_j / (1 + sigma_j))`` in the analytic 1D
setting; discretized 2D operators cluster around the same points, and
:func:`summarize_spectrum` measures how much of a spectrum sits near
them, for every spectrum and every point of a relaxation sweep.

The Jacobi operator is two-cyclic, so :func:`jacobi_pencil` returns the
half-size red pencil of its square for any list of subdomain records,
and :func:`pencil_eigenvalues` takes ``+-sqrt`` of its eigenvalues;
``jacobi_2d_2dom`` and ``jacobi_2d_3dom`` are its two- and
three-subdomain forms.

When both sides of one curve come from one operator set (one mesh, one
``KernelParams``), ``P_int + X P_ext X = M_block`` holds exactly, X the
Neumann flip.  Both Calderon matrices are then diagonal in the
eigenbasis of ``(P_int, M_block)``, with eigenvalues ``q`` and ``1 - q``,
and so is the red pencil: :func:`calderon_map` builds it from the ``q``
that :func:`calderon_eigenvalues` solves once for every relaxation pair.
Sides with different material constants, and the annulus, share no
eigenbasis and keep the pencil.  On curves that turn about one centre,
``q`` and the pencil split into Fourier modes (:func:`_symbols`).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import line1d
from .bem2d.mesh import common_rotation_order
from .linalg import _check_lu, _check_pivots, eig_generalized, solve_dense


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


def cluster_report(eigenvalues, points, eps):
    """Fraction of eigenvalues within ``eps`` of each point, and the
    fraction within ``eps`` of none, as ``(fractions, remainder)``."""
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
    return fractions, remainder


@dataclass(frozen=True)
class SpectrumResult:
    """Spectrum of a Jacobi operator with cluster diagnostics."""

    eigenvalues: np.ndarray
    spectral_radius: float
    theoretical_points: np.ndarray
    cluster_fractions: np.ndarray
    remainder_fraction: float


def summarize_spectrum(eigenvalues, sigmas, eps=0.05):
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    pts = theoretical_points(sigmas)
    return SpectrumResult(eigenvalues, float(np.max(np.abs(eigenvalues))),
                          pts, *cluster_report(eigenvalues, pts, eps))


def _two_colouring(n_subdomains, sides):
    """Red (0) / black (1) colour per subdomain, neighbours across every
    curve coloured apart; subdomain 0 and the first of every further
    component are red."""
    neighbours = [[] for _ in range(n_subdomains)]
    for (j, _, _), (k, _, _) in sides.values():
        neighbours[j].append(k)
        neighbours[k].append(j)
    colour = [None] * n_subdomains
    for root in range(n_subdomains):
        if colour[root] is not None:
            continue
        colour[root], stack = 0, [root]
        while stack:
            j = stack.pop()
            for k in neighbours[j]:
                if colour[k] is None:
                    colour[k] = 1 - colour[j]
                    stack.append(k)
                elif colour[k] == colour[j]:
                    raise ValueError(
                        f"subdomains {j} and {k} share a curve but close an "
                        "odd cycle; the Jacobi operator is not two-cyclic")
    return colour


def _relaxations(count, sigmas):
    """``line1d._check_sigmas`` of one relaxation parameter per subdomain
    of ``count``."""
    sigmas = line1d._check_sigmas(sigmas)
    if len(sigmas) != count:
        raise ValueError(f"{count} subdomains need as many relaxation "
                         f"parameters, got {len(sigmas)}")
    return sigmas


def _symbols(X, curves, g, fft):
    """Symbols ``(modes, r, r)`` of the first ``n / g`` rows ``X`` of each
    trace block of ``curves``, block circulant as the turn of order ``g``
    moves each block by ``n / g`` nodes: mode k is ``sum_d X_0d exp(-2 pi
    i d k / g)`` over the first sector's blocks, by ``fft`` (``np.fft.rfft``
    gives modes 0 .. g // 2, mode ``g - k`` being their conjugate)."""
    per = np.repeat([c.n_nodes // g for c in curves], 2)  # of each block
    first = np.flatnonzero(np.concatenate([np.arange(g * p) < p for p in per]))
    cols = first + np.repeat(per, per) * np.arange(g)[:, None]     # (g, r)
    return fft(X[:, cols], axis=1).transpose(1, 0, 2)


def jacobi_pencil(subdomains, sigmas):
    """Half-size pencil ``(A, B)`` whose eigenvalues are the squares of
    the block Jacobi spectrum.

    A subdomain record has ``P``, its mass-paired Calderon matrix over
    its boundary curves, the block-diagonal mass ``M_block``, ``curves``,
    the curve meshes in trace-block order, and at g > 1 (below) ``rows(g)``,
    the first ``n / g`` rows of each trace block of both.  Every curve must
    bound exactly two subdomains.  Subdomain ``j`` has the diagonal block
    ``B_j = (1 + s_j) M_j - P_j`` and reaches its neighbours' traces
    through ``s_j M_j X`` (``X`` negates the Neumann trace), or ``M_j``
    and ``P_j X`` at ``s_j = 0``.

    The subdomains are coloured red and black so that every curve
    separates the two colours (a ``ValueError`` if an odd cycle makes
    that impossible).  The Jacobi operator of the full pencil then maps
    red traces to black ones and back, and its spectrum is
    ``+-sqrt(mu)`` for the eigenvalues ``mu`` of the returned red pencil
    ``(A_RK B_K^{-1} A_KR, B_R)``; each curve carries as many red traces
    as black ones, so both halves have the same size.  Red unknowns
    follow the list order of the red subdomains, then their curves.  The
    matrices are real when every relaxation parameter is.

    Curves turning about one centre with a common rotation order ``g >
    1`` (``bem2d.mesh.common_rotation_order``) give ``(g, r, r)`` stacks,
    the same layout on the Fourier modes of :func:`_symbols`: modes 0 ..
    g // 2 and their conjugates for real relaxation parameters, else all
    g.  A singular diagonal block raises ``SingularMatrixError`` naming
    it, and its mode on a stack.
    """
    sigmas = [s.real if s.imag == 0 else s
              for s in _relaxations(len(subdomains), sigmas)]
    sides = {}              # id(curve) -> [(subdomain, local column, nodes)]
    for j, sd in enumerate(subdomains):
        local = 0
        for curve in sd.curves:
            sides.setdefault(id(curve), []).append((j, local, curve.n_nodes))
            local += 2 * curve.n_nodes
    for curve_sides in sides.values():
        if len(curve_sides) != 2:
            raise ValueError(f"a curve bounds {len(curve_sides)} "
                             "subdomain(s); an interface needs exactly two")
    colour = _two_colouring(len(subdomains), sides)

    g = common_rotation_order(c for sd in subdomains for c in sd.curves)
    real = all(np.isrealobj(s) for s in sigmas)
    fft = np.fft.rfft if real else np.fft.fft
    P, M = [], []
    for j, sd in enumerate(subdomains):
        X = (sd.P, sd.M_block) if g == 1 else sd.rows(g)
        local = 2 * sum(c.n_nodes for c in sd.curves)
        if X[0].shape[1] != local:
            raise ValueError(f"subdomain {j}: the rows of P have "
                             f"{X[0].shape[1]} columns but its curves "
                             f"carry {local} traces")
        for out, Y in zip((P, M), X):
            out.append(Y if g == 1 else _symbols(Y, sd.curves, g, fft))
    rows, ends = [], [0, 0]         # unknowns of each subdomain in its half
    for P_j, c in zip(P, colour):
        rows.append(slice(ends[c], ends[c] + P_j.shape[-1]))
        ends[c] += P_j.shape[-1]
    diagonal, exchange = [], []
    for M_j, P_j, s in zip(M, P, sigmas):
        if s == 0:
            exchange.append(P_j)
            diagonal.append(M_j)
        else:
            exchange.append(s * M_j)
            diagonal.append((1 + s) * M_j - P_j)
    # coupling[c]: rows of colour c, columns of the other colour
    coupling = [np.zeros((*P[0].shape[:-2], ends[c], ends[1 - c]),
                         np.result_type(*exchange)) for c in (0, 1)]
    for curve_sides in sides.values():
        for (j, lj, n), (k, lk, _) in (curve_sides, curve_sides[::-1]):
            lj, lk, n = lj // g, lk // g, n // g        # per sector
            own = exchange[j][..., lj:lj + 2 * n]
            ck = rows[k].start + lk
            block = coupling[colour[j]][..., rows[j], :]
            block[..., ck:ck + n] = own[..., :n]
            block[..., ck + n:ck + 2 * n] = -own[..., n:]
    A_RK, A_KR = coupling
    for j, c in enumerate(colour):          # A_KR <- B_K^{-1} A_KR
        name = f"the diagonal block of subdomain {j}"
        if c == 1:
            A_KR[..., rows[j], :] = solve_dense(
                diagonal[j], A_KR[..., rows[j], :], name)
        else:
            _check_lu(diagonal[j], name)
    A = A_RK @ A_KR
    B_R = scipy.linalg.block_diag(*(d for d, c in zip(diagonal, colour)
                                    if c == 0))
    if g > 1 and real:
        A, B_R = (np.concatenate([X, X[1:(g + 1) // 2][::-1].conj()])
                  for X in (A, B_R))
    return A, B_R


def calderon_eigenvalues(interior):
    """Eigenvalues ``q`` of ``(P_int, M_block)``, for :func:`calderon_map`:
    of the modes 0 .. m // 2 of :func:`_symbols`, then the conjugates of
    the others, on a mesh of rotation order m > 1; else of one pencil."""
    m = interior.mesh.rotation_order
    if m == 1:
        return eig_generalized(interior.P, interior.M_block).eigenvalues
    q = eig_generalized(*(_symbols(X, interior.curves, m, np.fft.rfft)
                          for X in interior.rows(m))).eigenvalues
    return np.concatenate([q, q[1:(m + 1) // 2].conj()]).ravel()


def calderon_map(q1, q2, sigmas):
    """:func:`jacobi_pencil` of two subdomains whose Calderon matrices are
    ``diag(q_j)`` against a unit mass: the diagonal pencil ``A = e_1 e_2 /
    d_2``, ``B = d_1`` with ``d_j = 1 + s_j - q_j`` and ``e_j = s_j``, or
    ``d_j = 1`` and ``e_j = q_j`` at ``s_j = 0``.  A ``d_j`` failing the
    pivot rule of the pencil's LU raises ``SingularMatrixError``."""
    blocks = []
    for j, (q, s) in enumerate(zip((q1, q2), _relaxations(2, sigmas))):
        diagonal = np.ones_like(q) if s == 0 else 1 + s - q
        _check_pivots(np.abs(diagonal), f"the diagonal block of subdomain {j}")
        blocks.append((q if s == 0 else s, diagonal))
    (e1, d1), (e2, d2) = blocks
    return e1 * e2 / d2, d1


def jacobi_2d_2dom(P1, P2, sigmas):
    """Two subdomains sharing one curve: :func:`jacobi_pencil` of
    ``(P1, P2)`` with ``sigmas = (s1, s2)``, or :func:`calderon_map` when
    ``P1`` and ``P2`` are eigenvalue arrays."""
    if isinstance(P1, np.ndarray):
        return calderon_map(P1, P2, sigmas)
    return jacobi_pencil((P1, P2), sigmas)


def jacobi_2d_3dom(P1, P2, coupling, sigmas):
    """Annulus between two curves: :func:`jacobi_pencil` of the subdomain
    order ``(inner, middle, outer)``; ``sigmas = (s0, s1, s2)`` lists the
    middle subdomain first, so the unknowns are ``(U1, U01, U02, U2)``."""
    s0, s1, s2 = sigmas
    return jacobi_pencil((P1, coupling, P2), (s1, s0, s2))


def pencil_eigenvalues(A, B):
    """Jacobi spectrum ``+-sqrt(mu)``, ``mu`` the red pencil's eigenvalues
    (of every mode of a stack); a diagonal pencil (:func:`calderon_map`)
    needs no eigensolve."""
    mu = A / B if np.ndim(A) == 1 else eig_generalized(A, B).eigenvalues
    roots = np.sqrt(mu.astype(complex).ravel())
    return np.concatenate([roots, -roots])


def pencil_spectrum(A, B, sigmas, eps=0.05):
    """:func:`pencil_eigenvalues` with cluster diagnostics."""
    return summarize_spectrum(pencil_eigenvalues(A, B), sigmas, eps)


def sigma_sweep(builder, sigma_grid, eps=0.05):
    """Spectral radius versus relaxation parameter.

    ``builder(sigma)`` must return the eigenvalue array of the Jacobi
    operator with all relaxation parameters set to ``sigma``; a grid
    holding -1 raises before any point is built.  Returns one pair
    ``(sigma, SpectrumResult)`` per grid point, in grid order, the result
    from :func:`summarize_spectrum`.  Near ``sigma = 0`` discretized
    operators overshoot the analytic radius; the remainder fraction
    quantifies that contamination and no smoothing is applied.
    """
    line1d._check_sigmas(sigma_grid)
    return [(complex(s), summarize_spectrum(builder(s), [s], eps))
            for s in sigma_grid]
