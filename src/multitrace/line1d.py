"""Exact multitrace machinery on the real line for -u'' + a^2 u = 0.

Solutions decaying at infinity admit closed-form representation through
the Green's function ``g(x) = exp(-a|x|) / (2a)``.  This module builds,
without any discretization:

* the 2x2 Calderon projectors of the two half lines and the 4x4
  projector of a middle interval, as plain arrays,
* the multitrace system of a line of subdomains listed left to right,
  coupling per-subdomain trace pairs with relaxation parameters
  (:func:`assemble_mtf`), and its block Jacobi iteration operator
  (:func:`jacobi_operator`); ``jacobi_operator_2dom`` and
  ``jacobi_operator_3dom`` are adapters to the latter.

Relaxation parameters are checked in one place, :func:`_check_sigmas`,
which every engine of the package calls: -1 makes a diagonal block
singular, and they must be finite.

Trace convention: each subdomain carries the pair
``(u, outward normal derivative)`` on its interface side, so the
half line to the right of an interface stores ``(u(x0+), -u'(x0+))``
and the one to the left stores ``(u(x0-), +u'(x0-))``.  Jump data
``(alpha, beta)`` is oriented right minus left:
``alpha = u(x0+) - u(x0-)``, ``beta = -u'(x0+) + u'(x0-)``.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .linalg import solve_dense

# Sign-flip matrix exchanging trace conventions across an interface.
X2 = np.array([[1.0, 0.0], [0.0, -1.0]])


@dataclass(frozen=True)
class JumpData:
    """Prescribed solution jump ``alpha`` and derivative jump ``beta``."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (abs(self.alpha) < np.inf and abs(self.beta) < np.inf):
            raise ValueError("jump data must be finite")


@dataclass(frozen=True)
class MtfSystem:
    """Linear multitrace system ``system_matrix @ U = rhs``."""

    system_matrix: np.ndarray
    rhs: np.ndarray
    sigmas: tuple

    def solve(self):
        return solve_dense(self.system_matrix, self.rhs)


@dataclass(frozen=True)
class JacobiOperator1D:
    """Iteration ``U <- matrix @ U + rhs_tilde`` and its metadata."""

    matrix: np.ndarray
    rhs_tilde: np.ndarray
    sigmas: tuple

    @cached_property
    def fixed_point(self):
        """See :func:`jacobi_fixed_point`."""
        J, F = self.matrix, self.rhs_tilde
        if any(self.sigmas):
            U = solve_dense(_layout(len(F)).eye - J, F, "Id - J")
        else:
            # exact for nilpotent J; at the Schwarz equivalence check's
            # points (sigma = 0, F = 0) it returns after one matvec
            U, term = np.zeros(len(F), dtype=complex), F
            for _ in range(len(F)):
                U, term = U + term, J @ term
                if not term.any():
                    break
        U.flags.writeable = False
        return U


def _check_a(a):
    # a Python float is real: np.isrealobj, the slow part, is skipped
    if not ((type(a) is float or np.isrealobj(a)) and 0 < a < np.inf):
        raise ValueError(f"material constant a must be finite and positive, "
                         f"got {a}")
    return float(a)


def _check_sigmas(sigmas):
    sigmas = tuple(map(complex, sigmas))
    for s in sigmas:
        if s == -1:
            raise ValueError("relaxation parameter -1 makes a diagonal block singular")
        if not (abs(s.real) < np.inf and abs(s.imag) < np.inf):
            raise ValueError(f"relaxation parameter {s} is not finite")
    return sigmas


def green_1d(a, x):
    """Decaying fundamental solution ``exp(-a|x|) / (2a)``."""
    a = _check_a(a)
    return np.exp(-a * np.abs(x)) / (2.0 * a)


def calderon_halfline(a):
    """Calderon projector of a half line, ``(Id + A)/2`` with ``A^2 = Id``.

    ``A = [[0, 1/a], [a, 0]]``; the projector is the same matrix for the
    left and the right half line thanks to the trace sign convention.
    """
    a = _check_a(a)
    return np.array([[0.5, 1.0 / a / 2.0], [a / 2.0, 0.5]])


def middle_coupling_matrix(a):
    """Rank-one nilpotent coupling block R with P R = 0, R P = R, R^2 = 0."""
    a = _check_a(a)
    return np.array([[0.5, 0.5 / a], [-0.5 * a, -0.5]])


def calderon_middle_3dom(a, interfaces=(-1.0, 1.0)):
    """4x4 Calderon projector of a middle interval.

    Block form ``[[P, 2a*g*R], [2a*g*R, P]]`` with ``P`` the half-line
    projector, ``R`` the nilpotent coupling block and ``g`` the Green's
    function evaluated at the interface distance.
    """
    a = _check_a(a)
    xl, xr = interfaces
    if not xr > xl:
        raise ValueError("interfaces must satisfy x_left < x_right")
    g = green_1d(a, xr - xl)
    P0 = np.empty((4, 4))
    P0[:2, :2] = P0[2:, 2:] = calderon_halfline(a)
    P0[:2, 2:] = P0[2:, :2] = 2.0 * a * g * middle_coupling_matrix(a)
    return P0


_Layout = namedtuple("_Layout", "shapes blocks owner jump flip same_block "
                                 "swap sign eye")


@lru_cache
def _layout(n):
    """Read-only tables of a line of ``n = 4 (k - 1)`` unknowns, built once:
    the ``shapes`` and ``blocks`` (slices) of the k projectors, and per
    unknown its ``owner`` subdomain and ``jump`` datum, ``flip`` -1 on an
    alpha left of an interface.  Interface ``i`` carries trace blocks
    ``2i`` (its left side) and ``2i+1``, each an ``(u, outward
    derivative)`` pair, so unknown ``t`` is in 2x2 block ``t // 2``
    (``same_block``) and ``E`` swaps it with ``t ^ 2`` (``swap``) through
    ``X2`` (``sign``).  Tables met by complex operands are complex, so no
    operation mixes types."""
    k = n // 4 + 1
    sizes = [2] + [4] * (k - 2) + [2]
    ends = np.cumsum(sizes).tolist()
    t = np.arange(n)
    layout = _Layout([(s, s) for s in sizes],
                     tuple(slice(e - s, e) for s, e in zip(sizes, ends)),
                     np.repeat(np.arange(k), sizes), 2 * (t // 4) + t % 2,
                     np.where(t % 4, 1.0, -1.0),
                     (t[:, None] // 2 == t // 2).astype(complex), t ^ 2,
                     np.tile(X2.diagonal(), n // 2).astype(complex),
                     np.eye(n, dtype=complex))
    for table in layout[2:]:
        table.flags.writeable = False
    return layout


def _line(projectors, sigmas, data):
    """Complex block-diagonal projector, relaxation and jump data per
    unknown, checked relaxation per subdomain, and ``_layout``."""
    mats = [np.asarray(p, dtype=float) for p in projectors]
    sigmas = _check_sigmas(sigmas)
    k = len(mats)
    if k < 2 or len(sigmas) != k:
        raise ValueError(f"a line needs at least two subdomains and one "
                         f"relaxation parameter each, got {k} and "
                         f"{len(sigmas)}")
    n = 4 * (k - 1)
    layout = _layout(n)
    if [m.shape for m in mats] != layout.shapes:
        raise ValueError(f"a line needs 2x2 projectors at both ends and 4x4 "
                         f"ones in between, got {[m.shape for m in mats]}")
    jumps = np.asarray(data, dtype=float)
    if jumps.shape != (k - 1, 2):
        raise ValueError(f"need (alpha, beta) at each of the {k - 1} "
                         f"interface(s), got shape {jumps.shape}")
    P = np.zeros((n, n), dtype=complex)
    for m, block in zip(mats, layout.blocks):
        P[block, block] = m
    # left side of an interface carries (-alpha, beta)
    d = (jumps.take(layout.jump) * layout.flip).astype(complex)
    return P, np.array(sigmas).take(layout.owner), d, sigmas, layout


def assemble_mtf(projectors, sigmas, data):
    """Multitrace system of a line of subdomains listed left to right.

    ``projectors`` are the subdomain Calderon projectors: 2x2 for the
    half lines at both ends (:func:`calderon_halfline`), 4x4 for each
    interval in between (:func:`calderon_middle_3dom`); ``sigmas`` has
    one relaxation parameter per subdomain and ``data`` one jump
    ``(alpha, beta)`` per interface, oriented right minus left.  With
    ``S`` the per-trace relaxation, ``P`` the block-diagonal projector
    and ``E`` the interface swap, the system is
    ``M = diag(1+S) - P - S E`` and ``rhs = S * d``, where the trace data
    ``d`` is ``(-alpha, beta)`` left of an interface and ``(alpha, beta)``
    right of it.  At vanishing relaxation the system loses the jump data.
    """
    P, S, d, sigmas, _ = _line(projectors, sigmas, data)
    n = len(S)
    blocks = np.arange(n // 2)
    M = -P
    M[np.diag_indices(n)] += 1 + S
    M.reshape(n // 2, 2, n // 2, 2)[blocks, :, blocks ^ 1, :] = (
        -S[::2, None, None] * X2)
    return MtfSystem(M, S * d, sigmas)


def jacobi_operator(projectors, sigmas, data):
    """Block Jacobi operator of :func:`assemble_mtf`, per 2x2 trace block.

    Inverting the 2x2 diagonal blocks ``(1+s) Id - D`` of the system in
    closed form gives ``J = ((S Id + D) E + (P - D)) / (1+S)`` and
    ``F = (S Id + D) d / (1+S)``.  Because each block ``D`` is a projector
    and ``D (P - D) = 0``, this holds at ``sigma = 0`` too (no division
    by ``s``), where ``J`` is nilpotent of order ``2 (k - 1)`` for ``k``
    subdomains.  The returned arrays are read-only.
    """
    P, S, d, sigmas, layout = _line(projectors, sigmas, data)
    D = P * layout.same_block
    Q = D + np.diag(S)
    J = P - D
    J += Q.take(layout.swap, axis=1) * layout.sign
    scale = 1 + S
    J /= scale[:, None]
    F = Q @ d / scale
    J.flags.writeable = F.flags.writeable = False
    return JacobiOperator1D(J, F, sigmas)


def jacobi_operator_2dom(a, sigma1, sigma2, jump):
    """:func:`jacobi_operator` of the two half lines meeting at ``jump``."""
    P = calderon_halfline(a)
    return jacobi_operator([P, P], (sigma1, sigma2), [(jump.alpha, jump.beta)])


def _line_3dom(a, sigma0, sigma1, sigma2, jump_left, jump_right):
    """Left-to-right line arguments of a middle interval ``0`` on
    ``(-1, 1)`` between half lines ``1`` and ``2``; the right jump is
    oriented middle-minus-right, so its ``alpha`` flips sign."""
    middle = calderon_middle_3dom(a)
    P = middle[:2, :2]          # the half-line projector
    return ([P, middle, P], (sigma1, sigma0, sigma2),
            [(jump_left.alpha, jump_left.beta),
             (-jump_right.alpha, jump_right.beta)])


def jacobi_operator_3dom(a, sigma0, sigma1, sigma2, jump_left, jump_right):
    """8x8 :func:`jacobi_operator` with unknowns ``(U1, U01, U02, U2)``,
    nilpotent of order four at sigma = 0."""
    return jacobi_operator(*_line_3dom(a, sigma0, sigma1, sigma2, jump_left,
                                       jump_right))


def jacobi_fixed_point(op):
    """Exact fixed point of ``U = J U + F``, as a read-only array.

    Solved directly when ``Id - J`` is safely invertible; in the
    vanishing-relaxation case the nilpotent iteration is summed to
    completion instead (``sum_k J^k F`` terminates exactly).  Either
    runs once per operator, whose arrays are read-only.
    """
    return op.fixed_point


@dataclass(frozen=True)
class JacobiHistory:
    """Iterates and error norms of a block Jacobi run."""

    iterates: np.ndarray        # shape (n_steps + 1, dim)
    errors: np.ndarray          # max-norm distance to the fixed point
    fixed_point: np.ndarray


def block_jacobi_run(op, U0, n_steps):
    """Run ``U <- J U + F`` for ``n_steps`` steps from ``U0``.

    Returns the iterate history together with max-norm errors against
    the exact fixed point.
    """
    U0 = np.asarray(U0, dtype=complex)
    if U0.shape != (op.matrix.shape[0],):
        raise ValueError(
            f"start vector has shape {U0.shape}, expected ({op.matrix.shape[0]},)"
        )
    star = jacobi_fixed_point(op)
    iters = np.empty((max(n_steps, 0) + 1, len(U0)), dtype=complex)
    iters[0] = U0
    for previous, row in zip(iters, iters[1:]):
        np.dot(op.matrix, previous, out=row)
        row += op.rhs_tilde
    errors = np.abs(iters - star).max(axis=1)
    return JacobiHistory(iters, errors, star)
