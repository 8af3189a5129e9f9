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
singular.

Trace convention: each subdomain carries the pair
``(u, outward normal derivative)`` on its interface side, so the
half line to the right of an interface stores ``(u(x0+), -u'(x0+))``
and the one to the left stores ``(u(x0-), +u'(x0-))``.  Jump data
``(alpha, beta)`` is oriented right minus left:
``alpha = u(x0+) - u(x0-)``, ``beta = -u'(x0+) + u'(x0-)``.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

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
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
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
            U = solve_dense(np.eye(len(F)) - J, F, "Id - J")
        else:
            # exact for nilpotent J; at the Schwarz equivalence check's
            # points (sigma = 0, F = 0) it returns after one matvec, and an
            # LU solve here made the line-1d benchmark workload 3% slower
            U, term = np.zeros(len(F), dtype=complex), F
            for _ in range(len(F)):
                U, term = U + term, J @ term
                if not np.any(term):
                    break
        U.flags.writeable = False
        return U


def _check_a(a):
    if not (np.isrealobj(a) and 0 < a < np.inf):
        raise ValueError(f"material constant a must be finite and positive, "
                         f"got {a}")
    return float(a)


def _check_sigmas(sigmas):
    sigmas = tuple(complex(s) for s in sigmas)
    for s in sigmas:
        if s == -1:
            raise ValueError("relaxation parameter -1 makes a diagonal block singular")
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
    A = np.array([[0.0, 1.0 / a], [a, 0.0]])
    return (np.eye(2) + A) / 2.0


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


class _Line(NamedTuple):
    """Trace layout of a line of subdomains listed left to right.

    Interface ``i`` carries trace block ``2i`` (its left side) and
    ``2i+1`` (its right side), each an ``(u, outward derivative)`` pair,
    so ``E`` swaps blocks ``2i <-> 2i+1`` through ``X2``.
    """

    P: np.ndarray       # block-diagonal projector, one block per subdomain
    S: np.ndarray       # relaxation parameter of each unknown
    data: np.ndarray    # jump data of each unknown
    sigmas: tuple       # relaxation parameter of each subdomain


def _line(projectors, sigmas, data):
    mats = [np.asarray(p, dtype=float) for p in projectors]
    sigmas = _check_sigmas(sigmas)
    k = len(mats)
    if k < 2 or len(sigmas) != k:
        raise ValueError(f"a line needs at least two subdomains and one "
                         f"relaxation parameter each, got {k} and "
                         f"{len(sigmas)}")
    sizes = [2] + [4] * (k - 2) + [2]
    if [m.shape for m in mats] != [(s, s) for s in sizes]:
        raise ValueError(f"a line needs 2x2 projectors at both ends and 4x4 "
                         f"ones in between, got {[m.shape for m in mats]}")
    jumps = np.asarray(data, dtype=float)
    if jumps.shape != (k - 1, 2):
        raise ValueError(f"need (alpha, beta) at each of the {k - 1} "
                         f"interface(s), got shape {jumps.shape}")
    n = 4 * (k - 1)
    P = np.zeros((n, n))
    start = 0
    for m, size in zip(mats, sizes):
        P[start:start + size, start:start + size] = m
        start += size
    d = np.repeat(jumps, 2, axis=0)
    d[0::2, 0] *= -1    # left side of an interface carries (-alpha, beta)
    S = np.repeat(np.array(sigmas), sizes)
    return _Line(P, S, d.ravel(), sigmas)


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
    line = _line(projectors, sigmas, data)
    n = len(line.S)
    blocks = np.arange(n // 2)
    M = -line.P.astype(complex)
    M[np.diag_indices(n)] += 1 + line.S
    M.reshape(n // 2, 2, n // 2, 2)[blocks, :, blocks ^ 1, :] = (
        -line.S[::2, None, None] * X2)
    return MtfSystem(M, line.S * line.data, line.sigmas)


@lru_cache
def _block_layout(n):
    idx = np.arange(n)  # trace t is in 2x2 block t // 2, swapped with t ^ 2
    return ((idx[:, None] // 2 == idx // 2).astype(float), idx ^ 2,
            np.tile(X2.diagonal(), n // 2))


def jacobi_operator(projectors, sigmas, data):
    """Block Jacobi operator of :func:`assemble_mtf`, per 2x2 trace block.

    Inverting the 2x2 diagonal blocks ``(1+s) Id - D`` of the system in
    closed form gives ``J = ((S Id + D) E + (P - D)) / (1+S)`` and
    ``F = (S Id + D) d / (1+S)``.  Because each block ``D`` is a projector
    and ``D (P - D) = 0``, this holds at ``sigma = 0`` too (no division
    by ``s``), where ``J`` is nilpotent of order ``2 (k - 1)`` for ``k``
    subdomains.  The returned arrays are read-only.
    """
    line = _line(projectors, sigmas, data)
    same_block, swap, sign = _block_layout(len(line.S))
    D = line.P * same_block
    Q = D + np.diag(line.S)
    J = (line.P - D) + Q[:, swap] * sign
    J /= (1 + line.S)[:, None]
    F = Q @ line.data / (1 + line.S)
    J.flags.writeable = F.flags.writeable = False
    return JacobiOperator1D(J, F, line.sigmas)


def jacobi_operator_2dom(a, sigma1, sigma2, jump):
    """:func:`jacobi_operator` of the two half lines meeting at ``jump``."""
    P = calderon_halfline(a)
    return jacobi_operator([P, P], (sigma1, sigma2), [(jump.alpha, jump.beta)])


def _line_3dom(a, sigma0, sigma1, sigma2, jump_left, jump_right):
    """Left-to-right line arguments of a middle interval ``0`` on
    ``(-1, 1)`` between half lines ``1`` and ``2``; the right jump is
    oriented middle-minus-right, so its ``alpha`` flips sign."""
    P = calderon_halfline(a)
    middle = calderon_middle_3dom(a)
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
    iters = [U0]
    for _ in range(n_steps):
        iters.append(op.matrix @ iters[-1] + op.rhs_tilde)
    iters = np.array(iters)
    errors = np.max(np.abs(iters - star[None, :]), axis=1)
    return JacobiHistory(iters, errors, star)
