"""Exact multitrace machinery on the real line for -u'' + a^2 u = 0.

Solutions decaying at infinity admit closed-form representation through
the Green's function ``g(x) = exp(-a|x|) / (2a)``.  This module builds,
without any discretization:

* representation formulas from prescribed Dirichlet/Neumann jumps,
* the 2x2 Calderon projectors of the two half lines and the 4x4
  projector of a middle interval,
* the multitrace systems coupling per-subdomain trace pairs with
  relaxation parameters, and
* the associated block Jacobi iteration operators for two and three
  subdomains.

Trace convention: each subdomain carries the pair
``(u, outward normal derivative)`` on its interface side, so the
half line to the right of an interface stores ``(u(x0+), -u'(x0+))``
and the one to the left stores ``(u(x0-), +u'(x0-))``.  Jump data
``(alpha, beta)`` is oriented right-to-left:
``alpha = u(x0+) - u(x0-)``, ``beta = -u'(x0+) + u'(x0-)``.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import solve_dense

# Sign-flip matrix exchanging trace conventions across an interface.
X2 = np.array([[1.0, 0.0], [0.0, -1.0]])


@dataclass(frozen=True)
class JumpData:
    """Prescribed solution jump ``alpha`` and derivative jump ``beta``."""

    alpha: float
    beta: float
    location: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)
                and np.isfinite(self.location)):
            raise ValueError("jump data must be finite")


@dataclass(frozen=True)
class CalderonProjector1D:
    """A matrix P with P^2 = P mapping trace data to solution traces."""

    matrix: np.ndarray
    a: float


@dataclass(frozen=True)
class MtfSystem:
    """Linear multitrace system ``system_matrix @ U = rhs``."""

    system_matrix: np.ndarray
    rhs: np.ndarray
    sigmas: tuple
    layout: str

    def solve(self):
        return solve_dense(self.system_matrix, self.rhs)

    def residual(self, U):
        return float(np.max(np.abs(self.system_matrix @ U - self.rhs)))


@dataclass(frozen=True)
class JacobiOperator1D:
    """Iteration ``U <- matrix @ U + rhs_tilde`` and its metadata."""

    matrix: np.ndarray
    rhs_tilde: np.ndarray
    sigmas: tuple


def _check_a(a):
    if not (np.isreal(a) and a > 0):
        raise ValueError(f"material constant a must be positive, got {a}")
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


def green_1d_deriv(a, x):
    """Derivative of the fundamental solution, ``-sign(x) exp(-a|x|)/2``."""
    a = _check_a(a)
    return -np.sign(x) * np.exp(-a * np.abs(x)) / 2.0


def represent_1d(a, jump):
    """Solution with prescribed jumps at one point, as a callable.

    Returns ``u`` with ``u(x) = beta * g(x - x0) - alpha * g'(x - x0)``;
    it solves the equation away from ``x0``, decays at infinity, and
    realizes the jumps ``(alpha, beta)``.  Evaluation exactly at the
    jump location raises ``ValueError``.
    """
    a = _check_a(a)
    x0 = jump.location

    def u(x):
        x = np.asarray(x, dtype=float)
        if np.any(x == x0):
            raise ValueError(f"evaluation at the jump location x = {x0}")
        return jump.beta * green_1d(a, x - x0) - jump.alpha * green_1d_deriv(a, x - x0)

    return u


def calderon_halfline(a, side="plus"):
    """Calderon projector of a half line, ``(Id + A)/2`` with ``A^2 = Id``.

    ``A = [[0, 1/a], [a, 0]]``; the projector is the same matrix for the
    left and the right half line thanks to the trace sign convention.
    """
    a = _check_a(a)
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    A = np.array([[0.0, 1.0 / a], [a, 0.0]])
    return CalderonProjector1D((np.eye(2) + A) / 2.0, a)


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
    P = calderon_halfline(a).matrix
    R = middle_coupling_matrix(a)
    top = np.hstack([P, 2.0 * a * g * R])
    bottom = np.hstack([2.0 * a * g * R, P])
    return CalderonProjector1D(np.vstack([top, bottom]), a)


def assemble_mtf_2dom(a, sigma1, sigma2, jump):
    """Two-subdomain multitrace system for jump data at the interface.

    The 4x4 matrix is ``[[(1+s1)Id - P, -s1 X], [-s2 X, (1+s2)Id - P]]``
    and the right-hand side carries the relaxation-weighted jumps
    ``s1*(-alpha, beta)`` and ``s2*(alpha, beta)``.  At vanishing
    relaxation the system loses the jump data (rhs = 0).
    """
    a = _check_a(a)
    s1, s2 = _check_sigmas((sigma1, sigma2))
    P = calderon_halfline(a).matrix
    I2 = np.eye(2)
    M = np.zeros((4, 4), dtype=complex)
    M[:2, :2] = (1 + s1) * I2 - P
    M[:2, 2:] = -s1 * X2
    M[2:, :2] = -s2 * X2
    M[2:, 2:] = (1 + s2) * I2 - P
    rhs = np.concatenate([
        s1 * np.array([-jump.alpha, jump.beta]),
        s2 * np.array([jump.alpha, jump.beta]),
    ]).astype(complex)
    return MtfSystem(M, rhs, (s1, s2), "two-subdomain line")


def jacobi_block(P, sigma):
    """Off-diagonal Jacobi block ``((1+s)Id - P)^{-1} s X`` in closed form.

    Because ``P`` is a projector, the block equals ``(s Id + P) X/(1+s)``,
    which stays well defined in the limit ``s -> 0`` (no division by s).
    """
    (s,) = _check_sigmas((sigma,))
    n = P.shape[0]
    Xn = np.kron(np.eye(n // 2), X2)
    return (s * np.eye(n) + P) @ Xn / (1 + s)


def jacobi_rhs_block(P, sigma, data):
    """Right-hand side block ``((1+s)Id - P)^{-1} s * data``."""
    (s,) = _check_sigmas((sigma,))
    return (s * np.eye(P.shape[0]) + P) @ np.asarray(data, dtype=complex) / (1 + s)


def jacobi_from_projectors(P1, P2, sigma1, sigma2, rhs_blocks=None):
    """Block Jacobi operator for two subdomains with given 2x2 projectors.

    ``rhs_blocks`` are the raw multitrace right-hand side data vectors
    (before the diagonal-block inverse is applied); when omitted the
    iteration is homogeneous.
    """
    s1, s2 = _check_sigmas((sigma1, sigma2))
    J = np.zeros((4, 4), dtype=complex)
    J[:2, 2:] = jacobi_block(P1, s1)
    J[2:, :2] = jacobi_block(P2, s2)
    if rhs_blocks is None:
        F = np.zeros(4, dtype=complex)
    else:
        d1, d2 = rhs_blocks
        F = np.concatenate([
            jacobi_rhs_block(P1, s1, d1),
            jacobi_rhs_block(P2, s2, d2),
        ])
    return JacobiOperator1D(J, F, (s1, s2))


def jacobi_operator_2dom(a, sigma1, sigma2, jump):
    """Block Jacobi operator of the two-subdomain multitrace system.

    At ``sigma = 0`` the matrix reduces to ``[[0, P X], [P X, 0]]`` and is
    nilpotent of order two.
    """
    a = _check_a(a)
    P = calderon_halfline(a).matrix
    d1 = np.array([-jump.alpha, jump.beta])
    d2 = np.array([jump.alpha, jump.beta])
    return jacobi_from_projectors(P, P, sigma1, sigma2, rhs_blocks=(d1, d2))


def assemble_mtf_3dom(a, sigma0, sigma1, sigma2, jump_left, jump_right,
                      interfaces=(-1.0, 1.0)):
    """Three-subdomain multitrace system (8x8) with a middle interval.

    Unknown ordering: ``(U1, U01, U02, U2)`` where ``U1``/``U2`` are the
    outer half-line traces and ``U01``/``U02`` the middle-interval traces
    on its left/right interface.
    """
    a = _check_a(a)
    s0, s1, s2 = _check_sigmas((sigma0, sigma1, sigma2))
    xl, xr = interfaces
    g = green_1d(a, xr - xl)
    P = calderon_halfline(a).matrix
    R = middle_coupling_matrix(a)
    C = 2.0 * a * g * R
    I2 = np.eye(2)
    M = np.zeros((8, 8), dtype=complex)
    M[0:2, 0:2] = (1 + s1) * I2 - P
    M[0:2, 2:4] = -s1 * X2
    M[2:4, 0:2] = -s0 * X2
    M[2:4, 2:4] = (1 + s0) * I2 - P
    M[2:4, 4:6] = -C
    M[4:6, 2:4] = -C
    M[4:6, 4:6] = (1 + s0) * I2 - P
    M[4:6, 6:8] = -s0 * X2
    M[6:8, 4:6] = -s2 * X2
    M[6:8, 6:8] = (1 + s2) * I2 - P
    al, bl = jump_left.alpha, jump_left.beta
    ar, br = jump_right.alpha, jump_right.beta
    rhs = np.concatenate([
        s1 * np.array([-al, bl]),
        s0 * np.array([al, bl]),
        s0 * np.array([ar, br]),
        s2 * np.array([-ar, br]),
    ]).astype(complex)
    return MtfSystem(M, rhs, (s0, s1, s2), "three-subdomain line")


def jacobi_operator_3dom(a, sigma0, sigma1, sigma2, jump_left, jump_right,
                         interfaces=(-1.0, 1.0)):
    """Block Jacobi operator (8x8) for the three-subdomain system.

    The diagonal blocks being inverted are the four 2x2 blocks
    ``(1+s_j)Id - P``; since ``P R = 0`` the middle couplings transform
    as ``R / (1+s0)``.  At all ``sigma = 0`` the matrix is nilpotent of
    order four.
    """
    a = _check_a(a)
    s0, s1, s2 = _check_sigmas((sigma0, sigma1, sigma2))
    xl, xr = interfaces
    g = green_1d(a, xr - xl)
    P = calderon_halfline(a).matrix
    R = middle_coupling_matrix(a)
    C = 2.0 * a * g * R
    J = np.zeros((8, 8), dtype=complex)
    J[0:2, 2:4] = jacobi_block(P, s1)
    J[2:4, 0:2] = jacobi_block(P, s0)
    J[2:4, 4:6] = C / (1 + s0)
    J[4:6, 2:4] = C / (1 + s0)
    J[4:6, 6:8] = jacobi_block(P, s0)
    J[6:8, 4:6] = jacobi_block(P, s2)
    al, bl = jump_left.alpha, jump_left.beta
    ar, br = jump_right.alpha, jump_right.beta
    F = np.concatenate([
        jacobi_rhs_block(P, s1, [-al, bl]),
        jacobi_rhs_block(P, s0, [al, bl]),
        jacobi_rhs_block(P, s0, [ar, br]),
        jacobi_rhs_block(P, s2, [-ar, br]),
    ])
    return JacobiOperator1D(J, F, (s0, s1, s2))


def jacobi_fixed_point(op):
    """Exact fixed point of ``U = J U + F``.

    Solved directly when ``Id - J`` is safely invertible; in the
    vanishing-relaxation case the nilpotent iteration is summed to
    completion instead (``sum_k J^k F`` terminates exactly).
    """
    J, F = op.matrix, op.rhs_tilde
    n = J.shape[0]
    if all(s == 0 for s in op.sigmas):
        U = np.zeros(n, dtype=complex)
        term = F.copy()
        for _ in range(n):
            U = U + term
            term = J @ term
            if np.max(np.abs(term)) == 0.0:
                break
        return U
    return solve_dense(np.eye(n) - J, F)


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


def represent_1d_3dom(a, jump_left, jump_right, interfaces=(-1.0, 1.0)):
    """Solution with jumps at both interfaces of a middle interval.

    Superposes one representation formula per interface; evaluation at
    either interface raises ``ValueError``.  Note the right interface
    jump is oriented middle-minus-right, mirroring the left one, so the
    Dirichlet kernel term flips sign there.
    """
    a = _check_a(a)
    xl, xr = interfaces

    def u(x):
        x = np.asarray(x, dtype=float)
        if np.any(x == xl) or np.any(x == xr):
            raise ValueError("evaluation at an interface")
        left = (jump_left.beta * green_1d(a, x - xl)
                - jump_left.alpha * green_1d_deriv(a, x - xl))
        right = (jump_right.beta * green_1d(a, x - xr)
                 + jump_right.alpha * green_1d_deriv(a, x - xr))
        return left + right

    return u
