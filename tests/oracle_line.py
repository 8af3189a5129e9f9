"""Exact solutions on the real line from prescribed interface jumps, and
the line's Jacobi operator by its formulas written out.

Built from the Green's function ``g(x) = exp(-a|x|) / (2a)`` of
``-u'' + a^2 u = 0`` and its derivative, these are the closed-form fields
the tests check the line projectors and the multitrace systems against.
Jump data ``(alpha, beta)`` is oriented right minus left, as in
``multitrace.line1d``.  ``jacobi_reference`` and ``jacobi_run_reference``
are the per-call formulas the tests hold the line builder to, byte for
byte.
"""

import numpy as np

from multitrace.line1d import JumpData, _check_a, green_1d
from multitrace.linalg import solve_dense


def green_1d_deriv(a, x):
    """Derivative of the fundamental solution, ``-sign(x) exp(-a|x|)/2``."""
    a = _check_a(a)
    return -np.sign(x) * np.exp(-a * np.abs(x)) / 2.0


def represent_1d(a, jump, x0=0.0):
    """Solution with prescribed jumps at the point ``x0``, as a callable.

    Returns ``u`` with ``u(x) = beta * g(x - x0) - alpha * g'(x - x0)``;
    it solves the equation away from ``x0``, decays at infinity, and
    realizes the jumps ``(alpha, beta)``.  Evaluation exactly at the
    jump location raises ``ValueError``.
    """
    a = _check_a(a)

    def u(x):
        x = np.asarray(x, dtype=float)
        if np.any(x == x0):
            raise ValueError(f"evaluation at the jump location x = {x0}")
        return jump.beta * green_1d(a, x - x0) - jump.alpha * green_1d_deriv(a, x - x0)

    return u


def represent_1d_3dom(a, jump_left, jump_right):
    """Solution with jumps at both interfaces of the middle interval
    ``(-1, 1)``: the sum of one :func:`represent_1d` field per interface.
    The right jump is oriented middle-minus-right, so its ``alpha`` flips
    sign; evaluation at either interface raises ``ValueError``.
    """
    left = represent_1d(a, jump_left, -1.0)
    right = represent_1d(a, JumpData(-jump_right.alpha, jump_right.beta), 1.0)
    return lambda x: left(x) + right(x)


def jacobi_reference(projectors, sigmas, data):
    """``(J, F)`` of ``line1d.jacobi_operator`` by its formulas written out
    per call: a dense real block-diagonal ``P``, relaxations and jump data
    repeated per trace, the 2x2 block mask and the interface swap built on
    the spot, and real tables meeting complex ones in mixed operations."""
    mats = [np.asarray(p, dtype=float) for p in projectors]
    sigmas = tuple(complex(s) for s in sigmas)
    sizes = [2] + [4] * (len(mats) - 2) + [2]
    n = sum(sizes)
    P = np.zeros((n, n))
    start = 0
    for m, size in zip(mats, sizes):
        P[start:start + size, start:start + size] = m
        start += size
    d = np.repeat(np.asarray(data, dtype=float), 2, axis=0)
    d[0::2, 0] *= -1
    S = np.repeat(np.array(sigmas), sizes)
    idx = np.arange(n)
    D = P * (idx[:, None] // 2 == idx // 2).astype(float)
    Q = D + np.diag(S)
    J = (P - D) + Q[:, idx ^ 2] * np.tile([1.0, -1.0], n // 2)
    J /= (1 + S)[:, None]
    F = Q @ d.ravel() / (1 + S)
    return J, F


def jacobi_run_reference(J, F, sigmas, U0, n_steps):
    """``(iterates, errors, fixed_point)`` of ``line1d.block_jacobi_run``:
    the fixed point solved with a real identity, or summed as the
    nilpotent series at vanishing relaxation, and the iterates stacked
    from a list."""
    if any(complex(s) for s in sigmas):
        star = solve_dense(np.eye(len(F)) - J, F, "Id - J")
    else:
        star, term = np.zeros(len(F), dtype=complex), F
        for _ in range(len(F)):
            star, term = star + term, J @ term
            if not np.any(term):
                break
    iters = [np.asarray(U0, dtype=complex)]
    for _ in range(n_steps):
        iters.append(J @ iters[-1] + F)
    iters = np.array(iters)
    return iters, np.max(np.abs(iters - star[None, :]), axis=1), star
