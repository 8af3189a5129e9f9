"""Transmission problem on (0, 1) split at gamma, and its interface maps.

With homogeneous Dirichlet conditions at both ends, every subdomain
solution is a single hyperbolic mode, so the Calderon projectors, the
Dirichlet-to-Neumann maps and the optimal Schwarz iteration at the
interface all have closed forms.  Hyperbolic ratios are evaluated in a
factored-exponential form so that large ``a * gamma`` or
``a * (1 - gamma)`` never overflows even though cosh/sinh would.
"""

from dataclasses import dataclass

import numpy as np

from .line1d import _check_a, block_jacobi_run, jacobi_operator


@dataclass(frozen=True)
class BoundedGeometry:
    """Interval (0, 1) split at ``gamma`` with material constant ``a``."""

    gamma: float
    a: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        _check_a(self.a)


@dataclass(frozen=True)
class DtnPair:
    """Dirichlet-to-Neumann values of both subdomains and their inverses."""

    dtn1: float
    dtn2: float
    ntd1: float
    ntd2: float


@dataclass(frozen=True)
class SchwarzState:
    """Interface values and derivatives of both subdomain iterates."""

    u1: float
    du1: float
    u2: float
    du2: float


# Overflow-free hyperbolic ratios.  All take nonnegative u, v, w with
# u + v <= w and use only exp of nonpositive arguments.

def _sh_sh_over_sh(u, v, w):
    num = np.exp(u + v - w) * np.expm1(-2.0 * u) * np.expm1(-2.0 * v)
    return 0.5 * num / -np.expm1(-2.0 * w)


def _sh_ch_over_sh(u, v, w):
    num = np.exp(u + v - w) * -np.expm1(-2.0 * u) * (1.0 + np.exp(-2.0 * v))
    return 0.5 * num / -np.expm1(-2.0 * w)


def _ch_ch_over_sh(u, v, w):
    num = np.exp(u + v - w) * (1.0 + np.exp(-2.0 * u)) * (1.0 + np.exp(-2.0 * v))
    return 0.5 * num / -np.expm1(-2.0 * w)


def transmission_solve_bounded(geom, jump):
    """Closed-form subdomain solutions for jump data at the interface.

    Returns ``(c1, c2, evaluate)`` where ``u = c1 sinh(a x)`` on
    ``(0, gamma)``, ``u = c2 sinh(a (1 - x))`` on ``(gamma, 1)`` and
    ``evaluate(x)`` computes the solution (overflow-safe).  The jump
    convention is ``u2(gamma) - u1(gamma) = alpha`` and
    ``u1'(gamma) - u2'(gamma) = beta``.
    """
    a, gamma = geom.a, geom.gamma
    p, q = a * gamma, a * (1.0 - gamma)
    w = p + q
    c1 = (-jump.alpha * _ch_ch_over_sh(0.0, q, w)
          + jump.beta * _sh_ch_over_sh(q, 0.0, w) / a)
    c2 = (jump.alpha * _ch_ch_over_sh(0.0, p, w)
          + jump.beta * _sh_ch_over_sh(p, 0.0, w) / a)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        if np.any((x < 0) | (x > 1)):
            raise ValueError("evaluation outside [0, 1]")
        u = np.empty_like(x)
        left = x < gamma            # off its side a branch overflows
        xl, xr = a * x[left], a * (1.0 - x[~left])
        u[left] = (-jump.alpha * _sh_ch_over_sh(xl, q, w)
                   + jump.beta * _sh_sh_over_sh(xl, q, w) / a)
        u[~left] = (jump.alpha * _sh_ch_over_sh(xr, p, w)
                    + jump.beta * _sh_sh_over_sh(xr, p, w) / a)
        return u

    return c1, c2, evaluate


def calderon_bounded(geom):
    """Calderon projectors of the two subintervals, in closed form.

    Both are rank-one 2x2 projectors (trace 1, determinant 0) acting on
    the pair (interface value, outward derivative at the interface).
    """
    a, gamma = geom.a, geom.gamma
    p, q = a * gamma, a * (1.0 - gamma)
    w = p + q
    P1 = np.array([
        [_sh_ch_over_sh(p, q, w), _sh_sh_over_sh(p, q, w) / a],
        [a * _ch_ch_over_sh(p, q, w), _sh_ch_over_sh(q, p, w)],
    ])
    P2 = np.array([
        [_sh_ch_over_sh(q, p, w), _sh_sh_over_sh(p, q, w) / a],
        [a * _ch_ch_over_sh(p, q, w), _sh_ch_over_sh(p, q, w)],
    ])
    return P1, P2


def dtn_operators(geom):
    """Dirichlet-to-Neumann values of both subdomains at the interface.

    ``dtn1 = a coth(a gamma)`` maps the interface value of the left
    subdomain solution to its outward derivative there; ``dtn2``
    likewise for the right subdomain.  NtD values are the reciprocals.
    """
    a, gamma = geom.a, geom.gamma
    dtn1 = a / np.tanh(a * gamma)
    dtn2 = a / np.tanh(a * (1.0 - gamma))
    return DtnPair(dtn1, dtn2, 1.0 / dtn1, 1.0 / dtn2)


def calderon_from_dtn(pair):
    """Rebuild both Calderon projectors from DtN/NtD values alone."""
    d1, d2 = pair.dtn1, pair.dtn2
    n1, n2 = pair.ntd1, pair.ntd2
    P1 = np.array([
        [d2 / (d1 + d2), 1.0 / (d1 + d2)],
        [1.0 / (n1 + n2), n2 / (n1 + n2)],
    ])
    P2 = np.array([
        [d1 / (d1 + d2), 1.0 / (d1 + d2)],
        [1.0 / (n1 + n2), n1 / (n1 + n2)],
    ])
    return P1, P2


def schwarz_step(pair, state):
    """One simultaneous optimal Schwarz update of both subdomains.

    Runs the interface recursions on the Dirichlet traces and on the
    Neumann traces at the same time, using only DtN/NtD scalars:

    * ``u1 <- (dtn1 + dtn2)^-1 (du2 + dtn2 u2)``
    * ``du1 <- (ntd1 + ntd2)^-1 (ntd2 du2 + u2)``

    and mirrored updates (with the sign of the derivative flipped by the
    opposite outward direction) for the second subdomain.
    """
    d1, d2 = pair.dtn1, pair.dtn2
    n1, n2 = pair.ntd1, pair.ntd2
    u1 = (state.du2 + d2 * state.u2) / (d1 + d2)
    du1 = (n2 * state.du2 + state.u2) / (n1 + n2)
    u2 = (-state.du1 + d1 * state.u1) / (d1 + d2)
    du2 = -(state.u1 - n1 * state.du1) / (n1 + n2)
    return SchwarzState(u1, du1, u2, du2)


def optimal_schwarz_run(geom, state0, n_steps):
    """Optimal Schwarz iteration history for the homogeneous problem.

    The iteration studies how subdomain iterates decay to zero; it
    reaches exactly zero after two steps for any start.
    """
    pair = dtn_operators(geom)
    history = [state0]
    for _ in range(n_steps):
        history.append(schwarz_step(pair, history[-1]))
    return history


def state_to_traces(state):
    """Map interface state to the per-subdomain trace convention.

    The left subdomain trace pair is ``(u1, +du1)`` and the right one is
    ``(u2, -du2)`` (outward derivatives).
    """
    return np.array([state.u1, state.du1, state.u2, -state.du2])


@dataclass(frozen=True)
class EquivalenceReport:
    """Iterate-by-iterate comparison of two interface iterations."""

    max_deviation: float
    deviations: np.ndarray
    schwarz_history: np.ndarray
    jacobi_history: np.ndarray


def equivalence_check(geom, state0, n_steps=4, sigma=0.0):
    """Compare optimal Schwarz with the relaxed block Jacobi iteration.

    With ``sigma = 0`` (the optimal choice) the block Jacobi iteration
    built from the bounded-domain projectors reproduces the Schwarz
    iterates exactly: it is the same algorithm run simultaneously on the
    Dirichlet and the Neumann traces.  Any other ``sigma`` serves as a
    negative control and deviates from the first step on.
    """
    schwarz = optimal_schwarz_run(geom, state0, n_steps)
    schwarz_traces = np.array([state_to_traces(s) for s in schwarz])
    P1, P2 = calderon_bounded(geom)
    op = jacobi_operator([P1, P2], (sigma, sigma), np.zeros((1, 2)))
    jac = block_jacobi_run(op, state_to_traces(state0), n_steps)
    deviations = np.max(np.abs(schwarz_traces - jac.iterates), axis=1)
    return EquivalenceReport(float(deviations.max()), deviations,
                             schwarz_traces, jac.iterates)
