"""Exact solutions on the real line from prescribed interface jumps.

Built from the Green's function ``g(x) = exp(-a|x|) / (2a)`` of
``-u'' + a^2 u = 0`` and its derivative, these are the closed-form fields
the tests check the line projectors and the multitrace systems against.
Jump data ``(alpha, beta)`` is oriented right minus left, as in
``multitrace.line1d``.
"""

import numpy as np

from multitrace.line1d import JumpData, _check_a, green_1d


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
