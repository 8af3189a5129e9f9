import numpy as np
import pytest

from multitrace.bem2d.kernels import (kernel_2d, kernel_gradient_dot,
                                      kernel_hessian_bilinear,
                                      kernel_radial_deriv)
from helpers import k0_smooth_remainder, k1_smooth_remainder
from oracle_bessel import oracle_k0, oracle_k1

TWO_PI = 2.0 * np.pi
EULER_GAMMA = 0.5772156649015329


def test_value_at_one():
    # K0(1) = 0.4210244382407083...
    assert abs(kernel_2d(1.0, 1.0) - 0.42102443824070823 / TWO_PI) < 1e-15


def test_oracle_agreement_wide_range():
    z = np.geomspace(1e-8, 50.0, 160)
    k0_vals = kernel_2d(1.0, z) * TWO_PI
    k1_vals = -kernel_radial_deriv(1.0, z) * TWO_PI
    for zi, v0, v1 in zip(z, k0_vals, k1_vals):
        assert abs(v0 - oracle_k0(zi)) <= 1e-10 * abs(oracle_k0(zi))
        assert abs(v1 - oracle_k1(zi)) <= 1e-10 * abs(oracle_k1(zi))


def test_oracle_agreement_scaled_argument():
    # same check through the (a, r) interface with a != 1
    a = 3.7
    r = np.geomspace(1e-8 / a, 50.0 / a, 60)
    for ri in r:
        ref = oracle_k0(a * ri) / TWO_PI
        assert abs(kernel_2d(a, ri) - ref) <= 1e-10 * abs(ref)


def test_small_argument_log_law():
    for z in (1e-6, 3e-6):
        ref = -(np.log(z / 2.0) + EULER_GAMMA) / TWO_PI
        assert abs(kernel_2d(1.0, z) - ref) <= 1e-8 * abs(ref)


def test_large_argument_decay_bound():
    z = np.linspace(5.0, 40.0, 36)
    assert np.all(kernel_2d(1.0, z) <= np.exp(-z))


def test_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        kernel_2d(1.0, 0.0)
    with pytest.raises(ValueError):
        kernel_2d(-1.0, 1.0)


def test_normal_derivative_against_finite_difference():
    a = 2.0
    x = np.array([0.7, 0.4])
    y = np.array([-0.2, 0.1])
    n = np.array([0.6, 0.8])
    h = 1e-6
    num = (kernel_2d(a, np.linalg.norm(x - (y + h * n)))
           - kernel_2d(a, np.linalg.norm(x - (y - h * n)))) / (2 * h)
    # the double-layer kernel d/dn(y) G(x - y) is -n(y) . grad G(x - y)
    d = x - y
    assert abs(-kernel_gradient_dot(a, d, np.linalg.norm(d), n) - num) < 1e-9


def test_hessian_against_finite_difference():
    a = 1.3
    x = np.array([0.9, -0.3])
    y = np.array([-0.4, 0.5])
    nx = np.array([1.0, 0.0])
    ny = np.array([0.0, 1.0])
    h = 1e-5

    def g(p, q):
        return kernel_2d(a, np.linalg.norm(p - q))

    num = (g(x + h * nx, y + h * ny) - g(x + h * nx, y - h * ny)
           - g(x - h * nx, y + h * ny) + g(x - h * nx, y - h * ny)) / (4 * h * h)
    d = x - y
    r = np.linalg.norm(d)
    # d/dn(y) flips the offset-gradient sign, hence the minus
    val = -kernel_hessian_bilinear(a, d, r, nx, ny)
    assert abs(val - num) < 1e-8


def test_smooth_remainders_are_regular_at_zero():
    z = np.geomspace(1e-8, 1.0, 40)
    c0 = k0_smooth_remainder(z)
    c1 = k1_smooth_remainder(z)
    # C0 -> log(2) - euler_gamma, C1 -> 0 as z -> 0
    assert abs(c0[0] - (np.log(2.0) - EULER_GAMMA)) < 1e-10
    assert np.all(np.abs(c1) < 1.0)
    assert np.all(np.isfinite(c0)) and np.all(np.isfinite(c1))
