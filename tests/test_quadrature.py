import mpmath
import numpy as np
import pytest

from multitrace.bem2d.quadrature import gauss01, log_gauss01


def test_gauss_polynomial_exactness():
    x, w = gauss01(6)
    for k in range(12):
        assert abs(np.sum(w * x ** k) - 1.0 / (k + 1)) < 1e-14


def test_gauss_interval():
    x, w = gauss01(8)
    assert np.all((x > 0) & (x < 1))
    assert abs(w.sum() - 1.0) < 1e-14


def test_log_rule_moments_exact():
    # int_0^1 x^k (-log x) dx = 1/(k+1)^2 up to degree 2n-1
    for n in (2, 5, 8, 12, 16, 46, 60):
        x, w = log_gauss01(n)
        assert np.all((x > 0) & (x < 1))
        for k in range(2 * n):
            assert abs(np.sum(w * x ** k) - 1.0 / (k + 1) ** 2) < 5e-15


def test_log_rule_two_point_values():
    # classical tabulated 2-point rule for the -log weight
    x, w = log_gauss01(2)
    assert np.allclose(x, [0.1120088061669761, 0.6022769081187381], atol=1e-12)
    assert np.allclose(w, [0.7185393190303845, 0.2814606809696154], atol=1e-12)


def test_log_rule_transcendental_integrand():
    ref = float(mpmath.quad(lambda t: -mpmath.log(t) * mpmath.exp(-3 * t), [0, 1]))
    x, w = log_gauss01(12)
    assert abs(np.sum(w * np.exp(-3 * x)) - ref) < 1e-13


def test_invalid_order_rejected():
    with pytest.raises(ValueError):
        gauss01(0)
    with pytest.raises(ValueError):
        log_gauss01(0)
