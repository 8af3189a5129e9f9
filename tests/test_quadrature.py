import mpmath
import numpy as np
import pytest

from multitrace.bem2d import quadrature
from multitrace.bem2d.quadrature import gauss01, log_gauss01


def mpmath_recurrence(n):
    """The former extended-precision recurrence of the -log weight, kept
    as the reference of the exact integer one."""
    with mpmath.workdps(max(60, 2 * n + 20)):
        moments = [mpmath.mpf(1) / (k + 1) ** 2 for k in range(2 * n)]
        alpha = [moments[1] / moments[0]]
        beta = [moments[0]]
        sigma_prev = [mpmath.mpf(0)] * (2 * n)
        sigma_cur = list(moments)
        for k in range(1, n):
            sigma_new = [mpmath.mpf(0)] * (2 * n)
            for l in range(k, 2 * n - k):
                sigma_new[l] = (sigma_cur[l + 1]
                                - alpha[k - 1] * sigma_cur[l]
                                - beta[k - 1] * sigma_prev[l])
            alpha.append(sigma_new[k + 1] / sigma_new[k]
                         - sigma_cur[k] / sigma_cur[k - 1])
            beta.append(sigma_new[k] / sigma_cur[k - 1])
            sigma_prev, sigma_cur = sigma_cur, sigma_new
        return ([float(v) for v in alpha], [float(v) for v in beta])


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


@pytest.mark.parametrize("n", [*range(1, 21), 46, 60])
def test_log_rule_bitwise_equals_mpmath_rule(n, monkeypatch):
    x, w = log_gauss01(n)
    monkeypatch.setattr(quadrature, "_log_weight_recurrence",
                        mpmath_recurrence)
    x_ref, w_ref = log_gauss01.__wrapped__(n)       # bypass the cache
    assert np.array_equal(x, x_ref)
    assert np.array_equal(w, w_ref)


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
