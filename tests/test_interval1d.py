from dataclasses import astuple

import numpy as np
import pytest

from multitrace import interval1d as iv
from multitrace.interval1d import (BoundedGeometry, SchwarzState,
                                   calderon_bounded, calderon_from_dtn,
                                   dtn_operators, equivalence_check,
                                   optimal_schwarz_run, state_to_traces,
                                   transmission_solve_bounded)
from multitrace.line1d import (JumpData, X2, block_jacobi_run,
                               calderon_halfline, jacobi_operator)
from multitrace.linalg import eig_dense
from helpers import match_multisets


def random_geometries(count, seed=0, a_range=(0.01, 100.0)):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a = np.exp(rng.uniform(np.log(a_range[0]), np.log(a_range[1])))
        gamma = rng.uniform(0.05, 0.95)
        yield BoundedGeometry(gamma, a)


class TestGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundedGeometry(0.0, 1.0)
        with pytest.raises(ValueError):
            BoundedGeometry(0.5, -1.0)

    @pytest.mark.parametrize("a", [np.inf, -np.inf, np.nan])
    def test_non_finite_a_rejected(self, a):
        with pytest.raises(ValueError, match="a must be finite"):
            BoundedGeometry(0.5, a)


def raw_solve(geom, jump):
    """The closed-form solve from raw cosh/sinh, which overflow once
    ``a * max(gamma, 1 - gamma)`` passes about 710."""
    a, gamma = geom.a, geom.gamma
    p, q = a * gamma, a * (1.0 - gamma)
    D = a * (np.cosh(q) * np.sinh(p) + np.sinh(q) * np.cosh(p))
    c1 = (-a * np.cosh(q) * jump.alpha + np.sinh(q) * jump.beta) / D
    c2 = (a * np.cosh(p) * jump.alpha + np.sinh(p) * jump.beta) / D
    return c1, c2, lambda x: np.where(x < gamma, c1 * np.sinh(a * x),
                                      c2 * np.sinh(a * (1.0 - x)))


class TestTransmissionSolve:
    def test_matches_raw_hyperbolic_form(self):
        rng = np.random.default_rng(11)
        x = np.linspace(0.0, 1.0, 57)
        for geom in random_geometries(200, seed=11, a_range=(0.05, 50.0)):
            jump = JumpData(*rng.standard_normal(2))
            c1, c2, ev = transmission_solve_bounded(geom, jump)
            r1, r2, ref = raw_solve(geom, jump)
            assert abs(c1 - r1) <= 1e-12 * abs(r1)
            assert abs(c2 - r2) <= 1e-12 * abs(r2)
            u = ref(x)
            assert np.max(np.abs(ev(x) - u)) <= 1e-12 * np.max(np.abs(u))

    @pytest.mark.parametrize("a", [2000.0, 1e4])
    @pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
    def test_large_a_stays_finite(self, a, gamma):
        # RuntimeWarnings fail the suite, so no branch may overflow
        c1, c2, ev = transmission_solve_bounded(BoundedGeometry(gamma, a),
                                                JumpData(0.7, -1.3))
        assert np.isfinite(c1) and np.isfinite(c2)
        u = ev(np.linspace(0.0, 1.0, 401))
        assert np.all(np.isfinite(u))
        assert abs(ev(gamma) - ev(gamma - 1e-12) - 0.7) < 1e-6

    def test_zero_jumps(self):
        _, _, ev = transmission_solve_bounded(
            BoundedGeometry(0.4, 2.0), JumpData(0.0, 0.0))
        assert np.all(ev(np.linspace(0, 1, 11)) == 0.0)

    def test_jump_reproduction_symmetric(self):
        geom = BoundedGeometry(0.5, 1.0)
        c1, c2, _ = transmission_solve_bounded(geom, JumpData(1.0, 0.0))
        sh, ch = np.sinh(0.5), np.cosh(0.5)
        assert abs((c2 * sh - c1 * sh) - 1.0) < 1e-14          # value jump
        assert abs(c1 * ch + c2 * ch) < 1e-14                  # derivative continuous

    def test_boundary_values_vanish(self):
        for geom in random_geometries(10, seed=3, a_range=(0.1, 30.0)):
            _, _, ev = transmission_solve_bounded(geom, JumpData(0.7, -1.3))
            assert np.max(np.abs(ev(np.array([0.0, 1.0])))) < 1e-14

    def test_ode_residual(self):
        geom = BoundedGeometry(0.37, 1.9)
        _, _, ev = transmission_solve_bounded(geom, JumpData(1.0, 0.5))
        x = np.array([0.1, 0.25, 0.5, 0.8])

        def resid(h):
            d2 = (ev(x + h) - 2 * ev(x) + ev(x - h)) / h ** 2
            return np.max(np.abs(-d2 + geom.a ** 2 * ev(x)))

        assert resid(2e-3) < 1e-4
        assert 3.0 < resid(2e-3) / resid(1e-3) < 5.5

    def test_general_jumps(self):
        geom = BoundedGeometry(0.62, 3.1)
        alpha, beta = -0.8, 1.7
        _, _, ev = transmission_solve_bounded(geom, JumpData(alpha, beta))
        g, eps = geom.gamma, 1e-7
        jump_val = ev(g + eps) - ev(g - eps)
        dleft = (ev(g - eps) - ev(g - 2 * eps)) / eps
        dright = (ev(g + 2 * eps) - ev(g + eps)) / eps
        assert abs(jump_val - alpha) < 1e-5
        assert abs((dleft - dright) - beta) < 1e-4


class TestBoundedProjectors:
    def test_projector_property_random(self):
        for geom in random_geometries(100, seed=1):
            P1, P2 = calderon_bounded(geom)
            assert np.max(np.abs(P1 @ P1 - P1)) < 1e-13
            assert np.max(np.abs(P2 @ P2 - P2)) < 1e-13

    def test_rank_one_trace(self):
        for geom in random_geometries(20, seed=2):
            P1, P2 = calderon_bounded(geom)
            assert abs(np.trace(P1) - 1.0) < 1e-13
            assert abs(np.trace(P2) - 1.0) < 1e-13

    def test_large_a_approaches_halfline(self):
        geom = BoundedGeometry(0.5, 40.0)
        P1, P2 = calderon_bounded(geom)
        H = calderon_halfline(40.0)
        assert np.max(np.abs(P1 - H)) < 1e-12
        assert np.max(np.abs(P2 - H)) < 1e-12

    def test_overflow_regime(self):
        P1, P2 = calderon_bounded(BoundedGeometry(0.5, 2000.0))
        assert np.all(np.isfinite(P1)) and np.all(np.isfinite(P2))
        assert np.max(np.abs(P1 @ P1 - P1)) < 1e-13

    def test_complement_identity(self):
        for geom in random_geometries(20, seed=4):
            P1, P2 = calderon_bounded(geom)
            assert np.max(np.abs(P1 + X2 @ P2 @ X2 - np.eye(2))) < 1e-13


class TestDtn:
    def test_symmetric_split_value(self):
        pair = dtn_operators(BoundedGeometry(0.5, 1.0))
        assert abs(pair.dtn1 - 2.163953413738653) < 1e-14
        assert abs(pair.dtn2 - 2.163953413738653) < 1e-14

    def test_mirror_symmetry(self):
        a = 2.7
        p1 = dtn_operators(BoundedGeometry(0.3, a))
        p2 = dtn_operators(BoundedGeometry(0.7, a))
        assert abs(p1.dtn1 - p2.dtn2) < 1e-13
        assert abs(p1.dtn2 - p2.dtn1) < 1e-13

    def test_reciprocity(self):
        for geom in random_geometries(50, seed=5):
            pair = dtn_operators(geom)
            assert abs(pair.dtn1 * pair.ntd1 - 1.0) < 1e-14
            assert abs(pair.dtn2 * pair.ntd2 - 1.0) < 1e-14

    def test_large_a_saturation(self):
        pair = dtn_operators(BoundedGeometry(0.5, 50.0))
        assert abs(pair.dtn1 / 50.0 - 1.0) < 1e-10
        assert abs(pair.dtn2 / 50.0 - 1.0) < 1e-10


class TestDtnRebuild:
    def test_matches_closed_form(self):
        for geom in random_geometries(100, seed=6):
            P1, P2 = calderon_bounded(geom)
            Q1, Q2 = calderon_from_dtn(dtn_operators(geom))
            assert np.max(np.abs(P1 - Q1)) < 1e-12
            assert np.max(np.abs(P2 - Q2)) < 1e-12

    def test_symmetric_split_halves(self):
        Q1, Q2 = calderon_from_dtn(dtn_operators(BoundedGeometry(0.5, 1.3)))
        assert abs(Q1[0, 0] - 0.5) < 1e-14
        assert abs(Q1[1, 1] - 0.5) < 1e-14

    def test_complement_identity(self):
        Q1, Q2 = calderon_from_dtn(dtn_operators(BoundedGeometry(0.21, 4.0)))
        assert np.max(np.abs(Q1 + X2 @ Q2 @ X2 - np.eye(2))) < 1e-13


class TestJacobiSimplification:
    def test_diagonal_inverse_identity(self):
        # ((1+s) Id - P)^(-1) (s X) == (s Id + P) X / (1+s) for projectors
        rng = np.random.default_rng(7)
        for geom in random_geometries(20, seed=8, a_range=(0.1, 20.0)):
            P1, _ = calderon_bounded(geom)
            s = rng.uniform(-0.9, 3.0)
            if abs(s) < 1e-6 or abs(s + 1) < 1e-6:
                continue
            lhs = np.linalg.solve((1 + s) * np.eye(2) - P1, s * X2)
            rhs = (s * np.eye(2) + P1) @ X2 / (1 + s)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_bounded_spectrum_law(self):
        rng = np.random.default_rng(9)
        for geom in random_geometries(20, seed=10, a_range=(0.1, 20.0)):
            s1, s2 = rng.uniform(-0.9, 3.0, 2)
            P1, P2 = calderon_bounded(geom)
            op = jacobi_operator([P1, P2], (s1, s2), np.zeros((1, 2)))
            ref = np.concatenate([
                [np.emath.sqrt(s / (1 + s)), -np.emath.sqrt(s / (1 + s))]
                for s in (s1, s2)])
            match_multisets(eig_dense(op.matrix).eigenvalues, ref, 1e-10)


class TestOptimalSchwarz:
    def test_zero_start_stays_zero(self):
        hist = optimal_schwarz_run(BoundedGeometry(0.4, 1.5),
                                   SchwarzState(0, 0, 0, 0), 3)
        assert all(np.max(np.abs(np.array(astuple(s)))) == 0.0 for s in hist)

    def test_exact_zero_after_two_steps(self):
        rng = np.random.default_rng(11)
        for geom in random_geometries(10, seed=12, a_range=(0.1, 20.0)):
            state0 = SchwarzState(*rng.standard_normal(4))
            hist = optimal_schwarz_run(geom, state0, 4)
            assert np.max(np.abs(np.array(astuple(hist[2])))) < 1e-13
            assert np.max(np.abs(np.array(astuple(hist[3])))) < 1e-13

    def test_single_step_is_projector_times_flip(self):
        geom = BoundedGeometry(0.3, 2.0)
        P1, P2 = calderon_bounded(geom)
        state0 = SchwarzState(0.8, -0.1, 0.5, 1.2)
        hist = optimal_schwarz_run(geom, state0, 1)
        U0 = state_to_traces(state0)
        U1 = state_to_traces(hist[1])
        assert np.max(np.abs(U1[:2] - P1 @ X2 @ U0[2:])) < 1e-14
        assert np.max(np.abs(U1[2:] - P2 @ X2 @ U0[:2])) < 1e-14


class TestEquivalence:
    def test_deviation_machine_zero(self):
        rng = np.random.default_rng(13)
        for geom in random_geometries(10, seed=14, a_range=(0.1, 20.0)):
            state0 = SchwarzState(*rng.standard_normal(4))
            rep = equivalence_check(geom, state0, 4)
            assert rep.max_deviation < 1e-12

    def test_both_zero_at_step_two(self):
        rep = equivalence_check(BoundedGeometry(0.6, 0.9),
                                SchwarzState(1.0, 2.0, -0.5, 0.3), 3)
        assert np.max(np.abs(rep.schwarz_history[2])) < 1e-13
        assert np.max(np.abs(rep.jacobi_history[2])) < 1e-13

    def test_nonzero_relaxation_is_negative_control(self):
        rep = equivalence_check(BoundedGeometry(0.5, 1.0),
                                SchwarzState(1.0, -0.4, 0.3, 2.0),
                                2, sigma=0.3)
        assert np.max(np.abs(rep.schwarz_history[1] - rep.jacobi_history[1])) > 1e-3
