import collections
import warnings

import numpy as np
import pytest
import scipy.linalg

from multitrace import line1d, linalg
from multitrace.interval1d import BoundedGeometry, calderon_bounded
from multitrace.line1d import (JumpData, X2, assemble_mtf, block_jacobi_run,
                               calderon_halfline, calderon_middle_3dom,
                               green_1d, jacobi_fixed_point, jacobi_operator,
                               jacobi_operator_2dom, jacobi_operator_3dom,
                               middle_coupling_matrix)
from multitrace.linalg import eig_dense, solve_dense
from helpers import match_multisets
from oracle_line import (jacobi_reference, jacobi_run_reference,
                         represent_1d, represent_1d_3dom)


def mtf_2dom(a, sigma1, sigma2, jump):
    P = calderon_halfline(a)
    return assemble_mtf([P, P], (sigma1, sigma2), [(jump.alpha, jump.beta)])


def residual(system, U):
    return float(np.max(np.abs(system.system_matrix @ U - system.rhs)))


def sigma_points(*sigmas):
    return np.concatenate([
        [np.emath.sqrt(s / (1 + s)), -np.emath.sqrt(s / (1 + s))]
        for s in map(complex, sigmas)])


def line_projectors(a, interfaces):
    """Projectors of the subdomains of the line cut at ``interfaces``,
    left to right: a half line, the intervals in between, a half line."""
    H = calderon_halfline(a)
    middles = [calderon_middle_3dom(a, pair)
               for pair in zip(interfaces[:-1], interfaces[1:])]
    return [H, *middles, H]


class TestGreen:
    def test_value_at_origin(self):
        assert green_1d(1.0, 0.0) == 0.5

    def test_decay_value(self):
        assert abs(green_1d(1.0, 2.0) - 0.06766764161830635) < 1e-16

    def test_even_symmetry_and_scaling(self):
        assert abs(green_1d(2.0, -1.0) - 0.033833820809153176) < 1e-16
        assert green_1d(2.0, -1.0) == green_1d(2.0, 1.0)

    def test_rejects_bad_a(self):
        with pytest.raises(ValueError):
            green_1d(0.0, 1.0)

    @pytest.mark.parametrize("a", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_a(self, a):
        for build in (lambda: green_1d(a, 1.0), lambda: calderon_halfline(a),
                      lambda: calderon_middle_3dom(a),
                      lambda: jacobi_operator_2dom(a, 0.1, 0.2, JumpData(1, 0))):
            with pytest.raises(ValueError, match="material constant a"):
                build()


class TestRepresentation:
    def test_pure_neumann_jump(self):
        u = represent_1d(1.0, JumpData(0.0, 1.0))
        assert abs(u(1.0) - 0.18393972058572117) < 1e-16
        # decays like exp(-a|x|) on both sides
        assert abs(u(8.0) - 0.5 * np.exp(-8.0)) < 1e-19
        assert abs(u(-8.0) - 0.5 * np.exp(-8.0)) < 1e-19

    def test_pure_dirichlet_jump(self):
        u = represent_1d(1.0, JumpData(1.0, 0.0))
        assert abs(u(0.5) - 0.3032653298563167) < 1e-16

    def test_zero_jumps_zero_solution(self):
        u = represent_1d(3.0, JumpData(0.0, 0.0))
        assert np.all(u(np.array([-2.0, -0.7, 0.3, 1.1, 2.0])) == 0.0)

    def test_evaluation_at_jump_rejected(self):
        u = represent_1d(1.0, JumpData(1.0, 1.0), 0.25)
        with pytest.raises(ValueError):
            u(0.25)

    def test_ode_residual_second_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a = rng.uniform(0.3, 4.0)
            alpha, beta = rng.standard_normal(2)
            u = represent_1d(a, JumpData(alpha, beta))
            x = np.array([-1.7, -0.6, 0.4, 1.3])

            def resid(h):
                d2 = (u(x + h) - 2 * u(x) + u(x - h)) / h ** 2
                return np.max(np.abs(-d2 + a ** 2 * u(x)))

            r1, r2 = resid(2e-3), resid(1e-3)
            assert r1 < 1e-3 * a ** 4 * np.max(np.abs(u(x))) + 1e-12
            assert 3.0 < r1 / r2 < 5.5    # clean second-order decay

    def test_jump_recovery(self):
        # one-sided limits recovered through the decaying exponential
        # structure: u' = -+ a u on each side of the jump
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = rng.uniform(0.05, 20.0)
            alpha, beta = rng.standard_normal(2)
            u = represent_1d(a, JumpData(alpha, beta))
            eps = 1e-3 / a
            up = u(eps) * np.exp(a * eps)      # u(0+)
            um = u(-eps) * np.exp(a * eps)     # u(0-)
            assert abs((up - um) - alpha) < 1e-10
            beta_rec = a * um + a * up         # u'(0-) - u'(0+)
            assert abs(beta_rec - beta) < 1e-10


class TestHalflineProjector:
    def test_unit_a_matrix(self):
        P = calderon_halfline(1.0)
        assert np.allclose(P, 0.5 * np.ones((2, 2)), atol=0)

    def test_reflection_squares_to_identity(self):
        for a in (0.2, 1.0, 17.0):
            A = 2.0 * calderon_halfline(a) - np.eye(2)
            assert np.max(np.abs(A @ A - np.eye(2))) < 1e-15

    def test_projector_property(self):
        rng = np.random.default_rng(1)
        for a in np.exp(rng.uniform(np.log(0.01), np.log(100.0), 100)):
            P = calderon_halfline(a)
            assert np.max(np.abs(P @ P - P)) < 1e-13


class TestMtfTwoSubdomains:
    def test_solution_consistency(self):
        sys2 = mtf_2dom(1.3, 0.4, 0.9, JumpData(1.0, 2.0))
        U = sys2.solve()
        assert residual(sys2, U) < 1e-12

    def test_solution_satisfies_jump_relation(self):
        sys2 = mtf_2dom(2.0, 0.25, 0.7, JumpData(1.5, -0.5))
        U = sys2.solve()
        gap = U[:2] - X2 @ U[2:]
        assert np.max(np.abs(gap - np.array([-1.5, -0.5]))) < 1e-12

    def test_vanishing_relaxation_loses_data(self):
        sys2 = mtf_2dom(1.0, 0.0, 0.0, JumpData(1.0, 2.0))
        assert np.all(sys2.rhs == 0)

    def test_sigma_minus_one_rejected(self):
        with pytest.raises(ValueError):
            mtf_2dom(1.0, -1.0, 0.5, JumpData(1.0, 0.0))


class TestJacobiTwoSubdomains:
    def test_zero_relaxation_matrix(self):
        op = jacobi_operator_2dom(1.0, 0.0, 0.0, JumpData(1.0, 2.0))
        expected = np.array([
            [0.0, 0.0, 0.5, -0.5],
            [0.0, 0.0, 0.5, -0.5],
            [0.5, -0.5, 0.0, 0.0],
            [0.5, -0.5, 0.0, 0.0]])
        assert np.max(np.abs(op.matrix - expected)) == 0.0

    def test_explicit_entries(self):
        a, s1, s2 = 2.0, 0.3, -0.2
        op = jacobi_operator_2dom(a, s1, s2, JumpData(0.0, 0.0))
        top = np.array([
            [(2 * s1 + 1) / (2 * (s1 + 1)), -1 / (2 * a * (s1 + 1))],
            [a / (2 * (s1 + 1)), -(2 * s1 + 1) / (2 * (s1 + 1))]])
        bot = np.array([
            [(2 * s2 + 1) / (2 * (s2 + 1)), -1 / (2 * a * (s2 + 1))],
            [a / (2 * (s2 + 1)), -(2 * s2 + 1) / (2 * (s2 + 1))]])
        assert np.max(np.abs(op.matrix[:2, 2:] - top)) < 1e-15
        assert np.max(np.abs(op.matrix[2:, :2] - bot)) < 1e-15

    def test_rhs_limit_form(self):
        alpha, beta, a = 1.0, 2.0, 1.0
        op = jacobi_operator_2dom(a, 0.0, 0.0, JumpData(alpha, beta))
        P = calderon_halfline(a)
        expected = np.concatenate([-P @ X2 @ [alpha, beta], P @ [alpha, beta]])
        assert np.max(np.abs(op.rhs_tilde - expected)) < 1e-15

    def test_spectrum_law_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s1, s2 = rng.uniform(-0.9, 3.0, 2)
            if abs(s1) < 1e-12 or abs(s2) < 1e-12:
                continue
            op = jacobi_operator_2dom(1.7, s1, s2, JumpData(0.2, 0.1))
            match_multisets(eig_dense(op.matrix).eigenvalues,
                            sigma_points(s1, s2), 1e-10)

    def test_purely_imaginary_for_negative_sigma(self):
        op = jacobi_operator_2dom(1.0, -0.4, -0.2, JumpData(0, 0))
        w = eig_dense(op.matrix).eigenvalues
        assert np.max(np.abs(w.real)) < 1e-12

    def test_complex_sigma_supported(self):
        s1, s2 = 0.2 + 0.3j, -0.1 - 0.2j
        op = jacobi_operator_2dom(1.0, s1, s2, JumpData(1.0, 1.0))
        match_multisets(eig_dense(op.matrix).eigenvalues,
                        sigma_points(s1, s2), 1e-10)

    def test_nilpotency_at_zero(self):
        op = jacobi_operator_2dom(3.0, 0.0, 0.0, JumpData(1.0, 2.0))
        assert np.max(np.abs(op.matrix @ op.matrix)) < 1e-13

    def test_a_independence(self):
        s1, s2 = 0.35, 1.4
        base = np.sort_complex(eig_dense(
            jacobi_operator_2dom(0.5, s1, s2, JumpData(0, 0)).matrix).eigenvalues)
        for a in (1.0, 5.0, 20.0):
            w = np.sort_complex(eig_dense(
                jacobi_operator_2dom(a, s1, s2, JumpData(0, 0)).matrix).eigenvalues)
            assert np.max(np.abs(w - base)) < 1e-10

    def test_divergence_boundary(self):
        for s, expect in ((-0.6, "diverge"), (-0.5, "stagnate"), (-0.4, "converge")):
            op = jacobi_operator_2dom(1.0, s, s, JumpData(0, 0))
            rho = np.max(np.abs(eig_dense(op.matrix).eigenvalues))
            if expect == "diverge":
                assert rho > 1 + 1e-10
            elif expect == "stagnate":
                assert abs(rho - 1.0) < 1e-12
            else:
                assert rho < 1 - 1e-10


class TestBlockJacobiRun:
    def test_direct_solver_two_steps(self):
        op = jacobi_operator_2dom(1.0, 0.0, 0.0, JumpData(1.0, 2.0))
        hist = block_jacobi_run(op, np.array([3.0, -1.0, 0.5, 2.0]), 4)
        assert hist.errors[2] <= 1e-12
        assert hist.errors[3] <= 1e-12

    def test_exact_two_step_contraction(self):
        s = 0.1
        op = jacobi_operator_2dom(1.0, s, s, JumpData(1.0, 0.5))
        hist = block_jacobi_run(op, np.array([1.0, 1.0, -1.0, 0.0]), 10)
        ratios = hist.errors[2:] / hist.errors[:-2]
        assert np.max(np.abs(ratios - s / (1 + s))) < 1e-10

    def test_fixed_point_is_stationary(self):
        op = jacobi_operator_2dom(1.0, 0.4, 0.8, JumpData(1.0, -1.0))
        star = jacobi_fixed_point(op)
        hist = block_jacobi_run(op, star, 3)
        assert np.max(hist.errors) < 1e-12

    def test_fixed_point_solves_mtf_system(self):
        a, s1, s2 = 1.4, 0.6, 0.2
        jump = JumpData(0.7, -1.1)
        star = jacobi_fixed_point(jacobi_operator_2dom(a, s1, s2, jump))
        assert residual(mtf_2dom(a, s1, s2, jump), star) < 1e-12


class TestFixedPointOnce:
    """Each operator solves its fixed point once (the nilpotent sum at
    sigma = 0 included) and is read-only, so the cached value holds."""

    @pytest.mark.parametrize("sigmas, solves", [
        ((0.4, -0.2), 1), ((0.3, 1.1, -0.6), 1), ((0.0, 0.0), 0),
        ((0.0, 0.0, 0.0), 0)])
    def test_solved_once(self, monkeypatch, sigmas, solves):
        calls = []
        solve = line1d.solve_dense
        monkeypatch.setattr(line1d, "solve_dense",
                            lambda *args: calls.append(1) or solve(*args))
        jumps = JumpData(0.3, -1.1), JumpData(0.8, 0.5)
        if len(sigmas) == 2:
            op = jacobi_operator_2dom(1.3, *sigmas, jumps[0])
        else:
            op = jacobi_operator_3dom(1.3, *sigmas, *jumps)
        hist = block_jacobi_run(op, np.ones(op.matrix.shape[0]), 4)
        assert jacobi_fixed_point(op) is hist.fixed_point
        assert jacobi_fixed_point(op) is hist.fixed_point
        assert len(calls) == solves
        for array in (op.matrix, op.rhs_tilde, hist.fixed_point):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    @pytest.mark.parametrize("count", [2, 3])
    def test_nilpotent_sum_matches_lu_solve(self, count):
        # at sigma = 0 the fixed point is the sum of J^k F, not an LU solve
        rng = np.random.default_rng(count)
        for a in np.exp(rng.uniform(np.log(0.1), np.log(10.0), 1000)):
            jumps = [JumpData(*rng.standard_normal(2))
                     for _ in range(count - 1)]
            op = (jacobi_operator_2dom(a, 0.0, 0.0, *jumps) if count == 2
                  else jacobi_operator_3dom(a, 0.0, 0.0, 0.0, *jumps))
            ref = solve_dense(np.eye(len(op.rhs_tilde)) - op.matrix,
                              op.rhs_tilde)
            # traces scale with a, so the bound is relative
            err = np.max(np.abs(jacobi_fixed_point(op) - ref))
            assert err < 1e-14 * np.max(np.abs(ref))


class TestMiddleSubdomain:
    def test_coupling_block_identities(self):
        for a in (0.3, 1.0, 8.0):
            P = calderon_halfline(a)
            R = middle_coupling_matrix(a)
            assert np.max(np.abs(P @ R)) < 1e-15
            assert np.max(np.abs(R @ P - R)) < 1e-15
            assert np.max(np.abs(R @ R)) < 1e-15

    def test_offdiagonal_scale(self):
        P0 = calderon_middle_3dom(1.0)
        # off-diagonal block is 2 a g(2) R = e^-2 R
        R = middle_coupling_matrix(1.0)
        assert np.max(np.abs(P0[:2, 2:] - 0.1353352832366127 * R)) < 1e-16

    def test_projector_property(self):
        rng = np.random.default_rng(12)
        for a in np.exp(rng.uniform(np.log(0.01), np.log(100.0), 100)):
            P0 = calderon_middle_3dom(a)
            assert np.max(np.abs(P0 @ P0 - P0)) < 1e-13

    def test_general_interval_still_projector(self):
        P0 = calderon_middle_3dom(0.7, interfaces=(-0.2, 2.5))
        assert np.max(np.abs(P0 @ P0 - P0)) < 1e-14


class TestThreeSubdomains:
    def test_spectrum_and_multiplicity(self):
        s0, s1, s2 = 0.3, -0.2, 1.5
        op = jacobi_operator_3dom(1.0, s0, s1, s2, JumpData(1, 2), JumpData(-1, 0.5))
        # middle-subdomain pair appears twice (two interface trace pairs)
        ref = np.concatenate([sigma_points(s0), sigma_points(s0),
                              sigma_points(s1), sigma_points(s2)])
        match_multisets(eig_dense(op.matrix).eigenvalues, ref, 1e-10)

    def test_equal_sigma_quarter(self):
        # equal relaxation makes the operator defective (nilpotent coupling
        # on top of a scalar), so eigenvalue accuracy degrades to ~1e-8
        op = jacobi_operator_3dom(1.0, 0.25, 0.25, 0.25, JumpData(1, 0), JumpData(0, 1))
        w = eig_dense(op.matrix).eigenvalues
        assert np.max(np.abs(np.abs(w) - 0.4472135954999579)) < 1e-7

    def test_spectrum_independent_of_a(self):
        s = (0.3, -0.2, 1.5)
        w1 = np.sort_complex(eig_dense(jacobi_operator_3dom(
            1.0, *s, JumpData(0, 0), JumpData(0, 0)).matrix).eigenvalues)
        w7 = np.sort_complex(eig_dense(jacobi_operator_3dom(
            7.0, *s, JumpData(0, 0), JumpData(0, 0)).matrix).eigenvalues)
        assert np.max(np.abs(w1 - w7)) < 1e-10

    def test_nilpotent_order_four(self):
        op = jacobi_operator_3dom(1.0, 0.0, 0.0, 0.0, JumpData(1, 2), JumpData(3, -1))
        J2 = op.matrix @ op.matrix
        assert np.max(np.abs(J2 @ J2)) < 1e-13
        assert np.max(np.abs(J2)) > 1e-3   # truly order four, not two

    def test_converges_in_four_steps(self):
        op = jacobi_operator_3dom(1.0, 0.0, 0.0, 0.0, JumpData(1, 2), JumpData(3, -1))
        rng = np.random.default_rng(5)
        hist = block_jacobi_run(op, rng.standard_normal(8), 5)
        assert hist.errors[4] <= 1e-12

    def test_fixed_point_solves_system(self):
        a, sig = 1.2, (0.4, 0.1, 0.9)
        jl, jr = JumpData(1.0, -0.3), JumpData(0.2, 2.0)
        op = jacobi_operator_3dom(a, *sig, jl, jr)
        sys3 = assemble_mtf(*line1d._line_3dom(a, *sig, jl, jr))
        star = jacobi_fixed_point(op)
        assert residual(sys3, star) < 1e-12

    def test_solution_is_exact_traces(self):
        # the right jump is oriented middle-minus-right in both the adapter
        # and the representation formula; outward derivatives per side
        a = 0.8
        jl, jr = JumpData(0.7, -0.4), JumpData(-1.2, 0.9)
        u = represent_1d_3dom(a, jl, jr)
        x1, x2 = -0.31, 0.42
        A = np.array([[np.exp(a * x1), np.exp(-a * x1)],
                      [np.exp(a * x2), np.exp(-a * x2)]])
        cp, cm = np.linalg.solve(A, [u(x1), u(x2)])
        um = lambda x: cp * np.exp(a * x) + cm * np.exp(-a * x)
        dm = lambda x: a * cp * np.exp(a * x) - a * cm * np.exp(-a * x)
        ul = u(-2.0) * np.exp(a)     # decaying half lines: u ~ exp(-a|x|)
        ur = u(2.0) * np.exp(a)
        exact = np.array([ul, a * ul, um(-1), -dm(-1), um(1), dm(1),
                          ur, a * ur])
        U = assemble_mtf(*line1d._line_3dom(a, 0.3, -0.2, 1.5, jl,
                                            jr)).solve()
        assert np.max(np.abs(U - exact)) < 1e-12


class TestFourSubdomains:
    interfaces = (-1.0, 0.5, 1.5)
    jumps = np.array([(1.0, -0.3), (0.2, 2.0), (-0.5, 0.8)])

    def test_spectrum_law_and_multiplicity(self):
        sig = (0.3, -0.2, 1.5, 0.7)
        # each middle subdomain owns two trace pairs, so its pair is double
        ref = np.concatenate([sigma_points(sig[0]), sigma_points(sig[1]),
                              sigma_points(sig[1]), sigma_points(sig[2]),
                              sigma_points(sig[2]), sigma_points(sig[3])])
        for a in (0.3, 1.0, 4.0):
            op = jacobi_operator(line_projectors(a, self.interfaces), sig,
                                 self.jumps)
            match_multisets(eig_dense(op.matrix).eigenvalues, ref, 1e-10)

    def test_nilpotent_order_six(self):
        op = jacobi_operator(line_projectors(1.0, self.interfaces),
                             (0.0, 0.0, 0.0, 0.0), self.jumps)
        J5 = np.linalg.matrix_power(op.matrix, 5)
        assert np.max(np.abs(J5)) > 1e-2      # truly order six
        assert np.max(np.abs(J5 @ op.matrix)) < 1e-15

    def test_direct_solver_six_steps(self):
        op = jacobi_operator(line_projectors(1.0, self.interfaces),
                             (0.0, 0.0, 0.0, 0.0), self.jumps)
        rng = np.random.default_rng(6)
        hist = block_jacobi_run(op, rng.standard_normal(12), 7)
        assert hist.errors[5] > 1e-6
        assert hist.errors[6] <= 1e-12

    def test_fixed_point_solves_system(self):
        args = (line_projectors(1.2, self.interfaces), (0.4, 0.1, 0.9, 0.6),
                self.jumps)
        star = jacobi_fixed_point(jacobi_operator(*args))
        assert residual(assemble_mtf(*args), star) < 1e-12

    def test_jump_relation_at_every_interface(self):
        # right minus left at every interface:
        # U_left - X U_right = (-alpha, beta)
        system = assemble_mtf(line_projectors(1.2, self.interfaces),
                              (0.4, 0.1, 0.9, 0.6), self.jumps)
        U = system.solve()
        for i, (alpha, beta) in enumerate(self.jumps):
            gap = U[4 * i:4 * i + 2] - X2 @ U[4 * i + 2:4 * i + 4]
            assert np.max(np.abs(gap - np.array([-alpha, beta]))) < 1e-12


class TestJacobiDenseOracle:
    """The closed form against ``D_M^-1 (D_M - M)`` and ``D_M^-1 rhs``, with
    ``D_M`` the 2x2 block diagonal of the assembled system, each block
    inverted by a dense solve (valid for nonzero relaxation only)."""

    @staticmethod
    def oracle(system):
        M, rhs = system.system_matrix, system.rhs
        J, F = np.zeros_like(M), np.zeros_like(rhs)
        for b in range(0, len(rhs), 2):
            blk = slice(b, b + 2)
            off = -M[blk].copy()
            off[:, blk] = 0.0
            J[blk] = scipy.linalg.solve(M[blk, blk], off)
            F[blk] = scipy.linalg.solve(M[blk, blk], rhs[blk])
        return J, F

    @staticmethod
    def projectors(layout, rng):
        if layout == "bounded":
            a = np.exp(rng.uniform(np.log(0.3), np.log(10.0)))
            geom = BoundedGeometry(rng.uniform(0.1, 0.9), a)
            return list(calderon_bounded(geom))
        a = np.exp(rng.uniform(np.log(0.3), np.log(3.0)))
        cuts = np.cumsum(rng.uniform(0.2, 2.0, int(layout) - 1))
        return line_projectors(a, cuts)

    @pytest.mark.parametrize("layout", ["2", "3", "4", "bounded"])
    def test_matches_dense_block_inverse(self, layout):
        rng = np.random.default_rng(31)
        for trial in range(20):
            projectors = self.projectors(layout, rng)
            k = len(projectors)
            sig = (rng.uniform(-0.9, 3.0, k)
                   + 1j * (trial % 2) * rng.uniform(-1.0, 1.0, k))
            sig[np.abs(sig) < 0.05] = 0.05
            data = rng.standard_normal((k - 1, 2))
            op = jacobi_operator(projectors, sig, data)
            J, F = self.oracle(assemble_mtf(projectors, sig, data))
            np.testing.assert_allclose(op.matrix, J, rtol=0, atol=1e-12)
            np.testing.assert_allclose(op.rhs_tilde, F, rtol=0, atol=1e-12)


def same_bytes(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


class TestReferenceArithmetic:
    """The builder, the run and the eigensolve give the bytes of the
    per-call formulas of ``oracle_line``, signbits included: real, complex,
    zero and signed-zero relaxation, and at a = 2000 middle intervals whose
    coupling underflows to signed zeros."""

    @staticmethod
    def relaxations(kind, count, rng):
        if kind == "zero":
            return np.zeros(count)
        sig = rng.uniform(-0.9, 3.0, count)
        if kind == "signed zero":
            sig[::2] = -0.0
        if kind == "complex":
            return sig + 1j * rng.uniform(-1.0, 1.0, count)
        return sig

    @pytest.mark.parametrize("kind", ["real", "complex", "zero",
                                      "signed zero"])
    @pytest.mark.parametrize("count", [2, 3, 4, 5])
    def test_bytes_of_the_reference(self, count, kind):
        rng = np.random.default_rng(40 + count)
        for a in [*np.exp(rng.uniform(np.log(0.5), np.log(20.0), 8)), 2000.0]:
            cuts = np.cumsum(rng.uniform(0.5, 2.0, count - 1))
            projectors = line_projectors(a, cuts)
            sig = self.relaxations(kind, count, rng)
            data = rng.standard_normal((count - 1, 2))
            if kind == "signed zero":
                data[0] = -0.0
            op = jacobi_operator(projectors, sig, data)
            J, F = jacobi_reference(projectors, sig, data)
            same_bytes(op.matrix, J)
            same_bytes(op.rhs_tilde, F)
            U0 = rng.standard_normal(len(F))
            hist = block_jacobi_run(op, U0, 6)
            for got, want in zip(
                    (hist.iterates, hist.errors, hist.fixed_point),
                    jacobi_run_reference(J, F, sig, U0, 6)):
                same_bytes(got, want)
            same_bytes(eig_dense(op.matrix).eigenvalues,
                       scipy.linalg.eigvals(J))

    def test_adapters_give_the_reference_bytes(self):
        rng = np.random.default_rng(45)
        for a in np.exp(rng.uniform(np.log(0.5), np.log(20.0), 50)):
            s0, s1, s2 = rng.uniform(-0.9, 3.0, 3)
            left, right = (JumpData(*rng.standard_normal(2)) for _ in "lr")
            H, M = calderon_halfline(a), calderon_middle_3dom(a)
            for op, (J, F) in (
                    (jacobi_operator_2dom(a, s1, s2, left),
                     jacobi_reference([H, H], (s1, s2),
                                      [(left.alpha, left.beta)])),
                    (jacobi_operator_3dom(a, s0, s1, s2, left, right),
                     jacobi_reference([H, M, H], (s1, s0, s2),
                                      [(left.alpha, left.beta),
                                       (-right.alpha, right.beta)]))):
                same_bytes(op.matrix, J)
                same_bytes(op.rhs_tilde, F)


class TestLineAtItsArithmetic:
    """After the first point of a size, a line point (operator, run, fixed
    point, eigenvalues) calls each LAPACK step once, with no driver lookup
    and no workspace query."""

    @pytest.mark.parametrize("sigmas, steps", [
        ((0.4, 1.3), {"geev": 1, "getrf": 1, "getrs": 1}),
        ((0.4, 1.3, -0.2), {"geev": 1, "getrf": 1, "getrs": 1}),
        ((0.2 + 0.5j, 1.0, 0.7), {"geev": 1, "getrf": 1, "getrs": 1}),
        ((0.0, 0.0), {"geev": 1}), ((0.0, 0.0, 0.0), {"geev": 1})])
    def test_one_call_per_step(self, monkeypatch, sigmas, steps):
        calls, lookups = collections.Counter(), []
        driver, get_funcs = linalg._driver, linalg.get_lapack_funcs

        def counted(name, *dtypes):
            run = driver(name, *dtypes)

            def call(*args, **kwargs):
                calls[name] += 1
                return run(*args, **kwargs)
            return call

        monkeypatch.setattr(linalg, "_driver", counted)
        monkeypatch.setattr(linalg, "get_lapack_funcs",
                            lambda *args: lookups.append(1)
                            or get_funcs(*args))
        jumps = JumpData(0.3, -1.1), JumpData(0.8, 0.5)

        def point():
            op = (jacobi_operator_2dom(1.3, *sigmas, jumps[0])
                  if len(sigmas) == 2
                  else jacobi_operator_3dom(1.3, *sigmas, *jumps))
            block_jacobi_run(op, np.ones(len(op.rhs_tilde)), 6)
            jacobi_fixed_point(op)
            eig_dense(op.matrix)

        point()
        calls.clear()
        lookups.clear()
        point()
        assert calls == steps
        assert lookups == []


class TestLineBuilderInput:
    H = calderon_halfline(1.0)
    M = calderon_middle_3dom(1.0)

    @pytest.mark.parametrize("projectors, sigmas, data, match", [
        ([H], (0.1,), np.zeros((0, 2)), "at least two subdomains"),
        ([H, H], (0.1, 0.2, 0.3), np.zeros((1, 2)), "at least two subdomains"),
        ([M, H], (0.1, 0.2), np.zeros((1, 2)), "2x2 projectors at both ends"),
        ([H, H, H], (0.1, 0.2, 0.3), np.zeros((2, 2)), "4x4 ones in between"),
        ([H, M, H], (0.1, 0.2, 0.3), np.zeros((1, 2)), "each of the 2"),
        ([H, H], (0.1, -1.0), np.zeros((1, 2)), "singular"),
        ([H, H], (np.nan, 0.1), np.zeros((1, 2)), r"\(nan\+0j\) is not"),
        ([H, H], (0.1, complex(0.0, np.inf)), np.zeros((1, 2)),
         "parameter infj is not finite"),
    ])
    def test_rejected(self, projectors, sigmas, data, match):
        for build in (assemble_mtf, jacobi_operator):
            with pytest.raises(ValueError, match=match):
                build(projectors, sigmas, data)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                 complex(0.2, np.nan)])
def test_adapters_reject_non_finite_sigma_before_building(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="relaxation parameter .* is "
                                             "not finite"):
            jacobi_operator_2dom(1.0, bad, 0.1, JumpData(0, 0))
        with pytest.raises(ValueError, match="not finite"):
            jacobi_operator_3dom(1.0, 0.1, 0.2, bad, JumpData(0, 0),
                                 JumpData(0, 0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                 complex(0.2, np.nan), complex(np.inf, 0.0)])
def test_jump_data_must_be_finite(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, beta in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(ValueError, match="jump data must be finite"):
                JumpData(alpha, beta)
    JumpData(complex(0.2, -1e300), np.float64(-1e300))   # finite is kept


class TestRepresentThreeSubdomains:
    def test_zero_jumps(self):
        u = represent_1d_3dom(1.0, JumpData(0, 0), JumpData(0, 0))
        assert np.all(u(np.array([-3.0, 0.0, 3.0])) == 0.0)

    def test_single_neumann_jump_left(self):
        u = represent_1d_3dom(1.0, JumpData(0.0, 1.0), JumpData(0.0, 0.0))
        x = np.array([-0.5, 0.0, 2.0])
        assert np.max(np.abs(u(x) - green_1d(1.0, x + 1.0))) < 1e-16

    def test_middle_traces_match_projector(self):
        # fit the two-mode expansion inside the middle interval; its traces
        # must reproduce the projector applied to the jump data
        a = 0.8
        jl, jr = JumpData(0.7, -0.4), JumpData(-1.2, 0.9)
        u = represent_1d_3dom(a, jl, jr)
        x1, x2 = -0.31, 0.42
        A = np.array([[np.exp(a * x1), np.exp(-a * x1)],
                      [np.exp(a * x2), np.exp(-a * x2)]])
        cp, cm = np.linalg.solve(A, [u(x1), u(x2)])
        uval = lambda x: cp * np.exp(a * x) + cm * np.exp(-a * x)
        uder = lambda x: a * cp * np.exp(a * x) - a * cm * np.exp(-a * x)
        traces = np.array([uval(-1), -uder(-1), uval(1), uder(1)])
        P0 = calderon_middle_3dom(a)
        data = np.array([jl.alpha, jl.beta, jr.alpha, jr.beta])
        assert np.max(np.abs(traces - P0 @ data)) < 1e-12

    def test_interface_evaluation_rejected(self):
        u = represent_1d_3dom(1.0, JumpData(1, 0), JumpData(0, 1))
        with pytest.raises(ValueError):
            u(1.0)
