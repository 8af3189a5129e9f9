import numpy as np
import pytest
import scipy.linalg

from multitrace.bem2d import (KernelParams, assemble_calderon_2d,
                              assemble_coupling, assemble_operators,
                              cross_block, make_circle, make_square,
                              make_three_domain, mass_matrix)
from multitrace.bem2d import assembly
from multitrace.bem2d.kernels import kernel_2d, kernel_gradient_dot
from helpers import (cross_block_reference, smooth_pair_tables_reference,
                     trace_flip)


def circle_traces(mesh, a, x0):
    """Exact interior Cauchy data of the fundamental solution centered at
    an exterior point, interpolated at the nodes of a circle mesh."""
    d = mesh.nodes - np.asarray(x0)
    r = np.linalg.norm(d, axis=1)
    radial = mesh.nodes / np.linalg.norm(mesh.nodes, axis=1, keepdims=True)
    return np.concatenate([kernel_2d(a, r),
                           kernel_gradient_dot(a, d, r, radial)])


def pencil_projector_residual(cal):
    Q = scipy.linalg.solve(cal.M_block, cal.P)
    return np.linalg.norm(cal.P @ Q - cal.P, 2)


class TestMassMatrix:
    def test_row_sums_are_lengths(self):
        mesh = make_circle(16)
        M = mass_matrix(mesh)
        assert abs(M.sum() - mesh.total_length) < 1e-13
        assert np.max(np.abs(M - M.T)) == 0.0


@pytest.fixture(scope="module")
def ops():
    mesh = make_circle(24)
    return assemble_operators(mesh, KernelParams(1.0))


@pytest.fixture(scope="module")
def coupling_setup():
    inner, outer = make_three_domain(24, 32)
    par = KernelParams(1.0)
    coup = assemble_coupling(inner, outer, par)
    P1 = assemble_calderon_2d(inner, par, "interior")
    P2 = assemble_calderon_2d(outer, par, "exterior")
    return inner, outer, coup, P1, P2


class TestOperatorSet:
    def test_single_layer_symmetric(self, ops):
        V = ops.single_layer
        assert np.max(np.abs(V - V.T)) <= 1e-10 * np.max(np.abs(V))

    def test_hypersingular_symmetric(self, ops):
        W = ops.hypersingular
        assert np.max(np.abs(W - W.T)) <= 1e-10 * np.max(np.abs(W))

    def test_adjoint_is_transpose(self, ops):
        assert np.array_equal(ops.adj_double_layer, ops.double_layer.T)

    def test_all_finite(self, ops):
        for block in (ops.single_layer, ops.double_layer,
                      ops.hypersingular, ops.mass):
            assert np.all(np.isfinite(block))

    def test_constant_single_layer_on_circle(self, ops):
        # rotational symmetry: V applied to the constant density is a
        # constant function, so nodal values of V1/M1 coincide
        n = ops.mesh.n_nodes
        ratio = (ops.single_layer @ np.ones(n)) / (ops.mass @ np.ones(n))
        assert ratio.max() - ratio.min() < 1e-12 * abs(ratio.max())

    def test_hypersingular_kills_no_constant(self, ops):
        # unlike the zero-frequency case the a^2 term keeps constants
        # out of the kernel of W
        n = ops.mesh.n_nodes
        w1 = ops.hypersingular @ np.ones(n)
        assert np.linalg.norm(w1) > 1e-3

    def test_quadrature_order_convergence(self):
        # raising the smooth quadrature order changes entries only at
        # levels far below the discretization scale
        mesh = make_circle(12)
        v8 = assemble_operators(mesh, KernelParams(1.0, 8)).single_layer
        v12 = assemble_operators(mesh, KernelParams(1.0, 12)).single_layer
        assert np.max(np.abs(v8 - v12)) < 1e-9 * np.max(np.abs(v8))


class TestCalderon:
    def test_representation_traces_reproduced(self):
        # traces of an exact solution are (approximate) fixed points
        a = 1.0
        prev = None
        for n in (16, 32, 64):
            mesh = make_circle(n)
            cal = assemble_calderon_2d(mesh, KernelParams(a), "interior")
            T = circle_traces(mesh, a, x0=(2.5, 0.4))
            Q = cal.operator()
            res = np.max(np.abs(Q @ T - T)) / np.max(np.abs(T))
            if prev is not None:
                assert res < prev / 1.5
            prev = res
        assert prev < 5e-4

    def test_exterior_representation(self):
        # source inside the hole makes the field a solution of the
        # exterior domain; its traces satisfy the exterior projector
        a, n = 1.0, 48
        mesh = make_circle(n)
        cal = assemble_calderon_2d(mesh, KernelParams(a), "exterior")
        d = mesh.nodes - np.array([0.2, -0.1])
        r = np.linalg.norm(d, axis=1)
        radial = mesh.nodes / np.linalg.norm(mesh.nodes, axis=1, keepdims=True)
        # outward normal of the exterior domain points inward
        T = np.concatenate([kernel_2d(a, r),
                            kernel_gradient_dot(a, d, r, -radial)])
        Q = cal.operator()
        assert np.max(np.abs(Q @ T - T)) / np.max(np.abs(T)) < 2e-3

    def test_projector_residual_decays(self):
        residuals = []
        for n in (16, 32, 64):
            cal = assemble_calderon_2d(make_circle(n), KernelParams(1.0),
                                       "interior")
            residuals.append(pencil_projector_residual(cal))
        assert residuals[1] < residuals[0] / 1.5
        assert residuals[2] < residuals[1] / 1.5

    def test_square_projector_residual_bounded(self):
        # corners stall the 2-norm residual at a small plateau (the error
        # concentrates in a fixed number of corner rows); it must stay
        # bounded and non-increasing even though it does not vanish
        residuals = []
        for n in (8, 16, 32):
            cal = assemble_calderon_2d(make_square(n), KernelParams(1.0),
                                       "interior")
            residuals.append(pencil_projector_residual(cal))
        assert residuals[0] < 5e-3
        assert residuals[2] <= residuals[1] <= residuals[0]

    def test_complement_identity_exact(self):
        mesh = make_circle(20)
        par = KernelParams(1.0)
        ops = assemble_operators(mesh, par)
        P1 = assemble_calderon_2d(mesh, par, "interior", operators=ops)
        P2 = assemble_calderon_2d(mesh, par, "exterior", operators=ops)
        X = trace_flip(mesh.n_nodes)
        resid = X @ P2.P @ X + P1.P - P1.M_block
        assert np.max(np.abs(resid)) < 1e-15

    def test_heterogeneous_deviation_compact(self):
        # different material constants break the complement identity by a
        # compact perturbation: eigenvalues concentrate at 0 under refinement
        fractions = []
        for n in (16, 32, 64):
            mesh = make_circle(n)
            P1 = assemble_calderon_2d(mesh, KernelParams(1.0), "interior")
            P2 = assemble_calderon_2d(mesh, KernelParams(5.0), "exterior")
            X = trace_flip(mesh.n_nodes)
            dev = scipy.linalg.solve(P1.M_block,
                                     X @ P2.P @ X + P1.P - P1.M_block)
            lam = np.abs(np.linalg.eigvals(dev))
            fractions.append(np.mean(lam > 0.25))
        assert fractions[2] < fractions[1] < fractions[0]

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            assemble_calderon_2d(make_circle(8), KernelParams(1.0), "outside")

    def test_foreign_operator_set_rejected(self):
        m1, m2 = make_circle(8), make_circle(12)
        ops = assemble_operators(m1, KernelParams(1.0))
        with pytest.raises(ValueError):
            assemble_calderon_2d(m2, KernelParams(1.0), operators=ops)

    def test_operator_set_of_other_params_rejected(self):
        mesh = make_circle(8)
        ops = assemble_operators(mesh, KernelParams(1.0))
        with pytest.raises(ValueError, match="assembled with"):
            assemble_calderon_2d(mesh, KernelParams(2.0), operators=ops)


class TestCoupling:
    def test_curves_must_differ(self):
        mesh = make_circle(12)
        with pytest.raises(ValueError):
            cross_block(mesh, mesh, 1.0)

    def test_touching_curves_rejected(self):
        with pytest.raises(ValueError, match="intersect or touch"):
            cross_block(make_circle(12), make_circle(12), 1.0)

    def test_nonpositive_a_rejected(self):
        inner, outer = make_three_domain(8, 8)
        with pytest.raises(ValueError, match="positive"):
            cross_block(inner, outer, 0.0)

    def test_passed_operator_sets_change_nothing(self):
        inner, outer = make_three_domain(12, 16)
        par = KernelParams(1.5)
        plain = assemble_coupling(inner, outer, par)
        shared = assemble_coupling(
            inner, outer, par, operators=(assemble_operators(inner, par),
                                          assemble_operators(outer, par)))
        assert np.array_equal(shared.P, plain.P)
        assert np.array_equal(shared.M_block, plain.M_block)

    def test_middle_projector_residual_decays(self):
        prev = None
        for n in (16, 32):
            inner, outer = make_three_domain(n, n)
            coup = assemble_coupling(inner, outer, KernelParams(1.0))
            P0, M0 = coup.P, coup.M_block
            res = np.linalg.norm(P0 @ scipy.linalg.solve(M0, P0) - P0, 2)
            if prev is not None:
                assert res < prev / 1.5
            prev = res

    def test_cross_products_annihilate(self, coupling_setup):
        inner, outer, coup, P1, P2 = coupling_setup
        Q12 = scipy.linalg.solve(coup.P1_tilde.M_block, coup.R12)
        Q21 = scipy.linalg.solve(coup.P2_tilde.M_block, coup.R21)
        scale = np.linalg.norm(Q12, 2) * np.linalg.norm(Q21, 2)
        assert np.linalg.norm(Q12 @ Q21, 2) < 1e-6 * scale
        assert np.linalg.norm(Q21 @ Q12, 2) < 1e-6 * scale

    def test_cross_products_shrink_under_refinement(self):
        values = []
        for n in (16, 24):
            inner, outer = make_three_domain(n, n)
            coup = assemble_coupling(inner, outer, KernelParams(1.0))
            Q12 = scipy.linalg.solve(coup.P1_tilde.M_block, coup.R12)
            Q21 = scipy.linalg.solve(coup.P2_tilde.M_block, coup.R21)
            scale = np.linalg.norm(Q12, 2) * np.linalg.norm(Q21, 2)
            values.append(np.linalg.norm(Q12 @ Q21, 2) / scale)
        assert values[1] < values[0] / 2.0

    def test_projector_absorbs_coupling(self, coupling_setup):
        # ranges of the cross blocks are (numerically) invariant under the
        # matching subdomain projector after the trace flip
        inner, outer, coup, P1, P2 = coupling_setup
        X1 = trace_flip(inner.n_nodes)
        Q1 = P1.operator()
        Q12 = scipy.linalg.solve(coup.P1_tilde.M_block, coup.R12)
        lhs = Q1 @ X1 @ Q12 - X1 @ Q12
        assert np.linalg.norm(lhs, 2) < 2e-2 * np.linalg.norm(Q12, 2)
        X2 = trace_flip(outer.n_nodes)
        Q2 = P2.operator()
        Q21 = scipy.linalg.solve(coup.P2_tilde.M_block, coup.R21)
        lhs2 = Q2 @ X2 @ Q21 - X2 @ Q21
        assert np.linalg.norm(lhs2, 2) < 2e-2 * np.linalg.norm(Q21, 2)

    def test_middle_complement_identity_exact(self, coupling_setup):
        inner, outer, coup, P1, P2 = coupling_setup
        X1 = trace_flip(inner.n_nodes)
        res1 = X1 @ coup.P1_tilde.P @ X1 + P1.P - P1.M_block
        assert np.max(np.abs(res1)) == 0.0
        X2 = trace_flip(outer.n_nodes)
        res2 = X2 @ coup.P2_tilde.P @ X2 + P2.P - P2.M_block
        assert np.max(np.abs(res2)) == 0.0


def relative_error(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


class TestFastPathOracle:
    """The BLAS contractions with one K0 and one K1 per point reproduce
    the pointwise kernels paired by the five-operand einsum."""

    @pytest.mark.parametrize("geometry, a", [("circle", 1.0), ("square", 5.0)])
    def test_operators_match_einsum_reference(self, geometry, a, monkeypatch):
        mesh = make_circle(32) if geometry == "circle" else make_square(8)
        par = KernelParams(a)
        fast = assemble_operators(mesh, par)
        monkeypatch.setattr(assembly, "_smooth_pair_tables",
                            smooth_pair_tables_reference)
        slow = assemble_operators(mesh, par)
        for name in ("single_layer", "double_layer", "hypersingular"):
            assert relative_error(getattr(fast, name),
                                  getattr(slow, name)) <= 1e-14, name

    @pytest.mark.parametrize("obs_sign, src_sign",
                             [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0),
                              (-1.0, -1.0)])
    def test_cross_blocks_match_einsum_reference(self, obs_sign, src_sign):
        inner, outer = make_three_domain(24, 32)
        for obs, src in ((inner, outer), (outer, inner)):
            fast = cross_block(obs, src, 2.0, obs_sign, src_sign)
            slow = cross_block_reference(obs, src, 2.0, obs_sign, src_sign)
            no, ns = obs.n_nodes, src.n_nodes
            for rows in (slice(0, no), slice(no, 2 * no)):
                for cols in (slice(0, ns), slice(ns, 2 * ns)):
                    assert relative_error(fast[rows, cols],
                                          slow[rows, cols]) <= 1e-14

    def test_coupling_blocks_match_einsum_reference(self, coupling_setup):
        inner, outer, coup, _, _ = coupling_setup
        assert relative_error(
            coup.R12, cross_block_reference(inner, outer, 1.0, -1.0, 1.0)
        ) <= 1e-14
        assert relative_error(
            coup.R21, cross_block_reference(outer, inner, 1.0, 1.0, -1.0)
        ) <= 1e-14


class TestMeshIoFormat:
    def test_operator_from_reloaded_mesh(self, tmp_path):
        from multitrace.bem2d.mesh import load_mesh, save_mesh
        mesh = make_circle(12)
        save_mesh(mesh, tmp_path / "c.txt")
        back = load_mesh(tmp_path / "c.txt")
        v1 = assemble_operators(mesh, KernelParams(1.0)).single_layer
        v2 = assemble_operators(back, KernelParams(1.0)).single_layer
        assert np.array_equal(v1, v2)
