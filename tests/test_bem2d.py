import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from scipy.special import k0, k1

from multitrace.bem2d import (MAX_QUAD_ORDER, KernelParams,
                              assemble_calderon_2d, assemble_coupling,
                              assemble_operators, cross_block, make_circle,
                              make_square, make_three_domain)
from multitrace.bem2d import assembly
from multitrace.bem2d.assembly import mass_matrix
from multitrace.bem2d.mesh import common_rotation_order
from multitrace import spectra
from multitrace.linalg import eig_generalized, solve_dense
from helpers import (cross_block_reference, match_multisets,
                     smooth_pair_tables_reference, trace_flip, without_group)
from oracle_kernels import kernel_2d, kernel_gradient_dot, kernel_radial_deriv


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
        M = mass_matrix(mesh.lengths)
        assert abs(M.sum() - mesh.lengths.sum()) < 1e-13
        assert np.max(np.abs(M - M.T)) == 0.0

    @pytest.mark.parametrize("mesh", [make_circle(24), make_square(3)],
                             ids=["circle", "square"])
    def test_rows_match_the_element_loop(self, mesh):
        # the element-by-element sum of the local P1 mass, bit for bit
        L, els = mesh.lengths, mesh.elements
        loc = np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])
        ref = np.zeros((mesh.n_nodes,) * 2)
        for k, l in np.ndindex(2, 2):
            ref[els[:, k], els[:, l]] += L * loc[k, l]
        assert np.array_equal(mass_matrix(L), ref)
        for rows in (1, 3, 8):
            assert np.array_equal(mass_matrix(L, rows), ref[:rows])


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
        n = len(ops.mass)
        ratio = (ops.single_layer @ np.ones(n)) / (ops.mass @ np.ones(n))
        assert ratio.max() - ratio.min() < 1e-12 * abs(ratio.max())

    def test_hypersingular_kills_no_constant(self, ops):
        # unlike the zero-frequency case the a^2 term keeps constants
        # out of the kernel of W
        n = len(ops.mass)
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
            Q = solve_dense(cal.M_block, cal.P)
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
        Q = solve_dense(cal.M_block, cal.P)
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
        P1 = assemble_calderon_2d(mesh, par, "interior")
        P2 = assemble_calderon_2d(mesh, par, "exterior")
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


class TestOperatorSetCache:
    """One operator set per mesh object and ``KernelParams``, read-only,
    and freed with its mesh."""

    def test_calderon_and_coupling_share_the_sets(self, monkeypatch):
        seen = []
        original = assembly._assemble_operators

        def counted(mesh, params):
            seen.append(mesh)
            return original(mesh, params)

        monkeypatch.setattr(assembly, "_assemble_operators", counted)
        inner, outer = make_three_domain(12, 16)
        par = KernelParams(1.5)
        assemble_calderon_2d(inner, par, "interior")
        shared = assemble_coupling(inner, outer, par)
        assert len(seen) == 2
        assert seen[0] is inner and seen[1] is outer
        # the shared sets change nothing against sets of fresh curves
        fresh = assemble_coupling(*make_three_domain(12, 16), par)
        assert np.array_equal(shared.P, fresh.P)
        assert np.array_equal(shared.M_block, fresh.M_block)

    def test_second_call_returns_the_same_set(self):
        mesh = make_circle(12)
        first = assemble_operators(mesh, KernelParams(1.0))
        assert assemble_operators(mesh, KernelParams(1.0)) is first
        other = assemble_operators(mesh, KernelParams(2.0))
        assert other is not first
        assert not np.array_equal(other.single_layer, first.single_layer)

    def test_fresh_mesh_gets_a_new_equal_set(self):
        par = KernelParams(1.0)
        mesh, twin = make_circle(12), make_circle(12)
        assert twin != mesh                 # meshes compare by identity
        first = assemble_operators(mesh, par)
        again = assemble_operators(twin, par)
        assert again is not first
        assert assemble_operators(mesh, par) is first
        for name in ("single_layer", "double_layer", "adj_double_layer",
                     "hypersingular", "mass"):
            assert np.array_equal(getattr(again, name), getattr(first, name))

    def test_shared_matrices_are_read_only(self):
        ops = assemble_operators(make_circle(8), KernelParams(1.0))
        with pytest.raises(ValueError, match="read-only"):
            ops.single_layer[0, 0] = 0.0
        for name in ("double_layer", "adj_double_layer", "hypersingular",
                     "mass"):
            assert not getattr(ops, name).flags.writeable, name

    def test_sets_are_freed_with_their_mesh(self, monkeypatch):
        # meshes of other tests may still be alive: start from an empty
        # store; without the cyclic collector only reference counting
        # frees the meshes and their sets
        monkeypatch.setattr(assembly, "_SETS", weakref.WeakKeyDictionary())
        gc.disable()
        try:
            inner, outer = make_three_domain(8, 8)
            par = KernelParams(1.0)
            P1 = assemble_calderon_2d(inner, par, "interior")
            coupling = assemble_coupling(inner, outer, par)
            assert len(assembly._SETS) == 2
            dead = weakref.ref(inner)
            del inner, outer, P1, coupling
            assert dead() is None
            assert len(assembly._SETS) == 0
        finally:
            gc.enable()


def operator_arrays(build_circle, build_square, build_annulus):
    """The matrices of one operator set on a circle and on a square, and
    the cross blocks of an annulus both ways, each assembled on fresh
    curves, so that no stored set or block is read."""
    out = []
    for mesh, par in ((build_circle(), KernelParams(1.0, 8)),
                      (build_square(), KernelParams(5.0, 12))):
        ops = assemble_operators(mesh, par)
        out += [ops.single_layer, ops.double_layer, ops.adj_double_layer,
                ops.hypersingular, ops.mass]
    inner, outer = build_annulus()
    out += [cross_block(inner, outer, KernelParams(2.0), -1.0, 1.0),
            cross_block(outer, inner, KernelParams(2.0), 1.0, -1.0)]
    return out


THREAD_MESHES = (lambda: make_circle(40), lambda: make_square(8),
                 lambda: make_three_domain(12, 16))


class _Boom(Exception):
    """Raised by a monkeypatched Bessel function."""


def count_pools(monkeypatch):
    """The worker counts of the thread pools that assembly opens from now."""
    opened, pool = [], assembly.ThreadPoolExecutor

    def counted(workers):
        opened.append(workers)
        return pool(workers)

    monkeypatch.setattr(assembly, "ThreadPoolExecutor", counted)
    return opened


class TestAssemblyThreads:
    """An assembly call whose element pairs span more than one ``_CHUNK``
    runs its pair tasks on a pool of ``_WORKERS`` threads that it opens
    and joins; a smaller one, such as one block row of a grouped curve,
    runs them on the calling thread.  The matrices do not depend on how
    many threads there are or how the tasks interleave.  At the default
    ``_CHUNK`` the ``THREAD_MESHES`` run inline, so the tests of the pool
    shrink ``_CHUNK``."""

    def test_one_worker_changes_nothing(self, monkeypatch):
        default = operator_arrays(*THREAD_MESHES)
        monkeypatch.setattr(assembly, "_WORKERS", 1)
        monkeypatch.setattr(assembly, "_CHUNK", 7)      # a pool of one
        for x, y in zip(operator_arrays(*THREAD_MESHES), default,
                        strict=True):
            assert np.array_equal(x, y)

    def test_more_workers_than_cores_change_nothing(self, monkeypatch):
        # many small tasks on 8 threads that switch every microsecond: a
        # lost or misplaced element block would show in the matrices
        default = operator_arrays(*THREAD_MESHES)
        monkeypatch.setattr(assembly, "_WORKERS", 8)
        monkeypatch.setattr(assembly, "_CHUNK", 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stressed = operator_arrays(*THREAD_MESHES)
        finally:
            sys.setswitchinterval(interval)
        for x, y in zip(stressed, default, strict=True):
            assert np.array_equal(x, y)

    def test_one_block_row_opens_no_pool(self, monkeypatch):
        opened = count_pools(monkeypatch)
        assemble_operators(make_circle(128), KernelParams(1.0))
        cross_block(*make_three_domain(128, 128), KernelParams(1.0))
        assert opened == []

    def test_more_pairs_than_a_chunk_open_one_pool_per_call(self,
                                                            monkeypatch):
        opened = count_pools(monkeypatch)
        for mesh in (make_square(32), without_group(make_circle(64))):
            del opened[:]
            assemble_operators(mesh, KernelParams(1.0))
            assert opened == [assembly._WORKERS]
            assembly._smooth_pair_tables(mesh, 1.0, 8)
            assert opened == [assembly._WORKERS] * 2
        inner, outer = make_three_domain(64, 64)
        del opened[:]
        cross_block(without_group(inner), without_group(outer),
                    KernelParams(1.0))
        assert opened == [assembly._WORKERS]

    @staticmethod
    def assert_no_thread_outlives(monkeypatch):
        before = threading.active_count()
        operator_arrays(*THREAD_MESHES)
        assert threading.active_count() == before

        def k1_raising(z):
            raise _Boom("k1")

        monkeypatch.setattr(assembly, "k1", k1_raising)
        inner, outer = make_three_domain(12, 16)
        for call in (lambda: assemble_operators(inner, KernelParams(1.0)),
                     lambda: cross_block(inner, outer, KernelParams(1.0))):
            with pytest.raises(_Boom):
                call()
            assert threading.active_count() == before
        monkeypatch.undo()
        assert assemble_operators(inner, KernelParams(1.0)).mass.size

    def test_no_thread_outlives_an_assembly(self, monkeypatch):
        # a small _CHUNK puts the THREAD_MESHES on the pool, whose first
        # error cancels the tasks not yet started
        monkeypatch.setattr(assembly, "_CHUNK", 7)
        opened = count_pools(monkeypatch)
        self.assert_no_thread_outlives(monkeypatch)
        assert len(opened) == 5     # three assemblies, then the two errors

    def test_inline_error_propagates(self, monkeypatch):
        opened = count_pools(monkeypatch)
        self.assert_no_thread_outlives(monkeypatch)
        assert opened == []


# curve pairs that cross or touch somewhere other than at Gauss points,
# and disjoint ones, the coarse annuli among them with midpoint
# separations that are not positive
MEETING_CURVES = {
    "crossing": lambda: (make_circle(12), make_circle(12, center=(0.5, 0.0))),
    "touching-at-node": lambda: (make_circle(12),
                                 make_circle(12, center=(2.0, 0.0))),
    "shared-edge": lambda: (make_square(4), make_square(4, center=(1.0, 0.0))),
}
DISJOINT_CURVES = {
    "annulus-8-8": lambda: make_three_domain(8, 8),
    "annulus-12-16": lambda: make_three_domain(12, 16),
    "annulus-3-3": lambda: make_three_domain(3, 3),
    "far-circles": lambda: (make_circle(12), make_circle(12, center=(5.0, 0.0))),
}
# concentric curves of a common rotation order that touch or cross, whose
# segment test reads one block row of the obs curve
GROUPED_MEETING_CURVES = {
    "equal-radii": lambda: (make_circle(16), make_circle(24)),
    "gap-1e-13": lambda: (make_circle(16), make_circle(16, 1.0 + 1e-13)),
    "circle-through-corners": lambda: (make_square(4),
                                       make_circle(16, math.sqrt(0.5))),
    "circle-across-sides": lambda: (make_square(4), make_circle(16, 0.6)),
}


class TestCoupling:
    def test_curves_must_differ(self):
        mesh = make_circle(12)
        with pytest.raises(ValueError):
            cross_block(mesh, mesh, KernelParams(1.0))

    def test_touching_curves_rejected(self):
        with pytest.raises(ValueError, match="intersect or touch"):
            cross_block(make_circle(12), make_circle(12), KernelParams(1.0))

    @pytest.mark.parametrize("name", MEETING_CURVES)
    def test_meeting_curves_rejected(self, name):
        obs, src = MEETING_CURVES[name]()
        for pair in ((obs, src), (src, obs)):
            with pytest.raises(ValueError, match="intersect or touch"):
                cross_block(*pair, KernelParams(1.0))

    @pytest.mark.parametrize("name", GROUPED_MEETING_CURVES)
    def test_grouped_meeting_curves_rejected(self, name):
        curves = GROUPED_MEETING_CURVES[name]()
        assert common_rotation_order(curves) >= 2
        twins = tuple(without_group(c) for c in curves)
        for obs, src in (curves, curves[::-1], twins, twins[::-1]):
            with pytest.raises(ValueError, match="intersect or touch"):
                cross_block(obs, src, KernelParams(1.0))

    @pytest.mark.parametrize("name", [*MEETING_CURVES, *DISJOINT_CURVES,
                                      *GROUPED_MEETING_CURVES])
    def test_one_block_row_decides_the_segment_test(self, name):
        # every other obs row is a turn of one in the block row, so the
        # block row decides as all rows do; uncommon centres give g = 1
        curves = {**MEETING_CURVES, **DISJOINT_CURVES,
                  **GROUPED_MEETING_CURVES}[name]()
        g = common_rotation_order(curves)
        for obs, src in (curves, curves[::-1]):
            tol = 1e-12 * max(obs.lengths.max(), src.lengths.max())
            n = obs.n_elements
            assert (assembly._segments_meet(obs, src, tol, n // g)
                    == assembly._segments_meet(obs, src, tol, n)), obs

    @pytest.mark.parametrize("name", DISJOINT_CURVES)
    def test_disjoint_curves_assemble(self, name):
        obs, src = DISJOINT_CURVES[name]()
        for pair in ((obs, src), (src, obs)):
            assert np.all(np.isfinite(cross_block(*pair,
                                                  KernelParams(1.0))))

    def test_nonpositive_a_rejected(self):
        inner, outer = make_three_domain(8, 8)
        with pytest.raises(ValueError, match="positive"):
            cross_block(inner, outer, KernelParams(0.0))

    @pytest.mark.parametrize("quad_order", [1, 0, -1, MAX_QUAD_ORDER + 1])
    def test_quad_order_out_of_range_rejected(self, quad_order):
        with pytest.raises(ValueError, match="quad_order must lie in"):
            KernelParams(1.0, quad_order)

    @pytest.mark.parametrize("a, quad_order, match", [
        (1.0, 8.0, "quad_order must lie in"),
        (1.0, "8", "quad_order must lie in"),
        (1 + 1j, 8, "a must be finite and positive"),
        (1 + 0j, 8, "a must be finite and positive")])
    def test_wrong_type_rejected(self, a, quad_order, match):
        with pytest.raises(ValueError, match=match):
            KernelParams(a, quad_order)

    def test_store_is_keyed_by_params(self):
        inner, outer = make_three_domain(8, 8)
        for par in (KernelParams(1.0), KernelParams(1.0, 6),
                    KernelParams(1.0), KernelParams(2.0)):
            cross_block(inner, outer, par)
        assert list(assembly._CROSS[inner][outer]) == [
            KernelParams(1.0), KernelParams(1.0, 6), KernelParams(2.0)]

    @pytest.mark.parametrize("a", [np.inf, -np.inf, np.nan])
    def test_non_finite_a_rejected(self, a):
        for build in (lambda: KernelParams(a),
                      lambda: kernel_2d(a, 1.0),
                      lambda: kernel_radial_deriv(a, 1.0)):
            with pytest.raises(ValueError,
                               match="a must be finite and positive"):
                build()

    @pytest.mark.parametrize("obs_sign, src_sign",
                             [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0),
                              (-1.0, -1.0)])
    def test_stored_blocks_match_fresh_integration(self, obs_sign,
                                                   src_sign):
        curves, par = make_three_domain(24, 32), KernelParams(2.0)
        cross_block(*curves, par)
        for order in (1, -1):               # the stored order, then swapped
            hit = cross_block(*curves[::order], par, obs_sign, src_sign)
            fresh = make_three_domain(24, 32)[::order]
            miss = cross_block(*fresh, par, obs_sign, src_sign)
            assert relative_error(hit, miss) <= 1e-14

    def test_signs_are_applied_exactly(self):
        inner, outer = make_three_domain(24, 32)
        par = KernelParams(1.0)
        R12 = assemble_coupling(inner, outer, par).R12_row
        unsigned = cross_block(*make_three_domain(24, 32), par)
        signed = unsigned.copy()
        signed[len(signed) // 2:] *= -1.0   # obs_normal_sign = -1
        assert np.array_equal(R12, signed)

    @pytest.mark.parametrize("freed", [0, 1])
    def test_cross_blocks_are_freed_with_either_curve(self, freed,
                                                      monkeypatch):
        # as for the operator sets: an empty store, no cyclic collector
        monkeypatch.setattr(assembly, "_CROSS", weakref.WeakKeyDictionary())

        def stored():
            return sum(len(pairs) for pairs in assembly._CROSS.values())

        gc.disable()
        try:
            curves = list(make_three_domain(8, 8))
            coupling = assemble_coupling(*curves, KernelParams(1.0))
            assert stored() == 1
            dead = weakref.ref(curves[freed])
            del coupling, curves[freed]
            assert dead() is None
            assert stored() == 0
        finally:
            gc.enable()

    def test_subdomain_blocks_built_once(self):
        inner, outer = make_three_domain(8, 12)
        coup = assemble_coupling(inner, outer, KernelParams(1.0))
        assert coup.P is coup.P
        assert coup.M_block is coup.M_block
        for shared in (coup.P, coup.M_block):
            with pytest.raises(ValueError, match="read-only"):
                shared[0, 0] = 1.0
        np.testing.assert_array_equal(
            coup.P, np.block([[coup.P1_tilde.P, coup.R12],
                              [coup.R21, coup.P2_tilde.P]]))

    @pytest.mark.parametrize("name", ["obs_normal_sign", "src_normal_sign"])
    @pytest.mark.parametrize("sign", [0.5, 0.0, -2.0, np.nan])
    def test_bad_normal_signs_rejected(self, name, sign):
        inner, outer = make_three_domain(8, 8)
        with pytest.raises(ValueError, match=name):
            cross_block(inner, outer, KernelParams(1.0), **{name: sign})

    @pytest.mark.parametrize("a", [1.0, 3.0])
    def test_cross_blocks_are_signed_block_transposes(self, a):
        """R21 = [[-qq^T, vq^T], [qv^T, -vv^T]] for R12 = [[vv, vq],
        [qv, qq]]: the two curves see the same distances, and the
        gradient of the kernel is odd in the offset.  The swapped call
        reads R12's stored blocks that way; R21 integrated on a fresh
        curve pair checks it."""
        inner, outer = make_three_domain(24, 32)
        par = KernelParams(a)
        cross_block(inner, outer, par, -1.0, 1.0)
        R21 = cross_block(outer, inner, par, 1.0, -1.0)
        fresh_inner, fresh_outer = make_three_domain(24, 32)
        integrated = cross_block(fresh_outer, fresh_inner, par, 1.0, -1.0)
        assert fresh_outer in assembly._CROSS        # a miss, stored
        assert relative_error(R21, integrated) <= 1e-14

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
        Q1 = solve_dense(P1.M_block, P1.P)
        Q12 = scipy.linalg.solve(coup.P1_tilde.M_block, coup.R12)
        lhs = Q1 @ X1 @ Q12 - X1 @ Q12
        assert np.linalg.norm(lhs, 2) < 2e-2 * np.linalg.norm(Q12, 2)
        X2 = trace_flip(outer.n_nodes)
        Q2 = solve_dense(P2.M_block, P2.P)
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
    the pointwise kernels paired by the five-operand einsum, on meshes
    without a rotation group (``TestRotationGroup`` compares the two)."""

    @pytest.mark.parametrize("geometry, a", [("circle", 1.0), ("square", 5.0)])
    def test_operators_match_einsum_reference(self, geometry, a, monkeypatch):
        def build():        # a fresh mesh per call: the reference misses
            return without_group(make_circle(32) if geometry == "circle"
                                 else make_square(8))

        par = KernelParams(a)
        fast = assemble_operators(build(), par)
        monkeypatch.setattr(assembly, "_smooth_pair_tables",
                            smooth_pair_tables_reference)
        slow = assemble_operators(build(), par)
        assert slow is not fast
        for name in ("single_layer", "double_layer", "hypersingular"):
            assert relative_error(getattr(fast, name),
                                  getattr(slow, name)) <= 1e-14, name

    @pytest.mark.parametrize("obs_sign, src_sign",
                             [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0),
                              (-1.0, -1.0)])
    def test_cross_blocks_match_einsum_reference(self, obs_sign, src_sign):
        inner, outer = map(without_group, make_three_domain(24, 32))
        for obs, src in ((inner, outer), (outer, inner)):
            fast = cross_block(obs, src, KernelParams(2.0), obs_sign,
                               src_sign)
            slow = cross_block_reference(obs, src, 2.0, obs_sign, src_sign)
            no, ns = obs.n_nodes, src.n_nodes
            for rows in (slice(0, no), slice(no, 2 * no)):
                for cols in (slice(0, ns), slice(ns, 2 * ns)):
                    assert relative_error(fast[rows, cols],
                                          slow[rows, cols]) <= 1e-14

    def test_coupling_blocks_match_einsum_reference(self):
        inner, outer = map(without_group, make_three_domain(24, 32))
        coup = assemble_coupling(inner, outer, KernelParams(1.0))
        assert relative_error(
            coup.R12, cross_block_reference(inner, outer, 1.0, -1.0, 1.0)
        ) <= 1e-14
        assert relative_error(
            coup.R21, cross_block_reference(outer, inner, 1.0, 1.0, -1.0)
        ) <= 1e-14


def turned_into_row(mesh, e, f):
    """The pair ``(e, f)`` turned into the block row of ``mesh``: the
    element pairs ``e < n / m`` that assembly tables."""
    s = mesh.n_elements // mesh.rotation_order
    return e % s, (f - e // s * s) % mesh.n_elements


class TestPairTableSymmetry:
    """The smooth pair tables and the adjacent singular tables evaluate
    K0/K1 once per unordered element pair and fill the (f, e) blocks from
    the (e, f) ones, turned into the block row."""

    @pytest.mark.parametrize("geometry, a", [("circle", 1.0), ("square", 5.0)])
    def test_chunk_size_changes_nothing(self, geometry, a, monkeypatch):
        mesh = make_circle(33) if geometry == "circle" else make_square(8)
        v_ref, k_ref = assembly._smooth_pair_tables(mesh, a, 8)
        for chunk in (1, 7):
            monkeypatch.setattr(assembly, "_CHUNK", chunk)
            v, k = assembly._smooth_pair_tables(mesh, a, 8)
            assert np.array_equal(v, v_ref), chunk
            assert np.array_equal(k, k_ref), chunk

    # the assembled element tables hold the adjacent singular blocks too
    @pytest.mark.parametrize("geometry, a, tables", [
        pytest.param("circle", 1.0, "smooth", id="circle-1.0"),
        pytest.param("square", 5.0, "smooth", id="square-5.0"),
        pytest.param("circle", 1.0, "assembled", id="circle-1.0-assembled"),
        pytest.param("square", 5.0, "assembled", id="square-5.0-assembled")])
    def test_single_layer_swapped_pair_is_transpose(self, geometry, a, tables,
                                                    monkeypatch):
        mesh = make_circle(33) if geometry == "circle" else make_square(8)
        if tables == "smooth":
            v, _ = assembly._smooth_pair_tables(mesh, a, 8)
        else:
            v, _ = element_tables(mesh, a, monkeypatch)
        assert v.shape[:2] == (mesh.n_elements // mesh.rotation_order,
                               mesh.n_elements)
        e, f = np.nonzero(~np.eye(*v.shape[:2], dtype=bool))
        assert np.array_equal(v[turned_into_row(mesh, f, e)],
                              v[e, f].transpose(0, 2, 1))

    def test_bessel_points_of_one_assembly(self, monkeypatch):
        """Points passed to the K0, K1, I0 and I1 that ``assembly`` looks
        up, in total and outside the smooth table (the coincident and
        adjacent singular corrections), on the 16-element circle without
        its rotation group.  The smooth table integrates no self or adjacent pair, and it runs
        beside the singular tables, so its points are counted alone."""
        points = []

        def counting(bessel):
            def counted(z):
                points.append(np.size(z))
                return bessel(z)
            return counted

        for name in ("k0", "k1", "i0", "i1"):
            monkeypatch.setattr(assembly, name, counting(getattr(assembly, name)))
        assemble_operators(without_group(make_circle(16)), KernelParams(1.0))
        total = sum(points)
        points.clear()
        assembly._smooth_pair_tables(without_group(make_circle(16)), 1.0, 8)
        assert total == 44_464
        assert total - sum(points) == 32_832

    @pytest.mark.parametrize("geometry", ["circle", "square"])
    def test_smooth_table_leaves_touching_pairs_zero(self, geometry):
        mesh = make_circle(33) if geometry == "circle" else make_square(8)
        v, k = assembly._smooth_pair_tables(mesh, 1.0, 8)
        n = mesh.n_elements
        e = np.arange(n // mesh.rotation_order)
        apart = np.ones(v.shape[:2], dtype=bool)
        apart[e, e] = apart[e, (e + 1) % n] = apart[e, (e - 1) % n] = False
        for table in (v, k):
            assert not table[~apart].any()
        # every other pair has its single layer (the double layer of
        # two elements on one side of the square is zero)
        assert np.all(v[apart].any(axis=(1, 2)))


# curves of the graded-order oracle, without their rotation groups; the
# outer annulus curve is the n = 128 circle, so the annulus adds its inner
# curve and cross blocks
GRADED_MESHES = {
    "circle-128": lambda: without_group(make_circle(128)),
    "circle-256": lambda: without_group(make_circle(256)),
    "square-128": lambda: without_group(make_square(32)),
    "square-256": lambda: without_group(make_square(64)),
    "annulus-inner-128": lambda: without_group(make_three_domain(128, 128)[0]),
}
GRADED_A = [0.05, 1.0, 5.0, 10.0, 30.0]


class TestGradedOrders:
    """Far element pairs and cross-curve pairs use the per-pair Gauss
    order of ``_pair_orders`` and still match the full-order einsum
    references to rounding."""

    @pytest.mark.parametrize("a", GRADED_A)
    @pytest.mark.parametrize("name", GRADED_MESHES)
    def test_operators_match_full_order_reference(self, name, a,
                                                  monkeypatch):
        par = KernelParams(a)
        fast = assemble_operators(GRADED_MESHES[name](), par)
        monkeypatch.setattr(assembly, "_smooth_pair_tables",
                            smooth_pair_tables_reference)
        slow = assemble_operators(GRADED_MESHES[name](), par)   # a fresh mesh
        assert slow is not fast
        for op in ("single_layer", "double_layer", "adj_double_layer",
                   "hypersingular"):
            assert relative_error(getattr(fast, op),
                                  getattr(slow, op)) <= 1e-14, op

    @pytest.mark.parametrize("a", GRADED_A)
    def test_annulus_cross_blocks_match_full_order_reference(self, a):
        inner, outer = map(without_group, make_three_domain(128, 128))
        coup = assemble_coupling(inner, outer, KernelParams(a))
        assert relative_error(
            coup.R12, cross_block_reference(inner, outer, a, -1.0, 1.0)
        ) <= 1e-14
        assert relative_error(
            coup.R21, cross_block_reference(outer, inner, a, 1.0, -1.0)
        ) <= 1e-14

    @pytest.mark.parametrize("quad_order", [2, 3, 8, 12])
    @pytest.mark.parametrize("a", GRADED_A)
    def test_order_rule_bounds_and_symmetry(self, a, quad_order):
        rng = np.random.default_rng(7)
        mid1, mid2 = rng.uniform(-2.0, 2.0, (2, 500, 2))
        L1, L2 = rng.uniform(1e-3, 0.5, (2, 500))
        q12 = assembly._pair_orders(mid1, L1, mid2, L2, a, quad_order)
        q21 = assembly._pair_orders(mid2, L2, mid1, L1, a, quad_order)
        assert np.array_equal(q12, q21)
        assert q12.min() >= min(2, quad_order)
        assert q12.max() <= quad_order

    @pytest.mark.parametrize("a", GRADED_A)
    @pytest.mark.parametrize("geometry", ["circle", "square"])
    def test_touching_pairs_keep_quad_order(self, geometry, a):
        mesh = make_circle(64) if geometry == "circle" else make_square(16)
        mid, L = mesh.first_nodes + 0.5 * mesh.directions, mesh.lengths
        for other in (np.arange(mesh.n_elements), mesh.elements[:, 1]):
            q = assembly._pair_orders(mid, L, mid[other], L[other], a, 8)
            assert np.all(q == 8)

    @pytest.mark.parametrize("a", GRADED_A)
    @pytest.mark.parametrize("lengths", [(0.05, 0.05), (0.02, 0.1)])
    def test_order_never_rises_with_separation(self, a, lengths):
        L1, L2 = (np.full(400, length) for length in lengths)
        gap = np.geomspace(1e-4, 1e3, 400)
        mid2 = np.column_stack([0.5 * (L1 + L2) + gap, np.zeros(400)])
        q = assembly._pair_orders(np.zeros((400, 2)), L1, mid2, L2, a, 8)
        assert np.all(np.diff(q) <= 0)
        assert q[0] == 8
        if a * max(lengths) <= 1.0:     # else the decay term keeps 8
            assert q[-1] < 8

    @pytest.mark.parametrize("a", [1.0, 30.0])
    def test_cross_block_chunk_size_changes_nothing(self, a, monkeypatch):
        par = KernelParams(a)
        ref = cross_block(*make_three_domain(24, 32), par, -1.0, 1.0)
        for chunk in (1, 7):
            monkeypatch.setattr(assembly, "_CHUNK", chunk)
            inner, outer = make_three_domain(24, 32)    # a miss
            assert np.array_equal(cross_block(inner, outer, par, -1.0, 1.0),
                                  ref)

    def test_one_assembly_builds_every_gauss_rule(self):
        # a small assembly builds every Gauss rule later assemblies and
        # cross blocks of the same quad_order look up, whichever orders
        # their pairs use
        assembly.gauss01.cache_clear()
        assemble_operators(make_circle(4), KernelParams(1.0))
        built = assembly.gauss01.cache_info().misses
        inner, outer = make_three_domain(64, 64)
        assemble_coupling(inner, outer, KernelParams(1.0))
        assemble_operators(make_square(16), KernelParams(1.0))
        assert assembly.gauss01.cache_info().misses == built


# Largest relative Frobenius gap between the group path and the per-pair
# path, about 3x the largest measured on these meshes for a in {0.05, 1,
# 5, 30}: V 4.2e-15, K and K' 3.0e-14, W 1.0e-13 (W at a = 0.05, where
# its two terms cancel most), cross blocks 1.4e-15, q 2.9e-14.
GROUP_GAP = {"single_layer": 2e-14, "double_layer": 1e-13,
             "adj_double_layer": 1e-13, "hypersingular": 3e-13}
GROUP_CROSS_GAP = 5e-15
GROUP_Q_GAP = 1e-13
GROUP_MESHES = {"circle-128": lambda: make_circle(128),
                "square-8": lambda: make_square(8)}


class TestRotationGroup:
    """A mesh that declares a rotation group is assembled from one block
    row of element pairs and its ``q`` solved per Fourier mode; both
    match the per-pair path and the dense eigensolve of the same nodes to
    the rounding of congruent pairs (the circulant defect)."""

    @pytest.mark.parametrize("a", [0.05, 1.0, 5.0])
    @pytest.mark.parametrize("name", GROUP_MESHES)
    def test_operators_match_per_pair_path(self, name, a):
        mesh = GROUP_MESHES[name]()
        assert mesh.rotation_order == (128 if name == "circle-128" else 4)
        group = assemble_operators(mesh, KernelParams(a))
        dense = assemble_operators(without_group(mesh), KernelParams(a))
        for op, bound in GROUP_GAP.items():
            assert relative_error(getattr(group, op),
                                  getattr(dense, op)) <= bound, op
        assert np.array_equal(group.mass, dense.mass)

    @pytest.mark.parametrize("a", [1.0, 30.0])
    @pytest.mark.parametrize("n_inner, n_outer", [(24, 24), (24, 32)])
    def test_cross_blocks_match_per_pair_path(self, n_inner, n_outer, a):
        curves = make_three_domain(n_inner, n_outer)
        dense = [without_group(c) for c in curves]
        g = common_rotation_order(curves)
        for order in (1, -1):
            group = cross_block(*curves[::order], KernelParams(a), -1.0, 1.0)
            ref = cross_block(*dense[::order], KernelParams(a), -1.0, 1.0)
            assert relative_error(assembly._expand(group, g, blocks=2),
                                  ref) <= GROUP_CROSS_GAP

    def test_curves_about_other_centres_take_the_per_pair_path(self):
        near, far = make_circle(12), make_circle(12, center=(3.0, 0.0))
        assert relative_error(
            cross_block(near, far, KernelParams(1.0)),
            cross_block_reference(near, far, 1.0, 1.0, 1.0)) <= 1e-14

    @pytest.mark.parametrize("name", GROUP_MESHES)
    def test_q_matches_dense_eigensolve(self, name):
        P = assemble_calderon_2d(GROUP_MESHES[name](), KernelParams(1.0))
        q = spectra.calderon_eigenvalues(P)
        match_multisets(q, eig_generalized(P.P, P.M_block).eigenvalues,
                        GROUP_Q_GAP)

    def test_bessel_points_of_one_grouped_assembly(self, monkeypatch):
        """As ``TestPairTableSymmetry``'s count: the 16-element circle
        integrates one element row, 776 smooth points where the per-pair
        path takes 11,632, and one coincident and two adjacent singular
        pairs, 2052 points where it takes 32,832."""
        points = []

        def counting(bessel):
            def counted(z):
                points.append(np.size(z))
                return bessel(z)
            return counted

        for name in ("k0", "k1", "i0", "i1"):
            monkeypatch.setattr(assembly, name, counting(getattr(assembly, name)))
        assemble_operators(make_circle(16), KernelParams(1.0))
        total = sum(points)
        points.clear()
        assembly._smooth_pair_tables(make_circle(16), 1.0, 8)
        assert total == 2828
        assert total - sum(points) == 2052

    @pytest.mark.parametrize("name", ["circle-128", "square-32", "annulus"])
    def test_scatter_gets_one_block_row(self, name, monkeypatch):
        # element rows -1 .. n / m - 1 of each table, never the n x n one
        rows = []
        scatter = assembly._scatter

        def record(table):
            rows.append(table.shape[-4])
            return scatter(table)

        monkeypatch.setattr(assembly, "_scatter", record)
        if name == "annulus":
            obs, src = make_three_domain(24, 32)
            assert cross_block(obs, src, KernelParams(1.0)).shape == (6, 64)
            assert rows == [24 // 8 + 1]
        else:
            mesh = make_circle(128) if name == "circle-128" else make_square(32)
            ops = assemble_operators(mesh, KernelParams(1.0))
            s = mesh.n_elements // mesh.rotation_order
            assert rows == [s + 1] * 3
            for row in (ops.V, ops.K, ops.Kt, ops.W):
                assert row.shape == (s, mesh.n_elements)

    @pytest.mark.parametrize("name", GROUP_MESHES)
    def test_operators_equal_their_turn(self, name):
        mesh = GROUP_MESHES[name]()
        ops = assemble_operators(mesh, KernelParams(1.0))
        s = mesh.n_nodes // mesh.rotation_order
        for op in ("single_layer", "double_layer", "hypersingular"):
            X = getattr(ops, op)
            assert np.array_equal(np.roll(X, (s, s), axis=(0, 1)), X), op


def element_tables(mesh, a, monkeypatch):
    """The ``(n / m, n, 2, 2)`` V and K element rows that
    ``assemble_operators`` scatters, read by wrapping ``_scatter`` (whose
    rows start at element -1)."""
    tables = []
    scatter = assembly._scatter

    def record(rows):
        tables.append(rows[1:])
        return scatter(rows)

    monkeypatch.setattr(assembly, "_scatter", record)
    assemble_operators(mesh, KernelParams(a))
    return tables[0], tables[1]


def test_scatter_matches_element_loop():
    """``_scatter`` of the element rows -1 .. s - 1 of a table that the
    turn of order m moves by s rows and 9 / m columns, made whole by
    ``_expand``, adds ``loc[..., e, f, k, l]`` at the node pair
    ``(elements[e, k], elements[f, l])`` of two meshes, bit for bit;
    ``_with_previous`` gives row -1."""
    obs, src = make_circle(6), make_circle(9)
    for m in (1, 3):
        s, shift = 6 // m, 9 // m
        row = np.random.default_rng(m).standard_normal((3, s, 9, 2, 2))
        loc = np.stack([np.roll(row, p * shift, axis=-3) for p in range(m)],
                       axis=1).reshape(3, 6, 9, 2, 2)
        ref = np.zeros((3, obs.n_nodes, src.n_nodes))
        for k, l in np.ndindex(2, 2):
            for e, f in np.ndindex(6, 9):
                ref[:, obs.elements[e, k], src.elements[f, l]] += loc[
                    :, e, f, k, l]
        rows = assembly._with_previous(row, shift)
        assert np.array_equal(rows, np.concatenate([loc[:, -1:], row], 1))
        node_rows = assembly._scatter(rows)
        assert node_rows.shape == (3, s, 9)
        assert np.array_equal(
            [assembly._expand(x, m) for x in node_rows], ref), m


def dblquad_blocks(mesh, a, e, f):
    """2x2 V and K blocks of the ordered element pair ``(e, f)`` by
    adaptive quadrature of the pointwise kernels in the element
    parametrisation; the self pair is split along s = t, and its K block
    (zero on a straight element) is not integrated."""
    (x0, x1), (dx0, dx1) = mesh.first_nodes[e], mesh.directions[e]
    (y0, y1), (dy0, dy1) = mesh.first_nodes[f], mesh.directions[f]
    n0, n1 = mesh.normals[f]
    scale = mesh.lengths[e] * mesh.lengths[f] / (2.0 * np.pi)

    def kernel(t, s, op, p, q):
        d0 = x0 + s * dx0 - y0 - t * dy0
        d1 = x1 + s * dx1 - y1 - t * dy1
        r = math.hypot(d0, d1)
        ker = k0(a * r) if op == 0 else a * k1(a * r) * (d0 * n0 + d1 * n1) / r
        return scale * (s if p else 1.0 - s) * (t if q else 1.0 - t) * ker

    if e == f:
        triangles = ((lambda s: 0.0, lambda s: s), (lambda s: s, lambda s: 1.0))
    else:
        triangles = ((lambda s: 0.0, lambda s: 1.0),)
    blocks = np.zeros((2, 2, 2))
    for op, p, q in np.ndindex(1 if e == f else 2, 2, 2):
        for lo, hi in triangles:
            blocks[op, p, q] += scipy.integrate.dblquad(
                kernel, 0.0, 1.0, lo, hi, args=(op, p, q),
                epsabs=0.0, epsrel=1e-13)[0]
    return blocks


class TestSingularCorrectionOracle:
    """The coincident and adjacent element blocks that overwrite the
    smooth table match adaptive quadrature of the pointwise kernels.  On
    the square, (1, 2) and (2, 1) meet the corner as (e, next(e)) and as
    (e, prev(e)); (1, 0) is a straight adjacent pair.  A pair beyond the
    block row is read as its turn: the square's (2, 1) is (0, 7)."""

    # QUADPACK may report roundoff at the 1e-13 request next to the log
    # singularity; the asserted bound is on the actual difference
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("geometry, a, pairs", [
        ("square", 5.0, ((1, 1), (1, 2), (1, 0), (2, 1))),
        ("circle", 1.0, ((0, 0), (0, 1), (0, 7)))])
    def test_singular_blocks_match_dblquad(self, geometry, a, pairs,
                                           monkeypatch):
        mesh = make_square(2) if geometry == "square" else make_circle(8)
        v_loc, k_loc = element_tables(mesh, a, monkeypatch)
        for e, f in pairs:
            ref_v, ref_k = dblquad_blocks(mesh, a, e, f)
            v, k = (x[turned_into_row(mesh, e, f)] for x in (v_loc, k_loc))
            assert relative_error(v, ref_v) <= 1e-12, (e, f)
            if e == f:
                assert np.all(k == 0.0)
            else:
                err = np.linalg.norm(k - ref_k)
                assert err <= 1e-12 * (np.linalg.norm(ref_k)
                                        or np.linalg.norm(ref_v)), (e, f)

