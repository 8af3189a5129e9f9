"""Each gate passes on real program output and trips on a perturbed one."""

import numpy as np
import pytest

import gates
from multitrace import interval1d, line1d
from multitrace.bem2d import (KernelParams, assemble_calderon_2d,
                              assemble_coupling, make_three_domain)
from multitrace.linalg import eig_dense


def test_cluster_fraction_and_spectrum_gate():
    pts = gates.theoretical_points((0.1, 0.1))
    eigs = np.repeat(pts, 128)                       # 512 eigenvalues
    frac = gates.cluster_fraction(eigs, (0.1, 0.1), 0.05)
    assert frac == 1.0
    assert gates.spectrum_2d(512, 512, 0.3, frac) == []
    moved = eigs.copy()
    moved[:103] += 0.06                              # 20.1 % leave the clusters
    frac_moved = gates.cluster_fraction(moved, (0.1, 0.1), 0.05)
    assert frac_moved < gates.CLUSTER_FRAC_MIN
    assert gates.spectrum_2d(512, 512, 0.3, frac_moved)
    assert gates.spectrum_2d(511, 512, 0.3, frac)
    assert gates.spectrum_2d(512, 512, float("nan"))


def test_sweep_row_gate():
    rho = gates.analytic_radius(0.9)
    assert gates.sweep_row(0.9, rho, 384, 384) == []
    assert gates.sweep_row(0.9, rho + 2 * gates.SWEEP_RHO_TOL, 384, 384)
    assert gates.sweep_row(0.9, rho, 383, 384)
    # the discrete overshoot near 0 is allowed, divergence below -1/2 is not
    assert gates.sweep_row(0.0, 0.11, 384, 384) == []
    assert gates.sweep_row(-0.9, gates.analytic_radius(-0.9), 384, 384) == []
    assert gates.sweep_row(-0.6, 0.999, 384, 384)


@pytest.fixture(scope="module")
def three_domain():
    inner, outer = make_three_domain(16, 16)
    par = KernelParams(1.0)
    P1 = assemble_calderon_2d(inner, par, "interior")
    P2 = assemble_calderon_2d(outer, par, "exterior")
    return inner, P1, P2, assemble_coupling(inner, outer, par)


def _with_p(cal, P):
    return type(cal)(P, cal.M_block, cal.side, cal.mesh, cal.params)


def test_calderon_gate(three_domain):
    inner, P1, P2, coup = three_domain
    n = inner.n_nodes
    assert gates.calderon_accuracy(P1, coup.P1_tilde, n) == []
    assert gates.calderon_accuracy(coup.P2_tilde, P2, n) == []
    asym = P1.P.copy()
    asym[0, n + 1] *= 1 + 1e-10                      # V no longer symmetric
    assert gates.calderon_accuracy(_with_p(P1, asym), coup.P1_tilde, n)
    kt = P1.P.copy()
    kt[n + 2, n + 3] = np.nextafter(kt[n + 2, n + 3], np.inf)  # one ulp in K'
    assert gates.calderon_accuracy(_with_p(P1, kt), coup.P1_tilde, n)


def test_accuracy_gates(three_domain):
    inner, P1, _, _ = three_domain
    n = inner.n_nodes
    proj = gates.projector_residual(P1.P, P1.M_block)
    mode = gates.mode_relerr(P1.P[:n, n:], P1.M_block[:n, :n], inner.nodes, 1.0)
    assert proj > 0 and mode > 0
    assert gates.accuracy_bounds(gates.PROJ_RESIDUAL_MAX,
                                 gates.MODE_RELERR_MAX) == []
    assert gates.accuracy_bounds(1.01 * gates.PROJ_RESIDUAL_MAX, 0.0)
    assert gates.accuracy_bounds(0.0, 1.01 * gates.MODE_RELERR_MAX)
    # a perturbed V moves the Rayleigh quotients, a perturbed P the residual
    V = P1.P[:n, n:] * (1 + 1e-3)
    assert gates.mode_relerr(V, P1.M_block[:n, :n], inner.nodes, 1.0) > 5e-4
    P = P1.P.copy()
    P[0, 0] += 1e-2
    assert gates.projector_residual(P, P1.M_block) > 10 * proj


def _line_outputs(sigmas, steps=6):
    rng = np.random.default_rng(5)
    if len(sigmas) == 2:
        op = line1d.jacobi_operator_2dom(1.3, *sigmas, line1d.JumpData(1.0, 2.0))
    else:
        op = line1d.jacobi_operator_3dom(1.3, *sigmas, line1d.JumpData(1.0, 2.0),
                                         line1d.JumpData(-0.5, 0.3))
    dim = op.matrix.shape[0]
    hist = line1d.block_jacobi_run(op, rng.standard_normal(dim), steps)
    star = line1d.jacobi_fixed_point(op)
    resid = np.max(np.abs(op.matrix @ star + op.rhs_tilde - star))
    return eig_dense(op.matrix).eigenvalues, hist.errors, resid


@pytest.mark.parametrize("sigmas", [(0.3, 1.7), (-0.6, 0.2, 2.5)])
def test_line_law_gate(sigmas):
    eigs, errors, resid = _line_outputs(sigmas)
    assert gates.line_point(eigs, sigmas, errors, resid) == []
    moved = eigs.copy()
    moved[0] += 1e-8
    assert gates.line_point(moved, sigmas, errors, resid)
    assert gates.line_point(eigs, sigmas, errors, 1e-6)


@pytest.mark.parametrize("sigmas", [(0.0, 0.0), (0.0, 0.0, 0.0)])
def test_line_nilpotency_gate(sigmas):
    eigs, errors, resid = _line_outputs(sigmas)
    assert gates.line_point(eigs, sigmas, errors, resid) == []
    steps = 2 if len(sigmas) == 2 else 4
    late = errors.copy()
    late[steps] = 1e-9
    assert gates.line_point(eigs, sigmas, late, resid)


def test_interval_gate():
    geom = interval1d.BoundedGeometry(0.3, 4.0)
    rep = interval1d.equivalence_check(
        geom, interval1d.SchwarzState(0.5, -1.0, 2.0, 0.1), 4)
    Q1, Q2 = interval1d.calderon_from_dtn(interval1d.dtn_operators(geom))
    P1, P2 = interval1d.calderon_bounded(geom)
    rebuild = max(np.max(np.abs(P1 - Q1)), np.max(np.abs(P2 - Q2)))
    assert gates.interval_point(rep.max_deviation, rebuild) == []
    assert gates.interval_point(1e-11, rebuild)
    assert gates.interval_point(rep.max_deviation, 1e-11)
