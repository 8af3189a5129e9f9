"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
come; without ``-s`` they appear in the captured-output section of any
failure.  Tolerances are fixed here and nowhere else.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from multitrace import interval1d, line1d, spectra
from multitrace.bem2d import (KernelParams, assemble_calderon_2d,
                              assemble_coupling, make_circle, make_square,
                              make_three_domain)
from multitrace.bem2d.kernels import kernel_2d, kernel_radial_deriv
from multitrace.linalg import eig_dense
from helpers import match_multisets, trace_flip
from oracle_bessel import oracle_k0, oracle_k1

TWO_PI = 2.0 * np.pi


def announce(number, text):
    print(f"\nACCEPTANCE {number:2d}: PASS - {text}")


def sigma_points(*sigmas):
    return spectra.theoretical_points(sigmas)


@pytest.fixture(scope="module")
def square_interior_a1():
    mesh = make_square(32)                      # 128 elements
    par = KernelParams(1.0)
    P1 = assemble_calderon_2d(mesh, par, "interior")
    P2 = assemble_calderon_2d(mesh, par, "exterior")
    return mesh, P1, P2


def test_criterion_01_line_spectrum_law():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    zero = line1d.JumpData(0.0, 0.0)
    for _ in range(100):
        s1, s2 = rng.uniform(-0.9, 3.0, 2)
        op = line1d.jacobi_operator_2dom(1.0, s1, s2, zero)
        match_multisets(eig_dense(op.matrix).eigenvalues,
                        sigma_points(s1, s2), 1e-10)
    elapsed_2dom = time.perf_counter() - t0
    assert elapsed_2dom < 1.0

    t0 = time.perf_counter()
    for _ in range(100):
        s0, s1, s2 = rng.uniform(-0.9, 3.0, 3)
        op = line1d.jacobi_operator_3dom(1.0, s0, s1, s2, zero, zero)
        ref = np.concatenate([sigma_points(s0), sigma_points(s0),
                              sigma_points(s1), sigma_points(s2)])
        match_multisets(eig_dense(op.matrix).eigenvalues, ref, 1e-10)
    elapsed_3dom = time.perf_counter() - t0
    announce(1, f"spectrum law on 100 random relaxation pairs/triples "
                f"(1e-10), {elapsed_2dom:.2f}s + {elapsed_3dom:.2f}s")


def test_criterion_02_nilpotency_direct_solver():
    rng = np.random.default_rng(7)
    op2 = line1d.jacobi_operator_2dom(1.0, 0.0, 0.0, line1d.JumpData(1.0, 2.0))
    assert np.max(np.abs(op2.matrix @ op2.matrix)) <= 1e-13
    h2 = line1d.block_jacobi_run(op2, rng.standard_normal(4), 2)
    assert h2.errors[2] <= 1e-12

    op3 = line1d.jacobi_operator_3dom(1.0, 0.0, 0.0, 0.0,
                                      line1d.JumpData(1.0, 2.0),
                                      line1d.JumpData(-0.5, 0.3))
    J4 = np.linalg.matrix_power(op3.matrix, 4)
    assert np.max(np.abs(J4)) <= 1e-13
    h3 = line1d.block_jacobi_run(op3, rng.standard_normal(8), 4)
    assert h3.errors[4] <= 1e-12
    announce(2, "vanishing relaxation is a direct solver: "
                f"J2^2 = {np.max(np.abs(op2.matrix @ op2.matrix)):.1e}, "
                f"2-step error {h2.errors[2]:.1e}; "
                f"J3^4 = {np.max(np.abs(J4)):.1e}, "
                f"4-step error {h3.errors[4]:.1e}")


def test_criterion_03_a_independence():
    zero = line1d.JumpData(0.0, 0.0)
    s2dom, s3dom = (0.35, 1.4), (0.3, -0.2, 1.5)
    ref2 = eig_dense(line1d.jacobi_operator_2dom(0.5, *s2dom, zero).matrix).eigenvalues
    ref3 = eig_dense(line1d.jacobi_operator_3dom(0.5, *s3dom, zero, zero).matrix).eigenvalues
    for a in (1.0, 5.0, 20.0):
        w2 = eig_dense(line1d.jacobi_operator_2dom(a, *s2dom, zero).matrix).eigenvalues
        w3 = eig_dense(line1d.jacobi_operator_3dom(a, *s3dom, zero, zero).matrix).eigenvalues
        match_multisets(w2, ref2, 1e-10)
        match_multisets(w3, ref3, 1e-10)
    announce(3, "spectra of J2 and J3 independent of the material "
                "constant across a in {0.5, 1, 5, 20} (1e-10)")


def test_criterion_04_bounded_domain_identities():
    rng = np.random.default_rng(11)
    worst_rebuild, worst_proj = 0.0, 0.0
    for _ in range(100):
        a = np.exp(rng.uniform(np.log(0.01), np.log(100.0)))
        gamma = rng.uniform(0.05, 0.95)
        geom = interval1d.BoundedGeometry(gamma, a)
        P1, P2 = interval1d.calderon_bounded(geom)
        Q1, Q2 = interval1d.calderon_from_dtn(interval1d.dtn_operators(geom))
        worst_rebuild = max(worst_rebuild,
                            np.max(np.abs(P1 - Q1)), np.max(np.abs(P2 - Q2)))
        worst_proj = max(worst_proj,
                         np.max(np.abs(P1 @ P1 - P1)),
                         np.max(np.abs(P2 @ P2 - P2)))
    assert worst_rebuild <= 1e-12
    assert worst_proj <= 1e-13
    announce(4, f"DtN-built projectors match closed forms "
                f"(worst {worst_rebuild:.1e}) and are projectors "
                f"(worst {worst_proj:.1e}) over 100 random geometries")


def test_criterion_05_schwarz_equivalence():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(20):
        a = np.exp(rng.uniform(np.log(0.1), np.log(20.0)))
        gamma = rng.uniform(0.1, 0.9)
        geom = interval1d.BoundedGeometry(gamma, a)
        state0 = interval1d.SchwarzState(*rng.standard_normal(4))
        rep = interval1d.equivalence_check(geom, state0, 4)
        worst = max(worst, rep.max_deviation)
        assert rep.max_deviation <= 1e-12
        assert np.max(np.abs(rep.schwarz_history[2])) <= 1e-12
        assert np.max(np.abs(rep.jacobi_history[2])) <= 1e-12
    announce(5, f"optimal Schwarz and zero-relaxation block Jacobi agree "
                f"iterate-by-iterate (worst deviation {worst:.1e}), "
                "both exactly zero at step 2")


def test_criterion_06_cluster_reproduction(square_interior_a1):
    target = 0.30151134457776363
    results = []
    # circle
    t0 = time.perf_counter()
    mesh = make_circle(128)
    par = KernelParams(1.0)
    P1 = assemble_calderon_2d(mesh, par, "interior")
    P2 = assemble_calderon_2d(mesh, par, "exterior")
    sigmas = (0.1, 0.1)
    A, B = spectra.jacobi_2d_2dom(P1, P2, sigmas)
    res = spectra.pencil_spectrum(A, B, sigmas, eps=0.05)
    t_circle = time.perf_counter() - t0
    results.append(("circle", 1.0 - res.remainder_fraction, t_circle))
    # square (shared fixture assembly counted separately)
    t0 = time.perf_counter()
    _, P1s, P2s = square_interior_a1
    A, B = spectra.jacobi_2d_2dom(P1s, P2s, sigmas)
    res_s = spectra.pencil_spectrum(A, B, sigmas, eps=0.05)
    t_square = time.perf_counter() - t0
    results.append(("square", 1.0 - res_s.remainder_fraction, t_square))

    for name, fraction, elapsed in results:
        assert fraction >= 0.80, f"{name}: only {fraction:.1%} inside 0.05"
        assert elapsed < 120.0
    pts = np.unique(np.round(np.abs(res.theoretical_points), 6))
    assert abs(pts[-1] - target) < 1e-6
    announce(6, "128-element circle/square spectra cluster at +-0.301511: "
                + ", ".join(f"{n} {f:.1%} in {t:.0f}s" for n, f, t in results))


def test_criterion_07_four_clusters(square_interior_a1):
    _, P1, P2 = square_interior_a1
    sigmas = (-0.4, 1.0)
    A, B = spectra.jacobi_2d_2dom(P1, P2, sigmas)
    res = spectra.pencil_spectrum(A, B, sigmas, eps=0.1)
    # points come in the order (+p0, -p0, +p1, -p1)
    assert abs(res.theoretical_points[0] - 0.816496580927726j) < 1e-12
    assert abs(res.theoretical_points[2] - 0.7071067811865476) < 1e-12
    fr = res.cluster_fractions
    # four distinct clusters, each pair of opposite points carrying at
    # least 30% of the spectrum (a single point cannot: the four
    # clusters partition the spectrum in quarters)
    assert np.all(fr >= 0.10)
    assert fr[0] + fr[1] >= 0.30
    assert fr[2] + fr[3] >= 0.30
    announce(7, "four clusters near +-0.8165i and +-0.7071 with point "
                f"fractions {np.round(fr, 3).tolist()} at eps = 0.1")


def test_criterion_08_heterogeneous_a(square_interior_a1):
    mesh, P1, _ = square_interior_a1
    P2 = assemble_calderon_2d(mesh, KernelParams(5.0), "exterior")
    sigmas = (-0.4, 1.0)
    A, B = spectra.jacobi_2d_2dom(P1, P2, sigmas)
    res = spectra.pencil_spectrum(A, B, sigmas, eps=0.1)
    combined = float(res.cluster_fractions.sum())
    assert combined >= 0.60
    announce(8, f"material contrast a = (1, 5) preserves the accumulation "
                f"points: combined cluster fraction {combined:.1%} at eps = 0.1")


def test_criterion_09_three_subdomains_2d():
    inner, outer = make_three_domain(96, 96)
    par = KernelParams(1.0)
    P1 = assemble_calderon_2d(inner, par, "interior")
    P2 = assemble_calderon_2d(outer, par, "exterior")
    coup = assemble_coupling(inner, outer, par)

    sigmas = (0.25, 0.25, 0.25)
    A, B = spectra.jacobi_2d_3dom(P1, P2, coup, sigmas)
    res_eq = spectra.pencil_spectrum(A, B, sigmas, eps=0.1)
    assert abs(abs(res_eq.theoretical_points[0]) - 0.4472135954999579) < 1e-12
    combined_eq = 1.0 - res_eq.remainder_fraction
    assert combined_eq >= 0.70

    sigmas2 = (-0.4, 1.0, 0.25)
    A2, B2 = spectra.jacobi_2d_3dom(P1, P2, coup, sigmas2)
    res_d = spectra.pencil_spectrum(A2, B2, sigmas2, eps=0.1)
    combined_d = 1.0 - res_d.remainder_fraction
    assert combined_d >= 0.70
    # three distinct pairs all populated
    fr = res_d.cluster_fractions
    for k in range(0, 6, 2):
        assert fr[k] + fr[k + 1] >= 0.10
    announce(9, f"annulus spectra: equal relaxation clusters at +-0.44721 "
                f"({combined_eq:.1%} inside 0.1), distinct relaxation forms "
                f"three pairs ({combined_d:.1%} inside 0.1)")


def test_criterion_10_discrete_identities_refinement():
    pencil_residuals = []
    identity_residuals = []
    for n in (64, 128, 256):
        mesh = make_circle(n)
        par = KernelParams(1.0)
        P1 = assemble_calderon_2d(mesh, par, "interior")
        P2 = assemble_calderon_2d(mesh, par, "exterior")
        Q = scipy.linalg.solve(P1.M_block, P1.P)
        # projector residual of M^-1 P, measured in the mass pairing
        pencil_residuals.append(np.linalg.norm(P1.P @ Q - P1.P, 2))
        X = trace_flip(n)
        identity_residuals.append(
            np.linalg.norm(X @ P2.P @ X + P1.P - P1.M_block, 2))
    for coarse, fine in zip(pencil_residuals, pencil_residuals[1:]):
        assert fine <= coarse / 1.5
    # the complement identity cancels block-by-block for equal material
    # constants: its residual sits at the rounding floor on every level,
    # strictly below any geometrically decreasing sequence
    for coarse, fine in zip(identity_residuals, identity_residuals[1:]):
        assert fine <= max(coarse, 1e-13) / 1.5 or fine <= 1e-13
    for r in identity_residuals:
        assert r <= 1e-13
    announce(10, "projector residuals "
                 + " -> ".join(f"{r:.2e}" for r in pencil_residuals)
                 + " (ratios >= 1.5); complement identity exact to "
                 + f"{max(identity_residuals):.1e} on all levels")


def test_criterion_11_sweep_curve():
    zero = line1d.JumpData(0.0, 0.0)

    def builder(s):
        return eig_dense(line1d.jacobi_operator_2dom(1.0, s, s, zero).matrix
                         ).eigenvalues

    grid = np.sort(np.append(np.linspace(-0.95, 3.0, 200), -0.5))
    grid = grid[np.abs(grid + 1.0) > 1e-9]
    rows = spectra.sigma_sweep(builder, grid)
    worst = 0.0
    for sigma, res in rows:
        ref = spectra.spectral_radius_formula(sigma)
        worst = max(worst, abs(res.spectral_radius - ref))
        assert abs(res.spectral_radius - ref) <= 1e-10
        if sigma.real < -0.5:
            assert res.spectral_radius > 1.0
        elif sigma.real == -0.5:
            assert abs(res.spectral_radius - 1.0) <= 1e-12
        else:
            assert res.spectral_radius < 1.0
    announce(11, f"spectral radius sweep matches sqrt|s/(1+s)| on "
                 f"{len(rows)} grid points (worst {worst:.1e}); "
                 "divergence boundary at -0.5 confirmed")


def test_criterion_12_kernel_fidelity():
    z = np.geomspace(1e-8, 50.0, 240)
    k0_vals = kernel_2d(1.0, z) * TWO_PI
    k1_vals = -kernel_radial_deriv(1.0, z) * TWO_PI
    worst = 0.0
    for zi, v0, v1 in zip(z, k0_vals, k1_vals):
        r0, r1 = oracle_k0(zi), oracle_k1(zi)
        worst = max(worst, abs(v0 - r0) / abs(r0), abs(v1 - r1) / abs(r1))
    assert worst <= 1e-10
    announce(12, f"K0/K1 kernel matches the series/asymptotic oracle to "
                 f"{worst:.1e} relative over 240 points in [1e-8, 50]")
