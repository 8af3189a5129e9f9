import dataclasses
import re
import types
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from multitrace import line1d
from multitrace.bem2d import (DiscreteCalderon, KernelParams,
                              assemble_calderon_2d, assemble_coupling,
                              assemble_operators, make_circle, make_square,
                              make_three_domain)
from multitrace.bem2d.assembly import CouplingSet, mass_matrix
from multitrace.bem2d.mesh import common_rotation_order
from multitrace.linalg import SingularMatrixError, eig_generalized
from multitrace.spectra import (_symbols, calderon_eigenvalues, calderon_map,
                                cluster_report, jacobi_2d_2dom,
                                jacobi_2d_3dom, jacobi_pencil,
                                pencil_spectrum, sigma_sweep,
                                spectral_radius_formula, theoretical_points)
from helpers import line_spectrum, match_multisets, trace_flip, without_group


def minus_symmetric(eigs, tol):
    """Spectrum symmetric under negation, by optimal pairing."""
    match_multisets(eigs, -np.asarray(eigs), tol)


def two_sides(mesh, a=(1.0, 1.0)):
    """Interior and exterior projectors of one curve, material ``a``."""
    return tuple(assemble_calderon_2d(mesh, KernelParams(a_j), side)
                 for a_j, side in zip(a, ("interior", "exterior")))


def annulus(inner, outer, a=(2.0, 1.0, 1.0)):
    """``(inner disk, middle, outer)`` records, ``a`` middle first."""
    return (assemble_calderon_2d(inner, KernelParams(a[1]), "interior"),
            assemble_coupling(inner, outer, KernelParams(a[0])),
            assemble_calderon_2d(outer, KernelParams(a[2]), "exterior"))


@pytest.fixture(scope="module")
def circle_projectors():
    return two_sides(make_circle(48))


@pytest.fixture(scope="module")
def dense_circle_projectors():
    """The 48-element circle with no rotation group: the dense pencil."""
    return two_sides(without_group(make_circle(48)))


def _never_built(s):
    raise AssertionError(f"sigma {s} was built before the grid was checked")


# engine -> call with one relaxation parameter set to ``m``
SIGMA_ENGINES = {
    "jacobi_pencil": lambda circle, annulus, m: jacobi_pencil(
        circle, (0.1, m)),
    "jacobi_2d_2dom": lambda circle, annulus, m: jacobi_2d_2dom(
        *circle, (m, 0.1)),
    "jacobi_2d_3dom": lambda circle, annulus, m: jacobi_2d_3dom(
        annulus[0], annulus[2], annulus[1], (0.25, m, 0.25)),
    "calderon_map": lambda circle, annulus, m: calderon_map(
        np.zeros(4), np.ones(4), (0.1, m)),
    "sigma_sweep": lambda circle, annulus, m: sigma_sweep(
        _never_built, [0.5, m]),
    "line1d.jacobi_operator": lambda circle, annulus, m: (
        line1d.jacobi_operator([line1d.calderon_halfline(1.0)] * 2,
                               (m, 0.1), np.zeros((1, 2)))),
}


class TestTheory:
    def test_points_formula(self):
        pts = theoretical_points([0.1])
        assert abs(pts[0] - 0.30151134457776363) < 1e-15
        assert abs(pts[1] + 0.30151134457776363) < 1e-15

    def test_negative_sigma_imaginary(self):
        pts = theoretical_points([-0.4])
        assert abs(pts[0] - 0.816496580927726j) < 1e-15

    def test_radius_formula(self):
        assert abs(spectral_radius_formula(-0.6) - 1.224744871391589) < 1e-15
        assert spectral_radius_formula(0.0) == 0.0
        assert abs(spectral_radius_formula(-0.5) - 1.0) < 1e-15

    @pytest.mark.parametrize("minus_one", [-1, -1 + 0j, np.float64(-1)],
                             ids=["int", "complex", "float64"])
    @pytest.mark.parametrize("engine", SIGMA_ENGINES)
    def test_minus_one_sigma_rejected(self, engine, minus_one,
                                      circle_projectors, annulus_subdomains):
        # one check for the whole package, before any work is done
        with pytest.raises(ValueError, match=re.escape(
                "relaxation parameter -1 makes a diagonal block singular")):
            SIGMA_ENGINES[engine](circle_projectors, annulus_subdomains,
                                  minus_one)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(0.1, -np.inf)],
                             ids=["nan", "inf", "-inf", "complex-inf"])
    @pytest.mark.parametrize("engine", SIGMA_ENGINES)
    def test_non_finite_sigma_rejected(self, engine, bad, circle_projectors,
                                       annulus_subdomains):
        # named in the message, before any work and without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"relaxation parameter {complex(bad)} is not finite")):
                SIGMA_ENGINES[engine](circle_projectors, annulus_subdomains,
                                      bad)


class TestClusterReport:
    def test_exact_spectrum_all_inside(self):
        res = line_spectrum(1.0, (0.3, 0.8), eps=1e-9)
        # every eigenvalue is captured: full coverage, nothing left over
        assert abs(res.cluster_fractions.sum() - 1.0) < 1e-15
        assert np.all(res.cluster_fractions == 0.25)
        assert res.remainder_fraction == 0.0

    def test_zero_radius_empty_for_perturbed(self):
        eigs = np.array([0.1 + 1e-13, -0.1 - 1e-13])
        fractions, remainder = cluster_report(eigs, np.array([0.1, -0.1]), 0.0)
        assert np.all(fractions == 0.0)
        assert remainder == 1.0

    def test_fraction_bounds_disjoint(self):
        rng = np.random.default_rng(0)
        eigs = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        pts = np.array([2.5 + 0j, -2.5 + 0j])
        fractions, remainder = cluster_report(eigs, pts, 0.4)
        assert np.all((fractions >= 0) & (fractions <= 1))
        assert fractions.sum() <= 1.0 + 1e-12
        assert 0.0 <= remainder <= 1.0

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            cluster_report(np.array([1.0 + 0j]), np.array([1.0 + 0j]), -0.1)


class TestAnalyticPaths:
    def test_pencil_equals_closed_form_line(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            s1, s2 = rng.uniform(-0.9, 3.0, 2)
            res = line_spectrum(1.3, (s1, s2))
            match_multisets(res.eigenvalues,
                            np.concatenate([theoretical_points([s1]),
                                            theoretical_points([s2])]), 1e-10)

    def test_three_subdomain_multiplicity(self):
        s = (0.4, -0.3, 2.0)
        res = line_spectrum(1.0, s)
        ref = np.concatenate([theoretical_points([s[0]]),
                              theoretical_points([s[0]]),
                              theoretical_points([s[1]]),
                              theoretical_points([s[2]])])
        match_multisets(res.eigenvalues, ref, 1e-10)

    def test_nilpotent_all_zero(self):
        res = line_spectrum(1.0, (0.0, 0.0))
        assert np.max(np.abs(res.eigenvalues)) < 1e-13
        assert res.spectral_radius < 1e-13

    def test_spectrum_minus_symmetric(self):
        res = line_spectrum(2.0, (0.7, -0.3))
        minus_symmetric(res.eigenvalues, 1e-12)


class TestDiscretePencils:
    def test_circle_clusters(self, circle_projectors):
        P1, P2 = circle_projectors
        sigmas = (0.1, 0.1)
        A, B = jacobi_2d_2dom(P1, P2, sigmas)
        res = pencil_spectrum(A, B, sigmas, eps=0.05)
        assert res.remainder_fraction <= 0.05
        assert len(res.eigenvalues) == 4 * 48

    def test_sigma_zero_limit_path(self, circle_projectors):
        P1, P2 = circle_projectors
        sigmas = (0.0, 0.0)
        A, B = jacobi_2d_2dom(P1, P2, sigmas)
        res = pencil_spectrum(A, B, sigmas, eps=0.05)
        # discrete operator is only approximately nilpotent; all
        # eigenvalues collapse toward 0 at the discretization scale
        assert res.spectral_radius < 0.2

    def test_mixed_zero_nonzero(self, circle_projectors):
        P1, P2 = circle_projectors
        sigmas = (0.0, 1.0)
        A, B = jacobi_2d_2dom(P1, P2, sigmas)
        res = pencil_spectrum(A, B, sigmas, eps=0.1)
        # nonzero block clusters at +-sqrt(1/2), zero block near 0
        assert res.cluster_fractions[2] + res.cluster_fractions[3] > 0.4

    def test_spectrum_minus_symmetric(self, circle_projectors):
        # +-sqrt makes the computed spectrum symmetric by construction, so
        # the symmetry is checked on the QZ spectrum of the full pencil
        # and the computed spectrum is matched against it
        P1, P2 = circle_projectors
        sigmas = (0.25, 0.8)
        A, B = jacobi_2d_2dom(P1, P2, sigmas)
        res = pencil_spectrum(A, B, sigmas)
        qz = scipy.linalg.eigvals(*full_pencil_2dom(P1, P2, sigmas))
        minus_symmetric(qz, 1e-8)
        match_multisets(res.eigenvalues, qz, 1e-10)

    def test_complex_sigma(self, circle_projectors):
        P1, P2 = circle_projectors
        sigmas = (0.2 + 0.4j, 0.9)
        A, B = jacobi_2d_2dom(P1, P2, sigmas)
        res = pencil_spectrum(A, B, sigmas, eps=0.1)
        assert res.remainder_fraction < 0.2

    def test_refinement_improves_clusters(self):
        fractions = []
        for n in (16, 32, 64):
            mesh = make_circle(n)
            par = KernelParams(1.0)
            P1 = assemble_calderon_2d(mesh, par, "interior")
            P2 = assemble_calderon_2d(mesh, par, "exterior")
            sigmas = (0.1, 0.1)
            A, B = jacobi_2d_2dom(P1, P2, sigmas)
            res = pencil_spectrum(A, B, sigmas, eps=0.05)
            fractions.append(1.0 - res.remainder_fraction)
        assert fractions[1] >= fractions[0] - 0.02
        assert fractions[2] >= fractions[1] - 0.02

    def test_three_subdomain_small(self):
        inner, outer = make_three_domain(24, 24)
        par = KernelParams(1.0)
        P1 = assemble_calderon_2d(inner, par, "interior")
        P2 = assemble_calderon_2d(outer, par, "exterior")
        coup = assemble_coupling(inner, outer, par)
        sigmas = (0.25, 0.25, 0.25)
        A, B = jacobi_2d_3dom(P1, P2, coup, sigmas)
        res = pencil_spectrum(A, B, sigmas, eps=0.1)
        assert res.remainder_fraction < 0.1
        assert len(res.eigenvalues) == 8 * 24
        # squared spectrum concentrates at the single value s/(1+s)
        lam2 = res.eigenvalues ** 2
        assert np.mean(np.abs(lam2 - 0.2) < 0.1) > 0.9

    def test_three_subdomain_zero_sigma_middle(self):
        inner, outer = make_three_domain(16, 16)
        par = KernelParams(1.0)
        P1 = assemble_calderon_2d(inner, par, "interior")
        P2 = assemble_calderon_2d(outer, par, "exterior")
        coup = assemble_coupling(inner, outer, par)
        sigmas = (0.0, 0.5, 0.5)
        A, B = jacobi_2d_3dom(P1, P2, coup, sigmas)
        res = pencil_spectrum(A, B, sigmas, eps=0.1)
        assert np.all(np.isfinite(res.eigenvalues))


@pytest.fixture(scope="module")
def annulus_subdomains():
    return annulus(*make_three_domain(8, 12))


@pytest.fixture(scope="module")
def dense_annulus_subdomains():
    return annulus(*map(without_group, make_three_domain(8, 12)))


def dense_pencil(subdomains, sigmas, exchange):
    """Matrix form ``A = C X E``, ``B = diag(B_j)`` of the Jacobi splitting.

    ``C`` and ``B`` are block diagonal over subdomains, ``X`` flips the
    Neumann half of every trace block and the permutation ``exchange``
    maps each trace block to its neighbour's across the interface.
    """
    C = scipy.linalg.block_diag(*[sd.P if s == 0 else s * sd.M_block
                                  for sd, s in zip(subdomains, sigmas)])
    B = scipy.linalg.block_diag(*[sd.M_block if s == 0
                                  else (1 + s) * sd.M_block - sd.P
                                  for sd, s in zip(subdomains, sigmas)])
    X = scipy.linalg.block_diag(*[trace_flip(c.n_nodes)
                                  for sd in subdomains for c in sd.curves])
    E = np.eye(len(exchange))[exchange]
    return C @ X @ E, B


def full_pencil_2dom(P1, P2, sigmas):
    """Full pencil of the subdomains ``(P1, P2)`` sharing one curve."""
    n2 = P1.P.shape[0]
    return dense_pencil((P1, P2), sigmas, np.r_[n2:2 * n2, 0:n2])


def assert_red_pencil(A_red, B_red, A, B, red, sigmas):
    """``B_red^{-1} A_red`` is the ``red`` block of ``(B^{-1} A)^2`` and its
    +-sqrt spectrum is the QZ spectrum of the full pencil ``(A, B)``."""
    J = np.linalg.solve(B, A)
    ref = (J @ J)[np.ix_(red, red)]
    got = np.linalg.solve(B_red, A_red)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    eigs = pencil_spectrum(A_red, B_red, sigmas).eigenvalues
    match_multisets(eigs, scipy.linalg.eigvals(A, B), 1e-10)


SIGMA_PAIRS = [(0.1, 0.1), (0.0, 0.0), (0.0, 1.0), (-0.4, 1.0),
               (0.2 + 0.4j, -0.3)]
SIGMA_TRIPLES = [(0.25, 0.25, 0.25), (0.0, 0.0, 0.0), (0.0, 0.5, 0.5),
                 (-0.4, 1.0, 0.25), (0.5, 0.0, -0.3 - 0.1j)]


class TestJacobiPencil:
    """The layout of the dense pencil, on curves that declare no rotation
    group; :class:`TestModePencils` checks the same layout per mode."""

    @pytest.mark.parametrize("sigmas", SIGMA_PAIRS)
    def test_two_subdomains_match_dense_form(self, dense_circle_projectors,
                                             sigmas):
        P1, P2 = dense_circle_projectors
        A, B = jacobi_2d_2dom(P1, P2, sigmas)
        if np.isrealobj(sigmas):
            assert A.dtype == B.dtype == float
        else:
            assert A.dtype == B.dtype == complex
        # P1 is red: the red unknowns are U1
        assert_red_pencil(A, B, *full_pencil_2dom(P1, P2, sigmas),
                          np.arange(P1.P.shape[0]), sigmas)

    @pytest.mark.parametrize("sigmas", SIGMA_TRIPLES)
    def test_annulus_matches_dense_form(self, dense_annulus_subdomains,
                                        sigmas):
        P1, coup, P2 = dense_annulus_subdomains
        s0, s1, s2 = sigmas
        A, B = jacobi_2d_3dom(P1, P2, coup, sigmas)
        assert A.dtype == (float if np.isrealobj(sigmas) else complex)
        na, nb = P1.P.shape[0], P2.P.shape[0]
        # unknowns (U1, U01, U02, U2); U1 <-> U01 and U02 <-> U2 exchange
        o01, o02, o2 = na, 2 * na, 2 * na + nb
        swap = np.r_[o01:o02, 0:o01, o2:o2 + nb, o02:o2]
        A_full, B_full = dense_pencil((P1, coup, P2), (s1, s0, s2), swap)
        # inner and outer disk are red, the middle subdomain black
        assert_red_pencil(A, B, A_full, B_full, np.r_[0:na, o2:o2 + nb],
                          sigmas)

    def test_subdomain_order_permutes_unknowns(self,
                                               dense_circle_projectors):
        # listing P2 first makes it red: the other half-size product,
        # with the same spectrum
        P1, P2 = dense_circle_projectors
        A, B = jacobi_pencil((P1, P2), (0.3, -0.2))
        A2, B2 = jacobi_pencil((P2, P1), (-0.2, 0.3))
        np.testing.assert_array_equal(B, 1.3 * P1.M_block - P1.P)
        np.testing.assert_array_equal(B2, 0.8 * P2.M_block - P2.P)
        match_multisets(pencil_spectrum(A, B, (0.3, -0.2)).eigenvalues,
                        pencil_spectrum(A2, B2, (-0.2, 0.3)).eigenvalues,
                        1e-10)

    def test_odd_cycle_rejected(self):
        # three subdomains sharing three curves pairwise cannot be
        # coloured red and black
        curves = [types.SimpleNamespace(n_nodes=2) for _ in range(3)]
        rng = np.random.default_rng(4)
        triangle = [types.SimpleNamespace(P=rng.standard_normal((8, 8)),
                                          M_block=np.eye(8),
                                          curves=(curves[j],
                                                  curves[(j + 1) % 3]))
                    for j in range(3)]
        with pytest.raises(ValueError, match="odd cycle"):
            jacobi_pencil(triangle, (0.1, 0.1, 0.1))

    @pytest.mark.parametrize("subdomain", [0, 1])
    def test_singular_block_names_subdomain(self, subdomain):
        # as TestModePencils' test on the same nodes without a group: the
        # red block (subdomain 0) is checked apart from the pencil's
        # eigensolve, so it is named as the black one is
        P1, P2 = two_sides(without_group(make_circle(64)))
        q = calderon_eigenvalues(P1).real
        sigmas = (q.max() - 1, 0.1) if subdomain == 0 else (0.1, -q.min())
        with pytest.raises(SingularMatrixError, match=(
                f"^the diagonal block of subdomain {subdomain} is "
                "singular")) as err:
            jacobi_2d_2dom(P1, P2, sigmas)
        assert 0.0 <= err.value.pivot_magnitude < 1e-13

    def test_curve_bounding_one_subdomain_rejected(self, circle_projectors):
        P1, P2 = circle_projectors
        other = dataclasses.replace(P2, mesh=make_circle(48))
        with pytest.raises(ValueError, match="bounds 1 subdomain"):
            jacobi_2d_2dom(P1, other, (0.1, 0.1))

    def test_curve_bounding_three_subdomains_rejected(self,
                                                      circle_projectors):
        P1, P2 = circle_projectors
        with pytest.raises(ValueError, match="bounds 3 subdomain"):
            jacobi_pencil((P1, P2, P1), (0.1, 0.1, 0.1))

    def test_inconsistent_annulus_curves_rejected(self, annulus_subdomains):
        P1, coup, P2 = annulus_subdomains
        foreign = dataclasses.replace(
            coup, P1_tilde=dataclasses.replace(coup.P1_tilde,
                                               mesh=make_circle(8)))
        with pytest.raises(ValueError, match="bounds 1 subdomain"):
            jacobi_2d_3dom(P1, P2, foreign, (0.25, 0.25, 0.25))

    def test_trace_size_must_match_curves(self, circle_projectors):
        P1, P2 = circle_projectors
        coarse = make_circle(24)
        with pytest.raises(ValueError, match="rows"):
            jacobi_pencil((dataclasses.replace(P1, mesh=coarse),
                           dataclasses.replace(P2, mesh=coarse)), (0.1, 0.1))

    def test_sigma_count_must_match(self, circle_projectors):
        with pytest.raises(ValueError, match="2 subdomains"):
            jacobi_pencil(circle_projectors, (0.1,))


def line_records(a, count):
    """The line of ``count`` (2 or 3) subdomains as records: the ``line1d``
    projectors against a unit mass, each interface a one-node curve about
    a centre of its own."""
    def point(x):
        return types.SimpleNamespace(n_nodes=1, rotation_order=1,
                                     center=(x, 0.0))

    def record(P, *curves):
        return types.SimpleNamespace(P=P, M_block=np.eye(len(P)),
                                     curves=curves)

    half = line1d.calderon_halfline(a)
    if count == 2:
        c = point(0.0)
        return record(half, c), record(half, c)
    left, right = point(-1.0), point(1.0)
    return (record(half, left),
            record(line1d.calderon_middle_3dom(a), left, right),
            record(half, right))


class TestLineOracle:
    """On 1D line records ``jacobi_pencil`` gives the spectrum of the exact
    line operators ``jacobi_operator_2dom/_3dom``.  Distinct and complex
    sigma agree to 1.6e-15; equal sigma on three subdomains gives both
    operators Jordan blocks, which the eigensolvers resolve to about
    sqrt(eps) (6.0e-9 at most, measured on these cases)."""

    @pytest.mark.parametrize("a", [0.5, 1.3, 7.0])
    @pytest.mark.parametrize("sigmas, tol", [
        ((0.3, 0.7), 1e-13), ((0.2 + 0.4j, -0.3), 1e-13),
        ((0.5, 0.5), 1e-13), ((0.3, 0.7, 1.1), 1e-13),
        ((0.2 + 0.4j, -0.3, 2.0), 1e-13), ((0.5, 0.5, 0.5), 1e-7),
        ((-0.3, -0.3, -0.3), 1e-7)], ids=str)
    def test_line_records_give_the_line_spectrum(self, a, sigmas, tol):
        # sigmas list the middle subdomain first, the records left to right
        order = sigmas if len(sigmas) == 2 else (sigmas[1], sigmas[0],
                                                 sigmas[2])
        A, B = jacobi_pencil(line_records(a, len(sigmas)), order)
        assert A.shape == B.shape == (2 * len(sigmas) - 2,) * 2
        match_multisets(pencil_spectrum(A, B, sigmas).eigenvalues,
                        line_spectrum(a, sigmas).eigenvalues, tol)


# grouped records from a mesh map (identity or ``without_group``), their
# relaxation parameters in record order, and their rotation order
MODE_CASES = {
    "circle-real": (lambda w: two_sides(w(make_circle(32)), (1.0, 5.0)),
                    (-0.4, 1.0), 32),
    "circle-complex": (lambda w: two_sides(w(make_circle(32)), (1.0, 5.0)),
                       (0.2 + 0.4j, -0.3), 32),
    "square": (lambda w: two_sides(w(make_square(8)), (1.0, 5.0)),
               (0.3, 0.8), 4),
    # g = 4 gives the curves 3 and 4 nodes per sector
    "annulus-12-16": (lambda w: annulus(*map(w, make_three_domain(12, 16)),
                                        (2.0, 1.0, 5.0)),
                      (-0.4, 0.25, 1.0), 4),
}


class TestModePencils:
    """Curves that turn about one centre with a common rotation order g
    split the pencil into g Fourier modes; QZ of the dense pencil on the
    same nodes without a group is the oracle."""

    @pytest.mark.parametrize("case", MODE_CASES)
    def test_modes_match_qz_of_the_dense_pencil(self, case):
        build, sigmas, g = MODE_CASES[case]
        A, B = jacobi_pencil(build(lambda mesh: mesh), sigmas)
        A_dense, B_dense = jacobi_pencil(build(without_group), sigmas)
        assert A_dense.ndim == B_dense.ndim == 2
        r = len(A_dense) // g
        assert A.shape == B.shape == (g, r, r)
        match_multisets(eig_generalized(A, B).eigenvalues.ravel(),
                        scipy.linalg.eigvals(A_dense, B_dense), 1e-10)

    def test_curves_about_two_centres_keep_the_dense_pencil(self):
        inner = make_circle(12, 0.3, (0.1, 0.0))
        records = annulus(inner, make_circle(16))
        A, B = jacobi_pencil(records, (0.25, 0.3, 0.25))
        assert A.shape == B.shape == (2 * 28, 2 * 28)

    @pytest.mark.parametrize("subdomain", [0, 1])
    def test_singular_block_names_subdomain_and_mode(self, subdomain):
        # s = q_max - 1 zeroes 1 + s - q of the interior (red) block at
        # q_max, s = -q_min zeroes s + q of the exterior (black) block at
        # q_min.  q comes from the symbols the pencil factors, two per
        # mode: modes 0 .. 32, then the conjugates of modes 1 .. 31.
        P1, P2 = two_sides(make_circle(64))
        q = calderon_eigenvalues(P1).real.reshape(64, 2)
        at = q.argmax() if subdomain == 0 else q.argmin()
        sigmas = ((q.flat[at] - 1, 0.1) if subdomain == 0
                  else (0.1, -q.flat[at]))
        with pytest.raises(SingularMatrixError, match=(
                f"^the diagonal block of subdomain {subdomain} in mode "
                f"{at // q.shape[1]} is singular")) as err:
            jacobi_2d_2dom(P1, P2, sigmas)
        assert 0.0 <= err.value.pivot_magnitude < 1e-13


def whole_matrices(sd):
    """``P`` and ``M_block`` of a record formed whole, as they were before
    the records kept rows: the operator set's whole matrices, the mass of
    every element, and the coupling's whole cross blocks."""
    if isinstance(sd, CouplingSet):
        (P1, M1), (P2, M2) = map(whole_matrices, (sd.P1_tilde, sd.P2_tilde))
        return (np.block([[P1, sd.R12], [sd.R21, P2]]),
                scipy.linalg.block_diag(M1, M2))
    ops = assemble_operators(sd.mesh, sd.params)
    k = 1.0 if sd.side == "interior" else -1.0
    M = scipy.linalg.block_diag(*[mass_matrix(sd.mesh.lengths)] * 2)
    P = 0.5 * M + np.block([[-k * ops.double_layer, ops.single_layer],
                            [ops.hypersingular, k * ops.adj_double_layer]])
    return P, M


def whole_symbols(X, curves, g, fft):
    """The symbols of the whole matrix ``X`` as they were read before the
    records kept rows: its first ``n / g`` rows of each trace block
    gathered, then transformed as ``_symbols`` transforms rows."""
    per = np.repeat([c.n_nodes // g for c in curves], 2)
    first = np.flatnonzero(np.concatenate([np.arange(g * p) < p for p in per]))
    cols = first + np.repeat(per, per) * np.arange(g)[:, None]
    return fft(X[first][:, cols], axis=1).transpose(1, 0, 2)


# grouped records and their common rotation order; the 24/32 annulus reads
# curves of orders 24 and 32 at g = 8
ROW_CASES = {
    "circle-128": (lambda: two_sides(make_circle(128), (1.0, 5.0)), 128),
    "square-32": (lambda: two_sides(make_square(32), (1.0, 5.0)), 4),
    "annulus-24-32": (lambda: annulus(*make_three_domain(24, 32)), 8),
    "annulus-128-128": (lambda: annulus(*make_three_domain(128, 128)), 128),
}


def held_bytes(record):
    """Bytes of the arrays a record holds itself."""
    return sum(x.nbytes for x in vars(record).values()
               if isinstance(x, np.ndarray))


class TestRowRecords:
    """Grouped records keep the first block row of each matrix.  The
    symbols read from the rows equal those of the whole matrices bit for
    bit, and no whole matrix is built on the way to q or to a pencil."""

    @pytest.mark.parametrize("fft", [np.fft.rfft, np.fft.fft],
                             ids=["rfft", "fft"])
    @pytest.mark.parametrize("case", ROW_CASES)
    def test_symbols_of_rows_equal_those_of_whole_matrices(self, case, fft):
        build, g = ROW_CASES[case]
        records = build()
        assert common_rotation_order(
            c for sd in records for c in sd.curves) == g
        for sd in records:
            wholes = whole_matrices(sd)
            for X, whole in zip(wholes, (sd.P, sd.M_block)):
                assert np.array_equal(X, whole)
            for rows, whole in zip(sd.rows(g), wholes):
                assert rows.shape == (len(whole) // g, len(whole))
                assert np.array_equal(_symbols(rows, sd.curves, g, fft),
                                      whole_symbols(whole, sd.curves, g, fft))

    def test_records_hold_rows_and_build_no_whole_matrix(self):
        circle = two_sides(make_circle(4096), (1.0, 5.0))
        ring = annulus(*make_three_domain(1024, 1024))
        records = (*circle, *ring, ring[1].P1_tilde, ring[1].P2_tilde)
        sets = [assemble_operators(sd.mesh, sd.params) for sd in records
                if isinstance(sd, DiscreteCalderon)]
        assert len(sets) == 6
        for sd in records:
            assert held_bytes(sd) <= 128 * sum(c.n_nodes for c in sd.curves)
        for ops in sets:
            assert held_bytes(ops) <= 128 * ops.V.shape[1]
        calderon_eigenvalues(circle[0])
        jacobi_pencil(circle, (0.1, 0.2))
        jacobi_2d_3dom(ring[0], ring[2], ring[1], (0.25, 0.25, 0.25))
        for x in (*records, *sets):
            assert vars(x).keys() == {f.name for f in dataclasses.fields(x)}
        circle[0].P                     # the whole P is kept once built
        assert "_whole" in vars(circle[0])


@pytest.fixture(scope="module", params=["circle", "square"])
def one_operator_set(request):
    """Both sides of one curve from one operator set, and its ``q``."""
    mesh = make_circle(32) if request.param == "circle" else make_square(8)
    P1 = assemble_calderon_2d(mesh, KernelParams(1.0), "interior")
    P2 = assemble_calderon_2d(mesh, KernelParams(1.0), "exterior")
    return P1, P2, calderon_eigenvalues(P1)


# zero, negative, complex, near -1, inside the band (0, -q_min] where
# some sigma + q nearly vanishes (q_min = -0.0117 on the circle and
# -0.0104 on the square at 32 elements), and large
MAP_PAIRS = [(0.1, 0.1), (2.0, 3.0), (-0.3, -0.3), (-0.4, 1.0),
             (-0.6, 0.25), (0.2 + 0.4j, -0.3), (0.5 - 0.5j, 0.3 + 0.2j),
             (0.7j, 0.7j), (-0.9, -0.9), (-0.95, -0.95), (-0.99, 0.5),
             (0.005, 0.005), (0.01, 0.002), (0.0037, 0.1),
             (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.0, -0.5), (0.001, 0.0),
             (0.0, 0.008)]


def diagonal_spread(q, sigmas):
    """Largest ratio of the largest to the smallest diagonal value
    ``|1 + s_j - q_j|`` over the subdomains with ``s_j != 0``: the
    conditioning of the pencil's diagonal blocks in the eigenbasis."""
    spread = 1.0
    for q_j, s in zip((q, 1 - q), sigmas):
        if s != 0:
            d = np.abs(1 + s - q_j)
            spread = max(spread, d.max() / d.min())
    return spread


class TestCalderonMap:
    def test_identity_holds_on_one_operator_set(self, one_operator_set):
        P1, P2, _ = one_operator_set
        n = P1.mesh.n_nodes
        X = trace_flip(n)
        assert np.max(np.abs(P1.P + X @ P2.P @ X - P1.M_block)) <= 1e-17

    @pytest.mark.parametrize("sigmas", MAP_PAIRS, ids=str)
    def test_matches_pencil_and_qz(self, one_operator_set, sigmas):
        # the bound scales with the spread of the diagonal values, which
        # near sigma = -1 and inside the band is the conditioning of the
        # pencil's diagonal blocks; the square root amplifies the error
        # of the small mu that a zero sigma gives
        P1, P2, q = one_operator_set
        eigs = pencil_spectrum(*calderon_map(q, 1 - q, sigmas),
                               sigmas).eigenvalues
        tol = (1e-13 if 0 not in sigmas else 5e-11) * diagonal_spread(
            q, sigmas)
        match_multisets(eigs, pencil_spectrum(
            *jacobi_pencil((P1, P2), sigmas), sigmas).eigenvalues, tol)
        match_multisets(eigs, scipy.linalg.eigvals(
            *full_pencil_2dom(P1, P2, sigmas)), tol)

    def test_two_dom_form_takes_the_map_for_arrays(self, one_operator_set):
        _, _, q = one_operator_set
        A, B = jacobi_2d_2dom(q, 1 - q, (0.1, -0.3))
        expected = calderon_map(q, 1 - q, (0.1, -0.3))
        assert np.array_equal(A, expected[0]) and np.array_equal(
            B, expected[1])
        assert A.shape == B.shape == q.shape

    @pytest.mark.parametrize("sigmas, subdomain", [
        ((0.5, -0.25), 1), ((-0.5, 0.0), 0), ((0.0, -0.75), 1)])
    def test_vanishing_diagonal_raises_with_pivot(self, sigmas, subdomain):
        # d_2 = s_2 + q vanishes at q = -s_2, d_1 = 1 + s_1 - q at 1 + s_1
        q = np.array([0.25, 0.5, 0.75])
        with pytest.raises(SingularMatrixError,
                           match=f"subdomain {subdomain}") as err:
            calderon_map(q, 1 - q, sigmas)
        assert err.value.pivot_magnitude == 0.0

    def test_sigma_count_must_match(self):
        with pytest.raises(ValueError):
            calderon_map(np.zeros(2), np.ones(2), (0.1, 0.1, 0.1))

    @pytest.mark.parametrize("sigmas", [(0.1,), (0.1, 0.1, 0.1)])
    def test_sigma_count_names_the_subdomains(self, sigmas):
        # the message of jacobi_pencil
        with pytest.raises(ValueError, match="2 subdomains need as many "
                           f"relaxation parameters, got {len(sigmas)}"):
            calderon_map(np.zeros(2), np.ones(2), sigmas)


def mode_defects(n):
    """``max dist(q, {0, 1})`` per Fourier mode of the n-element circle:
    ``calderon_eigenvalues`` lists modes 0 .. n // 2 first, two each."""
    P = assemble_calderon_2d(make_circle(n), KernelParams(1.0))
    q = calderon_eigenvalues(P).reshape(n, 2)
    return np.minimum(abs(q), abs(1 - q)).max(axis=1)


class TestCalderonModes:
    """``q`` per Fourier mode of the circle: the defect of a fixed mode
    falls as h^3, while the most negative ``q`` tends to a floor that
    refinement does not remove (ROADMAP: the divergence band)."""

    def test_fixed_mode_defect_falls_with_h(self):
        # measured ratios per halving of h: 8.09/8.05 (k = 1), 7.39/7.69
        # (k = 2), 7.54/7.75 (k = 4), for n = 64 -> 128 -> 256
        defects = np.array([mode_defects(n)[[1, 2, 4]]
                            for n in (64, 128, 256)])
        assert np.all(defects[:-1] / defects[1:] >= 7.0)

    @pytest.mark.parametrize("n", [512, 1024])
    def test_q_min_floor(self, n):
        # q_min reads -0.012157 at n = 512 and -0.012158 at n = 1024
        P = assemble_calderon_2d(make_circle(n), KernelParams(1.0))
        assert round(float(calderon_eigenvalues(P).real.min()), 5) == -0.01216


class TestSweep:
    def test_analytic_matches_formula(self):
        from multitrace import line1d
        from multitrace.linalg import eig_dense

        def builder(s):
            op = line1d.jacobi_operator_2dom(1.0, s, s, line1d.JumpData(0, 0))
            return eig_dense(op.matrix).eigenvalues

        grid = np.linspace(-0.95, 3.0, 200)
        grid = np.sort(np.append(grid, -0.5))
        rows = sigma_sweep(builder, grid)
        for sigma, res in rows:
            ref = spectral_radius_formula(sigma)
            assert abs(res.spectral_radius - ref) < 1e-10
            if sigma.real < -0.5:
                assert res.spectral_radius > 1.0
            elif sigma.real == -0.5:
                assert abs(res.spectral_radius - 1.0) < 1e-12
            else:
                assert res.spectral_radius < 1.0

    def test_grid_rejects_minus_one(self):
        def builder(s):
            return np.array([0.0 + 0j])
        with pytest.raises(ValueError):
            sigma_sweep(builder, [-1.0])
