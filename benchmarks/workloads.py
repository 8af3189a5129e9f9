"""The four benchmark workloads.

Each workload is built in ``__init__`` (its set-up: input generation,
mesh construction, first quadrature-rule builds) and then runs
iterations.  An iteration times only the calls into the program; its
outputs are checked afterwards by ``gates``.  Library functions are
always looked up through their module at call time, so the tracer's
wrappers see every call.
"""

import json
import time
from dataclasses import dataclass, field

import numpy as np

import gates
from multitrace import cli, interval1d, line1d, linalg, spectra
from multitrace.bem2d import assembly, mesh

clock = time.perf_counter


@dataclass
class Iteration:
    """Outcome of one iteration.

    ``seconds`` is the time spent in program calls; ``point_seconds``
    the latency of each point (σ point, parameter point or case) it
    completed.  ``quality`` holds accuracy values, aggregated over a run
    by ``QUALITY``.
    """

    seconds: float
    point_seconds: list
    attempted: int
    failures: list = field(default_factory=list)
    failed: int = 0
    quality: dict = field(default_factory=dict)


# How each accuracy value is aggregated over a run's iterations.
QUALITY = {"cluster_frac": min, "rho_dev": max, "proj_residual": max,
           "mode_relerr": max}


def _build_quadrature_rules():
    # A four-element assembly builds every quadrature rule the assembly
    # uses, whatever its orders are.
    assembly.assemble_operators(mesh.make_circle(4), assembly.KernelParams(1.0))


def _write_config(path, values):
    path.write_text(json.dumps(values, indent=1))
    return path


def _checked(it, fails):
    """Count one operation as failed when ``fails`` lists anything."""
    if fails:
        it.failed += 1
        it.failures.extend(fails)


class Circle2Dom:
    """`spectrum-2d` on the n = 128 circle through the CLI, cycling over
    fig2, a material contrast that needs a second assembly, and one
    seeded complex σ pair."""

    n = 128
    eps = 0.05
    operations = 1      # attempted per iteration

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        pair = [complex(rng.uniform(0.1, 1.5),
                        rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0))
                for _ in range(2)]
        cases = (("fig2", [0.1, 0.1], [1.0]),
                 ("contrast", [-0.4, 1.0], [1.0, 5.0]),
                 ("complex", [str(s) for s in pair], [1.0]))
        self.cases = []
        for label, sigma, a in cases:
            out = out_dir / f"cli-{label}"
            path = _write_config(out_dir / f"circle-{label}.json", {
                "mode": "spectrum-2d", "geometry": "circle",
                "n_elements": self.n, "sigma": sigma, "a": a,
                "eps": self.eps, "out": str(out)})
            self.cases.append((label, [complex(s) for s in sigma], path, out))
        mesh.make_circle(self.n)
        _build_quadrature_rules()

    def iteration(self, k):
        label, sigmas, path, out = self.cases[k % len(self.cases)]
        t0 = clock()
        cli.run(cli.parse_config(["--config", str(path)]))
        seconds = clock() - t0
        it = Iteration(seconds, [seconds], attempted=1)
        eigs = _read_eigenvalues(out / "eigenvalues.csv")
        frac = gates.cluster_fraction(eigs, sigmas, self.eps)
        radius = float(np.max(np.abs(eigs))) if len(eigs) else float("nan")
        if label == "fig2":
            it.quality["cluster_frac"] = frac
        _checked(it, gates.spectrum_2d(len(eigs), 4 * self.n, radius,
                                       frac if label == "fig2" else None))
        return it


def _read_eigenvalues(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0] + 1j * data[:, 1]


class AnnulusSweep:
    """fig8's three-subdomain `sweep` (kind 2d-3dom) through the CLI:
    n = 48 per curve, radii (0.5, 1), a = 1, eps 0.05, on the σ grid
    (-0.9, 0, 0.9, 1.8, 2.7).  The grid holds σ = 0 exactly, which no
    linspace from -0.9 to 3 does, and points on both sides of -1/2."""

    n = 48
    grid = (-0.9, 2.7, 5)
    operations = grid[2]

    def __init__(self, seed, out_dir):
        self.out = out_dir / "cli-sweep"
        self.path = _write_config(out_dir / "sweep.json", {
            "mode": "sweep", "kind": "2d-3dom", "n_elements": self.n,
            "radii": [0.5, 1.0], "a": [1.0], "eps": 0.05,
            "sigma_min": self.grid[0], "sigma_max": self.grid[1],
            "steps": self.grid[2], "out": str(self.out)})
        mesh.make_three_domain(self.n, self.n, 0.5, 1.0)
        _build_quadrature_rules()

    def iteration(self, k):
        point_seconds = []
        original = spectra.sigma_sweep

        def timed_sweep(builder, sigma_grid, eps=0.05):
            def timed_builder(s):
                t = clock()
                eigs = builder(s)
                point_seconds.append(clock() - t)
                return eigs
            return original(timed_builder, sigma_grid, eps)

        spectra.sigma_sweep = timed_sweep
        try:
            t0 = clock()
            cli.run(cli.parse_config(["--config", str(self.path)]))
            seconds = clock() - t0
        finally:
            spectra.sigma_sweep = original
        steps = self.operations
        it = Iteration(seconds, point_seconds, attempted=steps)
        rows = np.loadtxt(self.out / "sweep.csv", delimiter=",", skiprows=1,
                          ndmin=2)
        if len(rows) != steps or 0.0 not in rows[:, 0]:
            it.failed = steps
            it.failures.append(f"sweep rows {rows[:, 0].tolist()} are not "
                               f"the {steps}-point grid holding 0")
            return it
        expected = 4 * 2 * self.n
        for sigma, rho, n_eigs in rows[:, :3]:
            _checked(it, gates.sweep_row(sigma, rho, int(n_eigs), expected))
        it.quality["rho_dev"] = max(abs(rho - gates.analytic_radius(s))
                                    for s, rho in rows[:, :2])
        return it


class CalderonAssembly:
    """The assembly of `spectrum-2d-3dom` without its eigensolve:
    ``make_three_domain(128, 128)``, a = 1, interior and exterior
    projectors, then the middle-subdomain coupling."""

    n = 128
    operations = 1

    def __init__(self, seed, out_dir):
        mesh.make_three_domain(self.n, self.n)
        _build_quadrature_rules()

    def iteration(self, k):
        t0 = clock()
        inner, outer = mesh.make_three_domain(self.n, self.n)
        par = assembly.KernelParams(1.0)
        P1 = assembly.assemble_calderon_2d(inner, par, "interior")
        P2 = assembly.assemble_calderon_2d(outer, par, "exterior")
        coupling = assembly.assemble_coupling(inner, outer, par)
        seconds = clock() - t0
        it = Iteration(seconds, [seconds], attempted=1)
        n_in, n_out = inner.n_nodes, outer.n_nodes
        proj = gates.projector_residual(P1.P, P1.M_block)
        mode = gates.mode_relerr(P1.P[:n_in, n_in:], P1.M_block[:n_in, :n_in],
                                 inner.nodes, par.a)
        it.quality.update(proj_residual=proj, mode_relerr=mode)
        fails = (gates.calderon_accuracy(P1, coupling.P1_tilde, n_in)
                 + gates.calderon_accuracy(coupling.P2_tilde, P2, n_out)
                 + gates.accuracy_bounds(proj, mode))
        if coupling.R12.shape != (2 * n_in, 2 * n_out):
            fails.append(f"R12 has shape {coupling.R12.shape}")
        _checked(it, fails)
        return it


class Line1D:
    """The exact 1D engines on a seeded grid: 1000 two-subdomain and
    1000 three-subdomain σ points (ten of each at σ = 0) through the
    operator builders, `block_jacobi_run`, `jacobi_fixed_point` and
    `eig_dense`, and 500 (γ, a) points through the Schwarz equivalence
    check and the DtN rebuild of the projectors."""

    n_line, n_zero, n_interval, steps = 1000, 10, 500, 6
    operations = 2 * n_line + n_interval

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        self.points = []
        for dom in (2, 3):
            sig = rng.uniform(-0.9, 3.0, (self.n_line, dom))
            sig[:self.n_zero] = 0.0
            a = np.exp(rng.uniform(np.log(0.5), np.log(20.0), self.n_line))
            jumps = rng.standard_normal((self.n_line, 4))
            starts = rng.standard_normal((self.n_line, 4 * (dom - 1)))
            self.points += [(tuple(s), ai, j, u0)
                            for s, ai, j, u0 in zip(sig, a, jumps, starts)]
        order = rng.permutation(len(self.points))
        self.points = [self.points[i] for i in order]
        self.interval = [
            (interval1d.BoundedGeometry(g, a),
             interval1d.SchwarzState(*rng.standard_normal(4)))
            for g, a in zip(rng.uniform(0.1, 0.9, self.n_interval),
                            np.exp(rng.uniform(np.log(0.1), np.log(20.0),
                                               self.n_interval)))]

    def iteration(self, k):
        point_seconds, line_out, interval_out = [], [], []
        t0 = clock()
        for sigmas, a, j, u0 in self.points:
            t = clock()
            if len(sigmas) == 2:
                op = line1d.jacobi_operator_2dom(
                    a, *sigmas, line1d.JumpData(j[0], j[1]))
            else:
                op = line1d.jacobi_operator_3dom(
                    a, *sigmas, line1d.JumpData(j[0], j[1]),
                    line1d.JumpData(j[2], j[3]))
            hist = line1d.block_jacobi_run(op, u0, self.steps)
            star = line1d.jacobi_fixed_point(op)
            eigs = linalg.eig_dense(op.matrix).eigenvalues
            point_seconds.append(clock() - t)
            line_out.append((sigmas, op, hist.errors, star, eigs))
        for geom, state in self.interval:
            t = clock()
            rep = interval1d.equivalence_check(geom, state, 4)
            rebuilt = interval1d.calderon_from_dtn(
                interval1d.dtn_operators(geom))
            point_seconds.append(clock() - t)
            interval_out.append((geom, rep.max_deviation, rebuilt))
        seconds = clock() - t0

        it = Iteration(seconds, point_seconds, attempted=len(point_seconds))
        for sigmas, op, errors, star, eigs in line_out:
            residual = (np.max(np.abs(op.matrix @ star + op.rhs_tilde - star))
                        / max(1.0, np.max(np.abs(star))))
            _checked(it, gates.line_point(eigs, sigmas, errors, residual))
        for geom, deviation, (Q1, Q2) in interval_out:
            P1, P2 = interval1d.calderon_bounded(geom)
            rebuild = max(np.max(np.abs(P1 - Q1)), np.max(np.abs(P2 - Q2)))
            _checked(it, gates.interval_point(deviation, rebuild))
        return it


WORKLOADS = {
    "circle-2dom": Circle2Dom,
    "annulus-sweep": AnnulusSweep,
    "calderon-assembly": CalderonAssembly,
    "line-1d": Line1D,
}

