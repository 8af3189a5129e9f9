"""Command line front end emitting CSV/JSON artifacts.

One run per invocation: pick a mode, optionally load defaults from a
JSON config file, override with flags, and write deterministic artifacts
(eigenvalue dumps, sweep curves, convergence histories, a JSON run
report echoing the configuration, and a gnuplot script for the data).

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from . import interval1d, line1d, spectra
from .bem2d import (KernelParams, assemble_calderon_2d, assemble_coupling,
                    assemble_operators, make_circle, make_square,
                    make_three_domain)
from .linalg import DIMENSION_CAP, SingularMatrixError, eig_dense

GEOMETRIES = ("circle", "square", "annulus")


def _split_list(text, cast):
    if isinstance(text, (list, tuple)):
        return [cast(v) for v in text]
    return [cast(tok) for tok in str(text).split(",") if tok != ""]


def _floats(values):
    return _split_list(values, float)


def _complexes(values):
    """Complex literals; values with zero imaginary part stay real."""
    out = [complex(v.replace(" ", "")) for v in _split_list(values, str)]
    return [c if c.imag != 0 else c.real for c in out]


# config field -> (default, cast of file and flag values)
_FIELDS = {
    "a": ([1.0], _floats),
    "sigma": ([0.1], _complexes),
    "geometry": (None, lambda v: v),
    "n_elements": (128, int),
    "radii": ([0.5, 1.0], _floats),
    "gamma": (0.5, float),
    "alpha": (1.0, float),
    "beta": (0.0, float),
    "alpha2": (0.0, float),
    "beta2": (1.0, float),
    "start": ([1.0, -0.4, 0.3, 2.0], _floats),
    "steps": (12, int),
    "sigma_min": (-0.95, float),
    "sigma_max": (3.0, float),
    "eps": (0.05, float),
    "quad_order": (8, int),
    "kind": ("1d", str),
    "out": ("mtf-out", str),
}


class ConfigError(Exception):
    """Invalid or incomplete run configuration."""


@dataclass
class RunConfig:
    mode: str
    a: list
    sigma: list
    geometry: str
    n_elements: int
    radii: list
    gamma: float
    alpha: float
    beta: float
    alpha2: float
    beta2: float
    start: list
    steps: int
    sigma_min: float
    sigma_max: float
    eps: float
    quad_order: int
    kind: str
    out: str

    def run_id(self):
        payload = json.dumps(_jsonable(asdict(self)), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _environment():
    """Versions, BLAS and thread settings the timings of a run depend on."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
    }


@dataclass
class RunReport:
    run_id: str
    config: dict
    results: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    environment: dict = field(default_factory=_environment)
    files: list = field(default_factory=list)

    def record(self, path):
        """Register an artifact; returns ``path``."""
        self.files.append(str(path))
        return path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return obj.real if obj.imag == 0 else {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _build_parser():
    p = argparse.ArgumentParser(
        prog="mtf",
        description="Multitrace transmission-problem experiments "
                    "(1D exact engines, 2D boundary elements, spectra)")
    p.add_argument("mode", nargs="?", choices=MODES,
                   help="run mode; may also come from --config")
    p.add_argument("--config", help="JSON file with configuration values "
                                    "(flags override file values)")
    p.add_argument("--a", help="material constant(s), comma separated per subdomain")
    p.add_argument("--sigma", help="relaxation parameter(s), comma separated "
                                   "(complex literals accepted)")
    p.add_argument("--geometry", choices=GEOMETRIES)
    p.add_argument("--n", dest="n_elements", type=int,
                   help="elements per curve (spectrum/sweep modes)")
    p.add_argument("--radii", help="inner,outer radii of the annulus preset")
    p.add_argument("--gamma", type=float, help="interface location in (0, 1)")
    p.add_argument("--alpha", type=float, help="solution jump (first interface)")
    p.add_argument("--beta", type=float, help="derivative jump (first interface)")
    p.add_argument("--alpha2", type=float, help="solution jump (second interface)")
    p.add_argument("--beta2", type=float, help="derivative jump (second interface)")
    p.add_argument("--start", help="start state, comma separated")
    p.add_argument("--steps", type=int,
                   help="iteration count, or grid size in sweep mode")
    p.add_argument("--sigma-min", dest="sigma_min", type=float)
    p.add_argument("--sigma-max", dest="sigma_max", type=float)
    p.add_argument("--eps", type=float, help="cluster radius")
    p.add_argument("--quad-order", dest="quad_order", type=int)
    p.add_argument("--kind", choices=SWEEP_KINDS, help="sweep operator family")
    p.add_argument("--out", help="output directory")
    return p


# flags whose values may start with a minus sign (negative numbers,
# comma lists, complex literals), which argparse would mistake for options
_NUMERIC_FLAGS = ("--sigma", "--a", "--radii", "--start", "--alpha",
                  "--beta", "--alpha2", "--beta2", "--gamma",
                  "--sigma-min", "--sigma-max")


def _join_negative_values(argv):
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (tok in _NUMERIC_FLAGS and nxt is not None
                and nxt.startswith("-") and nxt[1:2] in "0123456789."):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def parse_config(argv):
    """Merge defaults, config file and flags into a validated RunConfig."""
    ns = _build_parser().parse_args(_join_negative_values(list(argv)))
    merged = {key: default for key, (default, _) in _FIELDS.items()}
    mode = ns.mode
    if ns.config:
        try:
            with open(ns.config) as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        mode = mode or file_values.pop("mode", None)
        file_values.pop("mode", None)
        unknown = set(file_values) - set(_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_values)
    if mode is None:
        raise ConfigError("missing required field 'mode' "
                          "(give it on the command line or in the config file)")
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; choose from {MODES}")
    for key in _FIELDS:
        if getattr(ns, key) is not None:
            merged[key] = getattr(ns, key)
    values = {}
    for key, (_, cast) in _FIELDS.items():
        try:
            values[key] = cast(merged[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key} cannot be read from {merged[key]!r}"
                              ) from exc
    cfg = RunConfig(mode=mode, **values)
    _validate(cfg)
    return cfg


def _per_subdomain(cfg, name, count):
    """``count`` values of the list field ``name``; one value is shared."""
    values = list(getattr(cfg, name))
    if len(values) == 1:
        return values * count
    if len(values) != count:
        raise ConfigError(f"{name} needs {count} value(s) in mode "
                          f"{cfg.mode!r}, got {len(values)}")
    return values


def _validate(cfg):
    for name in ("a", "sigma", "radii", "start", "alpha", "beta", "alpha2",
                 "beta2", "sigma_min", "sigma_max"):
        if not np.all(np.isfinite(getattr(cfg, name))):
            raise ConfigError(f"{name} must be finite, got {getattr(cfg, name)}")
    if any(v <= 0 for v in cfg.a):
        raise ConfigError("a (material constant) must be positive")
    if any(complex(s) == -1 for s in cfg.sigma):
        raise ConfigError("relaxation parameter -1 is rejected: the diagonal "
                          "multitrace block (1 + sigma) Id - P is not invertible")
    if cfg.eps < 0:
        raise ConfigError(f"eps must be nonnegative, got {cfg.eps}")
    if cfg.steps < 0:
        raise ConfigError(f"steps must be nonnegative, got {cfg.steps}")
    if cfg.quad_order < 2:
        raise ConfigError(f"quad_order must be at least 2, got {cfg.quad_order}")
    if not 0 < cfg.gamma < 1:
        raise ConfigError("gamma must lie in (0, 1)")
    if cfg.mode == "sweep":
        if cfg.kind not in SWEEP_KINDS:
            raise ConfigError(f"unknown sweep kind {cfg.kind!r}")
        if cfg.steps < 2:
            raise ConfigError("sweep needs at least 2 grid points")
    if cfg.n_elements < 3:
        raise ConfigError("need at least 3 elements per curve")
    if len(cfg.radii) != 2 or not 0 < cfg.radii[0] < cfg.radii[1]:
        raise ConfigError("radii must be an increasing positive pair")
    # 2D runs, by mode or sweep kind -> rows per n_elements of the
    # half-size red pencil the eigensolve runs on
    run = cfg.kind if cfg.mode == "sweep" else cfg.mode
    rows = {"spectrum-2d": 2, "2d": 2, "spectrum-2d-3dom": 4,
            "2d-3dom": 4}.get(run, 0)
    if rows == 2 and cfg.geometry not in ("circle", "square"):
        raise ConfigError(f"geometry must be circle or square for {run!r} "
                          f"(the annulus has its 3dom variant), "
                          f"got {cfg.geometry!r}")
    if rows == 2 and cfg.geometry == "square" and cfg.n_elements % 4:
        raise ConfigError("n_elements must be divisible by 4 for the square")
    dim = rows * cfg.n_elements
    if dim > DIMENSION_CAP:
        raise ConfigError(f"n_elements {cfg.n_elements} gives a pencil of "
                          f"dimension {dim} beyond the cap {DIMENSION_CAP}")


def _sigma_grid(cfg):
    grid = np.linspace(cfg.sigma_min, cfg.sigma_max, cfg.steps)
    return grid[np.abs(grid + 1.0) > 1e-9]     # -1 excluded by construction


def _write_convergence(path, errors):
    with open(path, "w") as fh:
        fh.write("step,error\n")
        for k, e in enumerate(errors):
            fh.write(f"{k},{e:.16e}\n")


def _gnuplot_script(path, lines):
    with open(path, "w") as fh:
        fh.write("# gnuplot script generated alongside the data files\n")
        fh.write("\n".join(lines) + "\n")


def _run_line(cfg, out, report, count):
    """Exact line operator: iteration history towards the fixed point."""
    (a,) = _per_subdomain(cfg, "a", 1)
    sigmas = _per_subdomain(cfg, "sigma", count)
    jumps = (line1d.JumpData(cfg.alpha, cfg.beta),
             line1d.JumpData(cfg.alpha2, cfg.beta2))[:count - 1]
    build = (line1d.jacobi_operator_2dom if count == 2
             else line1d.jacobi_operator_3dom)
    op = build(a, *sigmas, *jumps)
    hist = line1d.block_jacobi_run(op, np.zeros(op.matrix.shape[0]),
                                   cfg.steps)
    eigs = eig_dense(op.matrix).eigenvalues
    _write_convergence(report.record(out / "convergence.csv"), hist.errors)
    _gnuplot_script(report.record(out / "plot.gp"), [
        "set logscale y", 'set xlabel "iteration"', 'set ylabel "error"',
        f'plot "{out / "convergence.csv"}" every ::1 using 1:2 '
        'with linespoints title "block Jacobi error"'])
    return {
        "eigenvalues": _jsonable(eigs),
        "spectral_radius": float(np.max(np.abs(eigs))),
        "errors": _jsonable(hist.errors),
        "converged_in": int(np.argmax(hist.errors <= 1e-12))
        if np.any(hist.errors <= 1e-12) else None,
        "fixed_point": _jsonable(hist.fixed_point),
    }


def _run_bounded(cfg, out, report):
    (a,) = _per_subdomain(cfg, "a", 1)
    geom = interval1d.BoundedGeometry(cfg.gamma, a)
    P1, P2 = interval1d.calderon_bounded(geom)
    pair = interval1d.dtn_operators(geom)
    P1d, P2d = interval1d.calderon_from_dtn(pair)
    c1, c2, evaluate = interval1d.transmission_solve_bounded(
        geom, line1d.JumpData(cfg.alpha, cfg.beta))
    xs = np.linspace(0.0, 1.0, 401)
    with open(report.record(out / "solution.csv"), "w") as fh:
        fh.write("x,u\n")
        for x, u in zip(xs, evaluate(xs)):
            fh.write(f"{x:.6f},{u:.16e}\n")
    return {
        "dtn": {"dtn1": pair.dtn1, "dtn2": pair.dtn2,
                "ntd1": pair.ntd1, "ntd2": pair.ntd2},
        "projector_residuals": [
            float(np.max(np.abs(P1 @ P1 - P1))),
            float(np.max(np.abs(P2 @ P2 - P2)))],
        "dtn_rebuild_residual": float(max(np.max(np.abs(P1 - P1d)),
                                          np.max(np.abs(P2 - P2d)))),
        "coefficients": [c1, c2],
    }


def _run_schwarz(cfg, out, report):
    (a,) = _per_subdomain(cfg, "a", 1)
    if len(cfg.start) != 4:
        raise ConfigError("start state needs 4 values (u1, du1, u2, du2)")
    geom = interval1d.BoundedGeometry(cfg.gamma, a)
    rep = interval1d.equivalence_check(
        geom, interval1d.SchwarzState(*cfg.start), cfg.steps)
    _write_convergence(report.record(out / "deviation.csv"), rep.deviations)
    return {
        "max_deviation": rep.max_deviation,
        "schwarz_norms": _jsonable(
            np.max(np.abs(rep.schwarz_history), axis=1)),
        "jacobi_norms": _jsonable(
            np.max(np.abs(rep.jacobi_history), axis=1)),
    }


def _timed(report, key, fn, *args):
    """``fn(*args)``, its wall time recorded as ``report.timings[key]``."""
    t0 = time.perf_counter()
    out = fn(*args)
    report.timings[key] = time.perf_counter() - t0
    return out


def _setup_2d(cfg, a):
    """Assemble the 2D subdomains for the material constants ``a``.

    Two constants give the two subdomains of the one curve of
    ``cfg.geometry``, three give ``(middle, inner, outer)`` of the
    annulus; each distinct (curve, constant) operator set is assembled
    once and shared by every side that needs it.  Returns
    ``pencil(sigmas) -> (A, B)``, the half-size red pencil of
    :func:`spectra.jacobi_pencil`, in the matching sigma order.
    """
    sets = {}

    def operators(curve, a_k):
        key = (id(curve), a_k)
        if key not in sets:
            sets[key] = assemble_operators(curve,
                                           KernelParams(a_k, cfg.quad_order))
        return sets[key]

    def calderon(curve, a_k, side):
        ops = operators(curve, a_k)
        return assemble_calderon_2d(curve, ops.params, side, operators=ops)

    if len(a) == 2:
        mesh = (make_circle(cfg.n_elements) if cfg.geometry == "circle"
                else make_square(cfg.n_elements // 4))
        P1 = calderon(mesh, a[0], "interior")
        P2 = calderon(mesh, a[1], "exterior")
        return lambda sigmas: spectra.jacobi_2d_2dom(
            P1, P2, spectra.RelaxationConfig(sigmas))
    a0, a1, a2 = a
    inner, outer = make_three_domain(cfg.n_elements, cfg.n_elements,
                                     cfg.radii[0], cfg.radii[1])
    P1 = calderon(inner, a1, "interior")
    P2 = calderon(outer, a2, "exterior")
    inner_ops, outer_ops = operators(inner, a0), operators(outer, a0)
    coupling = assemble_coupling(inner, outer, inner_ops.params,
                                 operators=(inner_ops, outer_ops))
    return lambda sigmas: spectra.jacobi_2d_3dom(
        P1, P2, coupling, spectra.RelaxationConfig(sigmas))


def _run_spectrum(cfg, out, report, count):
    """Spectrum of the 2D Jacobi pencil: ``count`` 2 on one curve, 3 on
    the annulus."""
    a = _per_subdomain(cfg, "a", count)
    sigmas = _per_subdomain(cfg, "sigma", count)
    pencil = _timed(report, "assembly_s", _setup_2d, cfg, a)
    A, B = _timed(report, "pencil_s", pencil, sigmas)
    result = _timed(report, "eigensolve_s", spectra.pencil_spectrum,
                    A, B, sigmas, cfg.eps)
    spectra.write_eigenvalues_csv(report.record(out / "eigenvalues.csv"),
                                  result.eigenvalues)
    if count == 2:      # the annulus run writes no plot script
        _gnuplot_script(report.record(out / "plot.gp"), [
            "set size ratio -1", 'set xlabel "Re"', 'set ylabel "Im"',
            f'plot "{out / "eigenvalues.csv"}" every ::1 using 1:2 '
            'with points pt 7 ps 0.5 title "Jacobi spectrum"'])
    return {
        "spectral_radius": result.spectral_radius,
        "theoretical_points": _jsonable(result.theoretical_points),
        "cluster_fractions": _jsonable(result.cluster_fractions),
        "remainder_fraction": result.remainder_fraction,
        "n_eigenvalues": len(result.eigenvalues),
    }


def _line_sweep(cfg, a, count):
    analytic = (spectra.analytic_spectrum_2dom if count == 2
                else spectra.analytic_spectrum_3dom)
    return lambda s: analytic(a, *[s] * count).eigenvalues


def _bem_sweep(cfg, a, count):
    pencil = _setup_2d(cfg, [a] * count)

    def builder(s):
        A, B = pencil([s] * count)
        return spectra.pencil_spectrum(A, B, [s] * count).eigenvalues
    return builder


# sweep kind -> (report label, eigenvalue builder factory, subdomains)
_SWEEPS = {
    "1d": ("analytic line, 2 subdomains", _line_sweep, 2),
    "1d-3dom": ("analytic line, 3 subdomains", _line_sweep, 3),
    "2d": ("boundary elements, 2 subdomains", _bem_sweep, 2),
    "2d-3dom": ("boundary elements, 3 subdomains", _bem_sweep, 3),
}


def _run_sweep(cfg, out, report):
    grid = _sigma_grid(cfg)
    label, factory, count = _SWEEPS[cfg.kind]
    (a,) = _per_subdomain(cfg, "a", 1)
    builder = _timed(report, "assembly_s", factory, cfg, a, count)
    rows = spectra.sigma_sweep(builder, grid, cfg.eps)
    spectra.write_sweep_csv(report.record(out / "sweep.csv"), rows)
    radii = [r.spectral_radius for r in rows]
    _gnuplot_script(report.record(out / "plot.gp"), [
        'set xlabel "sigma"', 'set ylabel "spectral radius"',
        f'plot "{out / "sweep.csv"}" every ::1 using 1:2 '
        'with lines title "rho(J)", 1 with lines dt 2 title "1"'])
    return {
        "kind": label,
        "n_grid": len(rows),
        "max_radius": max(radii),
        "min_radius": min(radii),
        "analytic_radius_max_error": float(max(
            abs(r.spectral_radius - spectra.spectral_radius_formula(r.sigma))
            for r in rows)) if factory is _line_sweep else None,
    }


# mode -> runner(cfg, out, report) returning the results payload
_RUNNERS = {
    "1d-2dom": partial(_run_line, count=2),
    "1d-3dom": partial(_run_line, count=3),
    "1d-bounded": _run_bounded,
    "schwarz-equiv": _run_schwarz,
    "spectrum-2d": partial(_run_spectrum, count=2),
    "spectrum-2d-3dom": partial(_run_spectrum, count=3),
    "sweep": _run_sweep,
}
MODES = tuple(_RUNNERS)
SWEEP_KINDS = tuple(_SWEEPS)


def run(cfg):
    """Execute one configured run, writing artifacts into ``cfg.out``."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    report = RunReport(run_id=cfg.run_id(), config=_jsonable(asdict(cfg)))
    report.results = _timed(report, "total_s", _RUNNERS[cfg.mode],
                            cfg, out, report)
    with open(out / "run_report.json", "w") as fh:
        json.dump(_jsonable(asdict(report)), fh, indent=2)
    report.files.append(str(out / "run_report.json"))
    return report


def main(argv=None):
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
        report = run(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SingularMatrixError, np.linalg.LinAlgError, FloatingPointError,
            ValueError) as exc:
        print(f"numerical failure [{type(exc).__name__}]: {exc}",
              file=sys.stderr)
        return 3
    print(f"run {report.run_id} ({cfg.mode}) finished in "
          f"{report.timings['total_s']:.2f}s; artifacts in {cfg.out}")
    for key, val in sorted(report.results.items()):
        if isinstance(val, (int, float, str)) or val is None:
            print(f"  {key}: {val}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
