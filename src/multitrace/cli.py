"""Command line front end emitting CSV/JSON artifacts.

One run per invocation: pick a mode, optionally load defaults from a
JSON config file, override with flags, and write deterministic artifacts
(eigenvalue dumps, sweep curves, convergence histories, a JSON run
report echoing the configuration, and a gnuplot script for the data).
This module writes every artifact; the numerics modules open no file.

Config-file keys are the field names of ``_FIELDS``, the one table of
flags, defaults, casts and help texts.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field, make_dataclass
from pathlib import Path

import numpy as np
import scipy

from . import interval1d, line1d, spectra
from .bem2d import (MAX_QUAD_ORDER, KernelParams, assemble_calderon_2d,
                    assemble_coupling, assembly, make_circle, make_square,
                    make_three_domain)
from .bem2d.mesh import common_rotation_order
from .linalg import DIMENSION_CAP, SingularMatrixError, eig_dense

GEOMETRIES = ("circle", "square")
# largest n_elements measured per 2D geometry, None the annulus (README,
# "Command line")
LARGEST_RUN = {"circle": 32768, "square": 2000, None: 8192}
# least gap * quad_order between the annulus circles, in outer elements
# 2 pi r_outer / n: below it the near cross-curve pairs are under-resolved
# and rho is garbage (README, "Command line")
ANNULUS_GAP = 5.0


def _split_list(text, cast):
    if isinstance(text, (list, tuple)):
        return [cast(v) for v in text]
    return [cast(tok) for tok in str(text).split(",") if tok != ""]


def _number(value):
    """``value`` itself; a boolean, which is a number to Python and to
    JSON readers, raises."""
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    return value


def _real(value):
    return float(_number(value))


def _floats(values):
    return _split_list(values, _real)


def _complexes(values):
    """Complex literals; values with zero imaginary part stay real."""
    out = [complex(str(v).replace(" ", ""))
           for v in _split_list(values, _number)]
    return [c if c.imag != 0 else c.real for c in out]


def _integer(value):
    """Integers and their literals; booleans and fractions raise."""
    value = _number(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


class _OneOf(tuple):
    """Cast of a field that names one of the listed choices."""

    def __call__(self, value):
        if value not in self:
            raise LookupError(", ".join(self))
        return value


class ConfigError(Exception):
    """Invalid or incomplete run configuration."""


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
        "assembly_threads": assembly._WORKERS,
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


def _per_subdomain(cfg, name):
    """The values of the list field ``name``, one per subdomain of the
    mode (``_MODES``); a single value is shared by all of them."""
    values = list(getattr(cfg, name))
    return values * _MODES[cfg.mode][1][name] if len(values) == 1 else values


def _sigma_grid(cfg):
    grid = np.linspace(cfg.sigma_min, cfg.sigma_max, cfg.steps)
    return grid[np.abs(grid + 1.0) > 1e-9]     # -1 excluded by construction


def _write(report, path, header, lines):
    """The one artifact writer: a header line, then one line per entry
    of ``lines``; ``path`` is recorded in the report."""
    with open(report.record(path), "w") as fh:
        fh.writelines(f"{line}\n" for line in (header, *lines))


def _plot(report, data, settings, style):
    """``plot.gp`` beside the CSV file ``data``: the ``settings`` lines,
    then its first two columns below the header, drawn ``style``."""
    _write(report, data.parent / "plot.gp",
           "# gnuplot script generated alongside the data files",
           [*settings, f'plot "{data}" every ::1 using 1:2 {style}'])


def _line_operator(a, sigmas, jumps):
    """Exact Jacobi operator of the line of ``len(sigmas)`` subdomains,
    two or three, with the jump data of its interfaces from ``jumps``."""
    build = (line1d.jacobi_operator_2dom if len(sigmas) == 2
             else line1d.jacobi_operator_3dom)
    return build(a, *sigmas, *jumps[:len(sigmas) - 1])


def _run_line(cfg, out, report):
    """Exact line operator: iteration history towards the fixed point."""
    (a,) = cfg.a
    op = _line_operator(a, _per_subdomain(cfg, "sigma"),
                        (line1d.JumpData(cfg.alpha, cfg.beta),
                         line1d.JumpData(cfg.alpha2, cfg.beta2)))
    hist = line1d.block_jacobi_run(op, np.zeros(op.matrix.shape[0]),
                                   cfg.steps)
    eigs = eig_dense(op.matrix).eigenvalues
    _write(report, out / "convergence.csv", "step,error",
           (f"{k},{e:.16e}" for k, e in enumerate(hist.errors)))
    _plot(report, out / "convergence.csv",
          ["set logscale y", 'set xlabel "iteration"', 'set ylabel "error"'],
          'with linespoints title "block Jacobi error"')
    return {
        "eigenvalues": _jsonable(eigs),
        "spectral_radius": float(np.max(np.abs(eigs))),
        "errors": _jsonable(hist.errors),
        "converged_in": int(np.argmax(hist.errors <= 1e-12))
        if np.any(hist.errors <= 1e-12) else None,
        "fixed_point": _jsonable(hist.fixed_point),
    }


def _run_bounded(cfg, out, report):
    (a,) = cfg.a
    geom = interval1d.BoundedGeometry(cfg.gamma, a)
    P1, P2 = interval1d.calderon_bounded(geom)
    pair = interval1d.dtn_operators(geom)
    P1d, P2d = interval1d.calderon_from_dtn(pair)
    c1, c2, evaluate = interval1d.transmission_solve_bounded(
        geom, line1d.JumpData(cfg.alpha, cfg.beta))
    xs = np.linspace(0.0, 1.0, 401)
    _write(report, out / "solution.csv", "x,u",
           (f"{x:.6f},{u:.16e}" for x, u in zip(xs, evaluate(xs))))
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
    (a,) = cfg.a
    geom = interval1d.BoundedGeometry(cfg.gamma, a)
    rep = interval1d.equivalence_check(
        geom, interval1d.SchwarzState(*cfg.start), cfg.steps)
    _write(report, out / "deviation.csv", "step,error",
           (f"{k},{e:.16e}" for k, e in enumerate(rep.deviations)))
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


def _setup_2d(cfg, a, report):
    """Assemble the 2D subdomain records for the material constants ``a``.

    Two constants give the interior and exterior of the one curve of
    ``cfg.geometry``; equal ones share its operator set, and then only
    the interior is returned (:func:`spectra.calderon_map`).  Three give
    ``(inner, outer, coupling)`` of the annulus, its middle sigma first.
    The report records the curves' common rotation order, which is also
    the count of mode pencils.
    """
    par = [KernelParams(a_k, cfg.quad_order) for a_k in a]
    if len(a) == 2:
        mesh = (make_circle(cfg.n_elements) if cfg.geometry == "circle"
                else make_square(cfg.n_elements // 4))
        P1 = assemble_calderon_2d(mesh, par[0], "interior")
        records = ((P1,) if par[0] == par[1] else
                   (P1, assemble_calderon_2d(mesh, par[1], "exterior")))
    else:
        inner, outer = make_three_domain(cfg.n_elements, cfg.n_elements,
                                         cfg.radii[0], cfg.radii[1])
        records = (assemble_calderon_2d(inner, par[1], "interior"),
                   assemble_calderon_2d(outer, par[2], "exterior"),
                   assemble_coupling(inner, outer, par[0]))
    report.results["rotation_order"] = report.results["pencil_modes"] = (
        common_rotation_order(c for sd in records for c in sd.curves))
    return records


def _run_spectrum(cfg, out, report):
    """Spectrum of the 2D Jacobi operator: two subdomains on one curve,
    three on the annulus.  On one operator set the eigensolve is of ``q``,
    and the report adds its range and its distance from {0, 1}."""
    a = _per_subdomain(cfg, "a")
    sigmas = _per_subdomain(cfg, "sigma")
    count = len(sigmas)
    subdomains = _timed(report, "assembly_s", _setup_2d, cfg, a, report)
    health = {}
    if len(subdomains) == 1:
        q = _timed(report, "eigensolve_s", spectra.calderon_eigenvalues,
                   *subdomains)
        result = spectra.pencil_spectrum(
            *spectra.jacobi_2d_2dom(q, 1 - q, sigmas), sigmas, cfg.eps)
        health = {"q_min": q.real.min(), "q_max": q.real.max(),
                  "projector_defect": np.minimum(abs(q), abs(1 - q)).max()}
    else:
        build = (spectra.jacobi_2d_2dom if count == 2
                 else spectra.jacobi_2d_3dom)
        A, B = _timed(report, "pencil_s", build, *subdomains, sigmas)
        result = _timed(report, "eigensolve_s", spectra.pencil_spectrum,
                        A, B, sigmas, cfg.eps)
    _write(report, out / "eigenvalues.csv", "re,im",
           ["\n".join(["%.16e,%.16e"] * len(result.eigenvalues))
            % tuple(result.eigenvalues.view(float).tolist())])
    if count == 2:      # the annulus run writes no plot script
        _plot(report, out / "eigenvalues.csv",
              ["set size ratio -1", 'set xlabel "Re"', 'set ylabel "Im"'],
              'with points pt 7 ps 0.5 title "Jacobi spectrum"')
    rho = result.spectral_radius
    law = ("the paper predicts convergence" if len(set(a)) == 1 else "the "
           "subdomains' a differ, and the paper's law, which needs one "
           "operator on both sides of each curve, does not apply")
    return {
        "spectral_radius": rho,
        "theoretical_points": _jsonable(result.theoretical_points),
        "cluster_fractions": _jsonable(result.cluster_fractions),
        "remainder_fraction": result.remainder_fraction,
        "n_eigenvalues": len(result.eigenvalues),
        **health,
        "warnings": [f"spectral radius {rho:.6g} >= 1 although every Re "
                     f"sigma > -1/2: {law}"]
        if rho >= 1 and all(complex(s).real > -0.5 for s in sigmas) else [],
    }


def _line_sweep(cfg, a, count, report):
    zero = (line1d.JumpData(0.0, 0.0),) * 2
    return lambda s: eig_dense(
        _line_operator(a, [s] * count, zero).matrix).eigenvalues


def _bem_sweep(cfg, a, count, report):
    subdomains = _timed(report, "assembly_s", _setup_2d, cfg, [a] * count,
                        report)
    if len(subdomains) == 1:        # one eigensolve serves every sigma
        q = _timed(report, "eigensolve_s", spectra.calderon_eigenvalues,
                   *subdomains)
        subdomains = (q, 1 - q)
    build = spectra.jacobi_2d_2dom if count == 2 else spectra.jacobi_2d_3dom
    return lambda s: spectra.pencil_eigenvalues(*build(*subdomains,
                                                       [s] * count))


# sweep kind -> (report label, eigenvalue builder factory(cfg, a, count,
# report), subdomains); a 2D factory times its assembly and q eigensolve
_SWEEPS = {
    "1d": ("analytic line, 2 subdomains", _line_sweep, 2),
    "1d-3dom": ("analytic line, 3 subdomains", _line_sweep, 3),
    "2d": ("boundary elements, 2 subdomains", _bem_sweep, 2),
    "2d-3dom": ("boundary elements, 3 subdomains", _bem_sweep, 3),
}


def _run_sweep(cfg, out, report):
    grid = _sigma_grid(cfg)
    label, factory, count = _SWEEPS[cfg.kind]
    (a,) = cfg.a
    builder = factory(cfg, a, count, report)
    rows = spectra.sigma_sweep(builder, grid, cfg.eps)
    clusters = range(1, len(rows[0][1].cluster_fractions) + 1)
    _write(report, out / "sweep.csv",
           "sigma,rho,n_eigs,"
           + "".join(f"frac_cluster_{i}," for i in clusters) + "frac_remainder",
           (f"{s.real if s.imag == 0 else s},{res.spectral_radius:.16e},"
            f"{len(res.eigenvalues)},"
            + ",".join(f"{f:.6f}" for f in (*res.cluster_fractions,
                                            res.remainder_fraction))
            for s, res in rows))
    _plot(report, out / "sweep.csv",
          ['set xlabel "sigma"', 'set ylabel "spectral radius"'],
          'with lines title "rho(J)", 1 with lines dt 2 title "1"')
    radii = [res.spectral_radius for _, res in rows]
    return {
        "kind": label,
        "n_grid": len(rows),
        "max_radius": max(radii),
        "min_radius": min(radii),
        "analytic_radius_max_error": float(max(
            abs(res.spectral_radius - spectra.spectral_radius_formula(s))
            for s, res in rows)) if factory is _line_sweep else None,
    }


# mode -> (runner(cfg, out, report) returning the results payload, number
# of values each list field it reads needs); a single a or sigma is shared
# by all subdomains, the start state needs all four (u1, du1, u2, du2)
_MODES = {
    "1d-2dom": (_run_line, {"a": 1, "sigma": 2}),
    "1d-3dom": (_run_line, {"a": 1, "sigma": 3}),
    "1d-bounded": (_run_bounded, {"a": 1}),
    "schwarz-equiv": (_run_schwarz, {"a": 1, "start": 4}),
    "spectrum-2d": (_run_spectrum, {"a": 2, "sigma": 2}),
    "spectrum-2d-3dom": (_run_spectrum, {"a": 3, "sigma": 3}),
    "sweep": (_run_sweep, {"a": 1}),
}
MODES = tuple(_MODES)
SWEEP_KINDS = tuple(_SWEEPS)
_SHARED = ("a", "sigma")


# config field -> (flag, default, cast of file and flag values, help): the
# one declaration of a field, which RunConfig, the parser, the casts and
# the finiteness and choice checks are all read off
_FIELDS = {
    "mode": ("mode", None, _OneOf(MODES),
             "run mode; may also come from --config"),
    "a": ("--a", [1.0], _floats,
          "material constant(s), comma separated per subdomain"),
    "sigma": ("--sigma", [0.1], _complexes,
              "relaxation parameter(s), comma separated "
              "(complex literals accepted)"),
    "geometry": ("--geometry", None, _OneOf(GEOMETRIES), "2D curve"),
    "n_elements": ("--n", 128, _integer,
                   "elements per curve (spectrum/sweep modes)"),
    "radii": ("--radii", [0.5, 1.0], _floats,
              "inner,outer radii of the annulus preset"),
    "gamma": ("--gamma", 0.5, _real, "interface location in (0, 1)"),
    "alpha": ("--alpha", 1.0, _real, "solution jump (first interface)"),
    "beta": ("--beta", 0.0, _real, "derivative jump (first interface)"),
    "alpha2": ("--alpha2", 0.0, _real, "solution jump (second interface)"),
    "beta2": ("--beta2", 1.0, _real, "derivative jump (second interface)"),
    "start": ("--start", [1.0, -0.4, 0.3, 2.0], _floats,
              "start state, comma separated"),
    "steps": ("--steps", 12, _integer,
              "iteration count, or grid size in sweep mode"),
    "sigma_min": ("--sigma-min", -0.95, _real, "first sigma of the sweep"),
    "sigma_max": ("--sigma-max", 3.0, _real, "last sigma of the sweep"),
    "eps": ("--eps", 0.05, _real, "cluster radius"),
    "quad_order": ("--quad-order", 8, _integer,
                   "Gauss points per element on near element pairs; far "
                   "pairs use fewer, graded by their distance"),
    "kind": ("--kind", "1d", _OneOf(SWEEP_KINDS), "sweep operator family"),
    "out": ("--out", "mtf-out", str, "output directory"),
}
_REAL_CASTS = (_real, _floats, _complexes)   # their fields must be finite


class RunConfig(make_dataclass("RunConfig", list(_FIELDS))):
    def run_id(self):
        payload = json.dumps(_jsonable(asdict(self)), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _build_parser():
    p = argparse.ArgumentParser(
        prog="mtf",
        description="Multitrace transmission-problem experiments "
                    "(1D exact engines, 2D boundary elements, spectra)")
    p.add_argument("--config", help="JSON file with configuration values "
                                    "(flags override file values)")
    # no type= or choices=: parse_config casts every value, so a bad one
    # is a ConfigError naming its field, not an argparse usage exit
    for key, (flag, _, cast, text) in _FIELDS.items():
        spec = {"dest": key} if flag.startswith("-") else {"nargs": "?"}
        if isinstance(cast, _OneOf):
            spec["metavar"] = "{" + ",".join(cast) + "}"
        p.add_argument(flag, help=text, **spec)
    return p


# a flag value may start with a minus sign (negative numbers, comma lists,
# complex literals), which argparse would mistake for an option
def _join_negative_values(argv):
    flags = {flag for flag, *_ in _FIELDS.values()}
    out = []
    for tok in argv:
        if (out and out[-1] in flags
                and tok.startswith("-") and tok[1:2] in "0123456789."):
            out[-1] += f"={tok}"
        else:
            out.append(tok)
    return out


def parse_config(argv):
    """Merge defaults, config file and flags into a validated RunConfig."""
    ns = _build_parser().parse_args(_join_negative_values(argv))
    merged = {key: default for key, (_, default, _, _) in _FIELDS.items()}
    if ns.config:
        try:
            with open(ns.config) as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object, got "
                              f"{type(file_values).__name__}")
        unknown = set(file_values) - set(_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_values)
    merged.update({key: getattr(ns, key) for key in _FIELDS
                   if getattr(ns, key) is not None})
    if merged["mode"] is None:
        raise ConfigError("mode is missing (give it on the command line "
                          "or in the config file)")
    values = {}
    for key, (_, default, cast, _) in _FIELDS.items():
        value = merged[key]
        if value is None and default is None:      # optional, left unset
            values[key] = None
            continue
        try:
            values[key] = cast(value)
        except LookupError as exc:
            raise ConfigError(f"{key} {value!r} is an unknown {key}; "
                              f"choose from {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key} cannot be read from {value!r}") from exc
    cfg = RunConfig(**values)
    _validate(cfg)
    return cfg


def _validate(cfg):
    for name, (_, _, cast, _) in _FIELDS.items():
        value = getattr(cfg, name)
        if cast in _REAL_CASTS and not np.all(np.isfinite(value)):
            raise ConfigError(f"{name} must be finite, got {value}")
    for name, count in _MODES[cfg.mode][1].items():
        given = len(getattr(cfg, name))
        if given != count and not (given == 1 and name in _SHARED):
            raise ConfigError(f"{name} needs {count} value(s) in mode "
                              f"{cfg.mode!r}, got {given}")
    if any(v <= 0 for v in cfg.a):
        raise ConfigError("a (material constant) must be positive")
    if any(complex(s) == -1 for s in cfg.sigma):
        raise ConfigError("sigma -1 is rejected: the diagonal multitrace "
                          "block (1 + sigma) Id - P is not invertible")
    if cfg.eps < 0:
        raise ConfigError(f"eps must be nonnegative, got {cfg.eps}")
    if cfg.steps < 0:
        raise ConfigError(f"steps must be nonnegative, got {cfg.steps}")
    if not 2 <= cfg.quad_order <= MAX_QUAD_ORDER:
        raise ConfigError(f"quad_order must lie in [2, {MAX_QUAD_ORDER}]")
    if not 0 < cfg.gamma < 1:
        raise ConfigError("gamma must lie in (0, 1)")
    if cfg.mode == "sweep" and cfg.steps < 2:
        raise ConfigError("steps (the sweep grid size) must be at least 2")
    if cfg.mode == "sweep" and _sigma_grid(cfg).size == 0:
        raise ConfigError("sigma_min and sigma_max give a sweep grid that "
                          "holds only sigma = -1")
    if cfg.n_elements < 3:
        raise ConfigError("n_elements must be at least 3 per curve")
    if len(cfg.radii) != 2 or not 0 < cfg.radii[0] < cfg.radii[1]:
        raise ConfigError("radii must be an increasing positive pair")
    # 2D runs, by mode or sweep kind -> rows per n_elements of the
    # half-size red pencil the eigensolve runs on
    run = cfg.kind if cfg.mode == "sweep" else cfg.mode
    rows = {"spectrum-2d": 2, "2d": 2, "spectrum-2d-3dom": 4,
            "2d-3dom": 4}.get(run, 0)
    if rows == 2 and cfg.geometry is None:
        raise ConfigError(f"geometry must be given for {run!r}")
    if rows != 2 and cfg.geometry is not None:
        raise ConfigError(f"geometry is read only by 'spectrum-2d' and "
                          f"sweep kind '2d', not by {run!r}")
    if rows == 2 and cfg.geometry == "square" and cfg.n_elements % 4:
        raise ConfigError("n_elements must be divisible by 4 for the square")
    if rows and cfg.n_elements > (cap := LARGEST_RUN[cfg.geometry]):
        raise ConfigError(f"n_elements {cfg.n_elements} is beyond the cap "
                          f"{cap}, the largest run measured on its curves")
    gap = cfg.radii[1] - cfg.radii[0]
    least = (ANNULUS_GAP * 2 * np.pi * cfg.radii[1] / cfg.n_elements
             / cfg.quad_order)
    if rows == 4 and gap < least:
        raise ConfigError(f"radii {cfg.radii} leave a gap of {gap:.3g}, "
                          f"below {ANNULUS_GAP:g} h / quad_order = "
                          f"{least:.3g} with h = 2 pi r_outer / n_elements: "
                          f"widen it, or raise quad_order or n_elements")
    # one mode pencil per turn: n of them on the circle and the annulus
    dim = rows * (cfg.n_elements // 4 if cfg.geometry == "square" else 1)
    if dim > DIMENSION_CAP:
        raise ConfigError(f"n_elements {cfg.n_elements} gives mode pencils "
                          f"of dimension {dim} beyond the cap {DIMENSION_CAP}")


def run(cfg):
    """Execute one configured run, writing artifacts into ``cfg.out``."""
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out {cfg.out!r} cannot be made a directory: "
                          f"{exc}") from exc
    report = RunReport(run_id=cfg.run_id(), config=_jsonable(asdict(cfg)))
    report.results.update(_timed(report, "total_s", _MODES[cfg.mode][0],
                                 cfg, out, report))
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
