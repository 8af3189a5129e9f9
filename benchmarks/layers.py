"""Per-layer tracing from outside the program.

The tracer replaces the public functions of each layer with wrappers in
every ``multitrace`` namespace where callers look them up, records one
span per call (name, layer, start, end, parent span, iteration) in
memory, and puts the originals back on ``restore``.  A wrapped name
that no longer exists raises at install time, so a rename cannot
silently zero a layer.
"""

import functools
import importlib
import os
import time

import numpy as np

NAMESPACES = (
    "multitrace.cli", "multitrace.spectra", "multitrace.linalg",
    "multitrace.line1d", "multitrace.interval1d", "multitrace.bem2d",
    "multitrace.bem2d.assembly", "multitrace.bem2d.kernels",
    "multitrace.bem2d.mesh", "multitrace.bem2d.quadrature",
)

# (layer, defining module, public functions wrapped wherever bound)
TARGETS = (
    ("cli", "multitrace.cli", ("parse_config", "run")),
    ("bem2d.mesh", "multitrace.bem2d.mesh",
     ("make_circle", "make_square", "make_three_domain")),
    ("bem2d.quadrature", "multitrace.bem2d.quadrature",
     ("gauss01", "log_gauss01")),
    ("bem2d.assembly", "multitrace.bem2d.assembly",
     ("assemble_operators", "assemble_calderon_2d", "assemble_coupling",
      "cross_block")),
    ("spectra", "multitrace.spectra",
     ("jacobi_2d_2dom", "jacobi_2d_3dom", "pencil_spectrum",
      "summarize_spectrum", "cluster_report", "sigma_sweep")),
    ("linalg", "multitrace.linalg", ("eig_dense", "eig_generalized")),
    ("line1d", "multitrace.line1d",
     ("jacobi_operator_2dom", "jacobi_operator_3dom", "block_jacobi_run",
      "jacobi_fixed_point")),
    ("interval1d", "multitrace.interval1d",
     ("equivalence_check", "dtn_operators", "calderon_from_dtn")),
)

# Bessel functions are counted only where assembly and kernels look them up.
BESSEL = ("k0", "k1", "i0", "i1")
BESSEL_NAMESPACES = ("multitrace.bem2d.assembly", "multitrace.bem2d.kernels")

# (name, unit, better) of every per-layer metric, in report order
METRICS = (
    ("mesh.build_s", "s", "lower"),
    ("mesh.elements", "count", "lower"),
    ("quadrature.rule_s", "s", "lower"),
    ("quadrature.cache_hit_ratio", "ratio", "higher"),
    ("assembly.operators_s", "s", "lower"),
    ("assembly.operators_calls", "count", "lower"),
    ("assembly.operators_useful_ratio", "ratio", "higher"),
    ("assembly.calderon_self_s", "s", "lower"),
    ("assembly.coupling_self_s", "s", "lower"),
    ("assembly.cross_block_s", "s", "lower"),
    ("assembly.cross_block_calls", "count", "lower"),
    ("assembly.pairs", "count", "lower"),
    ("kernels.bessel_evals", "count", "lower"),
    ("kernels.bessel_s", "s", "lower"),
    ("spectra.pencil_s", "s", "lower"),
    ("spectra.pencil_dim", "rows", "lower"),
    ("spectra.cluster_s", "s", "lower"),
    ("spectra.sweep_rows", "count", "higher"),
    ("linalg.eig_s", "s", "lower"),
    ("linalg.eig_calls", "count", "lower"),
    ("linalg.eig_dim", "rows", "lower"),
    ("linalg.eig_complex_share", "ratio", "lower"),
    ("line1d.operator_s", "s", "lower"),
    ("line1d.run_s", "s", "lower"),
    ("line1d.calls", "count", "lower"),
    ("interval1d.equiv_s", "s", "lower"),
    ("interval1d.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

_NAME, _LAYER, _START, _END, _PARENT, _ITER, _INFO = range(7)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _mesh_key(mesh):
    return hash((mesh.nodes.tobytes(), mesh.elements.tobytes()))


def _eig_info(args, kwargs, out):
    mats = [np.asarray(m) for m in args[:2] if hasattr(m, "shape")]
    return {"dim": mats[0].shape[0],
            "complex": any(np.iscomplexobj(m) for m in mats)}


def _operators_info(args, kwargs, out):
    mesh = _arg(args, kwargs, 0, "mesh")
    params = _arg(args, kwargs, 1, "params")
    return {"pairs": mesh.n_elements ** 2,
            "key": (_mesh_key(mesh), params.a, params.quad_order)}


def _cross_info(args, kwargs, out):
    obs = _arg(args, kwargs, 0, "obs_mesh")
    src = _arg(args, kwargs, 1, "src_mesh")
    return {"pairs": obs.n_elements * src.n_elements}


def _bytes_info(args, kwargs, out):
    return {"bytes": sum(os.path.getsize(f) for f in out.files)}


# What each wrapped call records besides its span.
_ANNOTATE = {
    "make_circle": lambda a, k, out: {"elements": out.n_elements},
    "make_square": lambda a, k, out: {"elements": out.n_elements},
    "make_three_domain": lambda a, k, out: {
        "elements": sum(m.n_elements for m in out)},
    "assemble_operators": _operators_info,
    "cross_block": _cross_info,
    "jacobi_2d_2dom": lambda a, k, out: {"dim": out[0].shape[0]},
    "jacobi_2d_3dom": lambda a, k, out: {"dim": out[0].shape[0]},
    "sigma_sweep": lambda a, k, out: {"rows": len(out)},
    "eig_dense": _eig_info,
    "eig_generalized": _eig_info,
    "run": _bytes_info,
}
for _b in BESSEL:
    _ANNOTATE[_b] = lambda a, k, out: {"points": int(np.size(a[0]))}


class Tracer:
    """Spans of wrapped layer calls, kept in memory.

    ``iteration`` labels the spans opened next: ``"setup"`` or the
    index of a traced iteration.
    """

    def __init__(self):
        self.spans = []
        self.iteration = "setup"
        self._stack = []
        self._patches = []

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {name: importlib.import_module(name) for name in NAMESPACES}
        try:
            for layer, home, names in TARGETS:
                for fname in names:
                    original = _required(modules[home], home, fname, layer)
                    wrapper = self._wrap(layer, fname, original)
                    for mod in modules.values():
                        if getattr(mod, fname, None) is original:
                            self._patch(mod, fname, original, wrapper)
            for home in BESSEL_NAMESPACES:
                for fname in BESSEL:
                    original = _required(modules[home], home, fname,
                                         "bem2d.kernels")
                    self._patch(modules[home], fname, original, self._wrap(
                        "bem2d.kernels", fname, original))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        for mod, fname, original in reversed(self._patches):
            setattr(mod, fname, original)
        self._patches.clear()

    def _patch(self, mod, fname, original, wrapper):
        self._patches.append((mod, fname, original))
        setattr(mod, fname, wrapper)

    def _wrap(self, layer, name, fn):
        annotate = _ANNOTATE.get(name)
        cached = hasattr(fn, "cache_info")
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            misses = fn.cache_info().misses if cached else 0
            spans.append([name, layer, clock(), None,
                          stack[-1] if stack else -1, self.iteration, None])
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][_END] = clock()
            if cached:
                spans[sid][_INFO] = {"miss": fn.cache_info().misses > misses}
            elif annotate is not None:
                spans[sid][_INFO] = annotate(args, kwargs, out)
            return out

        return traced


def _required(module, home, fname, layer):
    try:
        return getattr(module, fname)
    except AttributeError:
        raise LookupError(f"{home}.{fname} no longer exists; the {layer} "
                          "layer would be measured as zero") from None


def self_times(spans):
    """Duration minus the durations of direct child spans, per span."""
    dur = [s[_END] - s[_START] for s in spans]
    own = list(dur)
    for s, d in zip(spans, dur):
        if s[_PARENT] >= 0:
            own[s[_PARENT]] -= d
    return dur, own


def layer_metrics(spans, n_iterations, overhead_s):
    """Every metric of ``METRICS`` from the spans of one traced run.

    Times and counts are per traced iteration, except
    ``quadrature.rule_s``, which is the total time of cold rule builds
    (cache misses, set-up included).  Ratios with no calls read 0.
    """
    dur, own = self_times(spans)
    rows = [(s, d, o) for s, d, o in zip(spans, dur, own)
            if s[_ITER] != "setup"]
    per = 1.0 / n_iterations

    def pick(*names):
        return [(s, d, o) for s, d, o in rows if s[_NAME] in names]

    def annotated(*names):      # calls that returned (a raise records no info)
        return [(s, d, o) for s, d, o in pick(*names) if s[_INFO] is not None]

    def total(names, use_self=False):
        return sum(o if use_self else d for _, d, o in pick(*names)) * per

    def info(names, key):
        return [s[_INFO][key] for s, _, _ in annotated(*names)]

    def ratio(num, den):
        return num / den if den else 0.0

    ops = annotated("assemble_operators")
    distinct = {}
    for s, _, _ in ops:
        distinct.setdefault(s[_ITER], set()).add(s[_INFO]["key"])
    quad = annotated("gauss01", "log_gauss01")
    eigs = annotated("eig_dense", "eig_generalized")
    mesh_names = ("make_circle", "make_square", "make_three_domain")
    top_mesh = [s for s, _, _ in annotated(*mesh_names)
                if s[_PARENT] < 0 or spans[s[_PARENT]][_NAME] not in mesh_names]
    out = {
        "mesh.build_s": total(mesh_names, use_self=True),
        "mesh.elements": sum(s[_INFO]["elements"] for s in top_mesh) * per,
        "quadrature.rule_s": sum(d for s, d in zip(spans, dur)
                                 if s[_NAME] in ("gauss01", "log_gauss01")
                                 and s[_INFO] is not None and s[_INFO]["miss"]),
        "quadrature.cache_hit_ratio": ratio(
            sum(not s[_INFO]["miss"] for s, _, _ in quad), len(quad)),
        "assembly.operators_s": total(("assemble_operators",)),
        "assembly.operators_calls": len(pick("assemble_operators")) * per,
        "assembly.operators_useful_ratio": ratio(
            sum(len(v) for v in distinct.values()), len(ops)),
        "assembly.calderon_self_s": total(("assemble_calderon_2d",), True),
        "assembly.coupling_self_s": total(("assemble_coupling",), True),
        "assembly.cross_block_s": total(("cross_block",)),
        "assembly.cross_block_calls": len(pick("cross_block")) * per,
        "assembly.pairs": sum(info(("assemble_operators", "cross_block"),
                                   "pairs")) * per,
        "kernels.bessel_evals": sum(info(BESSEL, "points")) * per,
        "kernels.bessel_s": total(BESSEL),
        "spectra.pencil_s": total(("jacobi_2d_2dom", "jacobi_2d_3dom")),
        "spectra.pencil_dim": max(info(("jacobi_2d_2dom", "jacobi_2d_3dom"),
                                       "dim"), default=0),
        "spectra.cluster_s": total(("summarize_spectrum", "cluster_report"),
                                   True),
        "spectra.sweep_rows": sum(info(("sigma_sweep",), "rows")) * per,
        "linalg.eig_s": total(("eig_dense", "eig_generalized"), True),
        "linalg.eig_calls": len(pick("eig_dense", "eig_generalized")) * per,
        "linalg.eig_dim": max(info(("eig_dense", "eig_generalized"), "dim"),
                              default=0),
        "linalg.eig_complex_share": ratio(
            sum(s[_INFO]["complex"] for s, _, _ in eigs), len(eigs)),
        "line1d.operator_s": total(("jacobi_operator_2dom",
                                    "jacobi_operator_3dom")),
        "line1d.run_s": total(("block_jacobi_run", "jacobi_fixed_point"),
                              True),
        "line1d.calls": sum(1 for s, _, _ in rows if s[_LAYER] == "line1d") * per,
        "interval1d.equiv_s": total(("equivalence_check",)),
        "interval1d.calls": sum(1 for s, _, _ in rows
                                if s[_LAYER] == "interval1d") * per,
        "cli.self_s": total(("parse_config", "run"), True),
        "cli.bytes_written": sum(info(("run",), "bytes")) * per,
        "trace.overhead_s": overhead_s,
    }
    return {k: float(v) for k, v in out.items()}


def self_time_table(spans, n_iterations):
    """``(layer, self seconds per iteration, calls per iteration)`` rows."""
    _, own = self_times(spans)
    acc = {}
    for s, o in zip(spans, own):
        if s[_ITER] == "setup":
            continue
        t, c = acc.get(s[_LAYER], (0.0, 0))
        acc[s[_LAYER]] = (t + o, c + 1)
    return sorted(((layer, t / n_iterations, c / n_iterations)
                   for layer, (t, c) in acc.items()),
                  key=lambda row: -row[1])
