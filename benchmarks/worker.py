"""Run one workload in a fresh process and print its raw result as JSON.

Started by ``run.py``; not meant to be run by hand.  The set-up clock
starts before ``import multitrace``, so the import, the first
quadrature-rule builds and the mesh construction are all inside it.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import multitrace  # noqa: E402,F401
import multitrace.cli  # noqa: E402,F401

_IMPORT_S = time.perf_counter() - _T0

import mpmath  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_ITERATIONS = 3      # per timed phase: a median robust to one outlier


def _run_phase(workload, seconds, tracer=None):
    """Closed loop of iterations for ``seconds`` (at least
    ``MIN_ITERATIONS``), always starting at iteration 0."""
    done, k = [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or k < MIN_ITERATIONS:
        if tracer is not None:
            tracer.iteration = k
        done.append(_iterate(workload, k))
        k += 1
    return done


def _iterate(workload, k):
    try:
        return workload.iteration(k)
    except Exception as exc:     # a raising operation is a failed one
        if k == 0:
            traceback.print_exc(file=sys.stderr)
        n = workload.operations
        return workloads.Iteration(float("nan"), [], attempted=n, failed=n,
                                   failures=[f"{type(exc).__name__}: {exc}"])


def _timings(iterations):
    """End-to-end timings of a phase.  The tail latency is taken per
    iteration, by the rule of ``stats.tail_percentile`` on that
    iteration's points, and its median over iterations is reported: a
    run-wide high percentile would mostly sample scheduler hiccups."""
    good = [it for it in iterations if it.seconds == it.seconds and it.point_seconds]
    if not good:
        return None
    tails = [stats.tail_latency(it.point_seconds) for it in good]
    points = sum(len(it.point_seconds) for it in good)
    return {
        "wall_s": statistics.median([it.seconds for it in good]),
        "iterations": len(good),
        "points_per_s": points / sum(it.seconds for it in good),
        "points": points,
        "point_tail_s": statistics.median([t[0] for t in tails]),
        "tail_percentile": tails[0][1],
        "tail_beyond": tails[0][2],
        "iteration_seconds": [it.seconds for it in good],
    }


def _quality(iterations):
    out = {}
    for name, agg in workloads.QUALITY.items():
        vals = [it.quality[name] for it in iterations if name in it.quality]
        if vals:
            out[name] = {"value": float(agg(vals)), "samples": len(vals)}
    return out


def _environment():
    def blas(mod):
        deps = mod.show_config(mode="dicts")["Build Dependencies"]
        return {k: f"{deps[k]['name']} {deps[k].get('version', '?')}"
                for k in ("blas", "lapack") if k in deps}

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
    }


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    out_dir = ROOT / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = layers.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    t1 = time.perf_counter()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    finally:
        if tracer is not None:
            tracer.restore()
    result = {"setup_s": _IMPORT_S + time.perf_counter() - t1}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    iterations = [_iterate(workload, 0)]         # untimed warm-up
    if tracer is None:
        timed = _run_phase(workload, args.seconds)
        iterations += timed
        result["timings"] = _timings(timed)
    else:
        untraced = _run_phase(workload, args.seconds / 2)
        tracer.install()
        try:
            traced = _run_phase(workload, args.seconds / 2, tracer)
        finally:
            tracer.restore()
        iterations += untraced + traced
        plain, with_trace = _timings(untraced), _timings(traced)
        result["timings"] = plain
        if plain and with_trace:
            overhead = with_trace["wall_s"] - plain["wall_s"]
            result["layers"] = layers.layer_metrics(
                tracer.spans, len(traced), overhead)
            result["self_times"] = layers.self_time_table(
                tracer.spans, len(traced))
            result["traced_wall_s"] = with_trace["wall_s"]
            result["traced_iterations"] = with_trace["iterations"]
            result["traced_mean_s"] = (sum(it.seconds for it in traced)
                                       / len(traced))
            spans_path = out_dir.parent / f"spans-{args.workload}-seed{args.seed}.json"
            with open(spans_path, "w") as fh:
                json.dump({"fields": ["name", "layer", "start", "end",
                                      "parent", "iteration", "info"],
                           "spans": tracer.spans}, fh, default=str)
            result["spans_file"] = str(spans_path.relative_to(ROOT))

    result.update(
        attempted=sum(it.attempted for it in iterations),
        failed=sum(it.failed for it in iterations),
        failures=[f for it in iterations for f in it.failures][:20],
        quality=_quality(iterations),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=_environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
