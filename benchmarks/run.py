"""Benchmark of the multitrace package.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: circle-2dom, annulus-sweep, calderon-assembly, line-1d (see
``workloads.py`` for what each runs and why); ``--workload all`` runs the
four in turn, each ending with its own JSON line.  Every run uses fresh
processes: set-up is measured in five of them (the median is
``setup_s``), the last of which runs the workload after one untimed
iteration.  BLAS runs on one thread.

With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` the run is split into an untraced and a traced half and
the per-layer metrics are printed, with a self-time table, and the
spans are written to ``.bench_out/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("circle-2dom", "annulus-sweep", "calderon-assembly", "line-1d")
SETUP_PROBES = 4            # set-up-only processes besides the workload's own
THREADS = "1"
WORKER_TIMEOUT_S = 150

# (name, unit) of the end-to-end metrics
END_TO_END = (("wall_s", "s"), ("points_per_s", "1/s"),
              ("point_tail_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
QUALITY_UNITS = {"cluster_frac": "ratio", "rho_dev": "1",
                 "proj_residual": "1", "mode_relerr": "1"}


def _environment():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


def _worker(args, extra, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    proc = subprocess.run(cmd, cwd=ROOT, env=_environment(), timeout=timeout,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"worker for {args.workload} failed "
                         f"with exit code {proc.returncode}")
    return json.loads(lines[-1])


def _print_table(rows):
    for name, value, unit, samples, note in rows:
        print(f"  {name:<32} {value:>14.6g} {unit:<6} n={samples:<6} {note}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "multitrace" / "__init__.py").is_file():
        sys.stderr.write(f"no multitrace sources under {ROOT / 'src'}\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(argparse.Namespace(**dict(vars(args), workload=n)))
               for n in names)


def run_workload(args):
    """Run one workload, print its report and its JSON line."""
    setups = []
    if not args.trace:
        setups = [_worker(args, ["--setup-only"], 60)["setup_s"]
                  for _ in range(SETUP_PROBES)]
    res = _worker(args, [], WORKER_TIMEOUT_S)
    t = res["timings"]
    if t is None:
        sys.stderr.write("no iteration completed: "
                         + "; ".join(res["failures"]) + "\n")
        return 1
    setups.append(res["setup_s"])

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    env = dict(res["environment"], seed=args.seed)
    print("environment " + json.dumps(env))
    end_to_end = {
        "wall_s": (t["wall_s"], t["iterations"], "median iteration"),
        "points_per_s": (t["points_per_s"], t["points"],
                         "points / program seconds"),
        "point_tail_s": (t["point_tail_s"], t["iterations"],
                         f"median over iterations of p{t['tail_percentile']:g}"
                         f" of {t['points'] // t['iterations']} points, "
                         f"{t['tail_beyond']} beyond"),
        "peak_rss_mb": (res["peak_rss_mb"], 1, "workload process"),
        "setup_s": (statistics.median(setups), len(setups),
                    "median over fresh processes"
                    + (", traced" if args.trace else "")),
    }
    fail_frac = res["failed"] / res["attempted"]
    rows = [(name, end_to_end[name][0], unit, *end_to_end[name][1:])
            for name, unit in END_TO_END]
    rows.append(("fail_frac", fail_frac, "ratio", res["attempted"],
                 f"{res['failed']} of {res['attempted']} operations"))
    rows += [(name, q["value"], QUALITY_UNITS[name], q["samples"],
              "accuracy, worst iteration") for name, q in res["quality"].items()]
    _print_table(rows)
    for msg in res["failures"]:
        print(f"  FAILED: {msg}")

    if args.trace:
        import layers
        if "layers" not in res:
            sys.stderr.write("no traced iteration completed\n")
            return 1
        print(f"  self time per traced iteration "
              f"(traced wall {res['traced_wall_s']:.4g} s; spans in "
              f"{res['spans_file']}):")
        for layer, secs, calls in res["self_times"]:
            print(f"    {layer:<18} {secs:>10.4g} s  {calls:>10.1f} calls")
        other = res["traced_mean_s"] - sum(row[1] for row in res["self_times"])
        print(f"    {'(not wrapped)':<18} {other:>10.4g} s")
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit, _ in layers.METRICS}
        _print_table([(name, res["layers"][name], unit, res["traced_iterations"],
                       "per-layer") for name, unit, _ in layers.METRICS])
    else:
        metrics = {name: {"value": end_to_end[name][0], "unit": unit}
                   for name, unit in END_TO_END}

    summary = {"correct": res["failed"] == 0, "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    out = ROOT / ".bench_out" / (f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    out.write_text(json.dumps(dict(summary, environment=env, raw=res,
                                   setup_samples=setups), indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
