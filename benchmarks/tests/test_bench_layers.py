"""The tracer is transparent, restores what it wraps, and fails loudly."""

import importlib

import numpy as np
import pytest

import layers
import workloads
from multitrace import cli, interval1d, line1d, linalg, spectra
from multitrace.bem2d import assembly, mesh


def _run_small(tmp_path, tag):
    """Outputs of one small instance of every workload's program calls."""
    out = {}
    for mode, args in (
            ("spectrum", ["spectrum-2d", "--geometry", "circle", "--n", "12",
                          "--sigma", "0.1,0.3+0.2j"]),
            ("sweep", ["sweep", "--kind", "2d-3dom", "--n", "8",
                       "--sigma-min", "-0.9", "--sigma-max", "2.7",
                       "--steps", "5"])):
        target = tmp_path / f"{tag}-{mode}"
        report = cli.run(cli.parse_config(args + ["--out", str(target)]))
        out[mode] = (report.results,
                     {f: (target / f).read_bytes()
                      for f in ("eigenvalues.csv", "sweep.csv")
                      if (target / f).exists()})
    inner, outer = mesh.make_three_domain(12, 16)
    par = assembly.KernelParams(1.0)
    coup = assembly.assemble_coupling(inner, outer, par)
    out["assembly"] = [assembly.assemble_calderon_2d(inner, par, "interior").P,
                       coup.R12, coup.R21, coup.P1_tilde.P, coup.P2_tilde.P]
    op = line1d.jacobi_operator_3dom(2.0, 0.4, -0.3, 1.1,
                                     line1d.JumpData(1.0, 2.0),
                                     line1d.JumpData(0.5, -1.0))
    hist = line1d.block_jacobi_run(op, np.ones(8), 5)
    rep = interval1d.equivalence_check(
        interval1d.BoundedGeometry(0.4, 3.0),
        interval1d.SchwarzState(1.0, 0.5, -0.2, 0.3), 4)
    op2 = line1d.jacobi_operator_2dom(0.7, 0.2, 1.5, line1d.JumpData(1.0, 0.0))
    dtn = interval1d.dtn_operators(interval1d.BoundedGeometry(0.2, 9.0))
    out["line"] = [op.matrix, hist.iterates, line1d.jacobi_fixed_point(op),
                   linalg.eig_dense(op.matrix).eigenvalues, op2.matrix,
                   rep.jacobi_history, rep.schwarz_history,
                   interval1d.calderon_from_dtn(dtn)]
    return out


def _assert_identical(a, b):
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _assert_identical(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_identical(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    else:
        assert a == b


def _bindings():
    mods = [importlib.import_module(m) for m in layers.NAMESPACES]
    return {(m.__name__, name): getattr(m, name)
            for m in mods for name in dir(m) if callable(getattr(m, name))}


def test_tracing_is_transparent_and_restored(tmp_path):
    before = _bindings()
    plain = _run_small(tmp_path, "plain")
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert spectra.sigma_sweep is not before[("multitrace.spectra",
                                                  "sigma_sweep")]
        tracer.iteration = 0
        traced = _run_small(tmp_path, "traced")
    finally:
        tracer.restore()
    _assert_identical(plain, traced)
    assert _bindings() == before
    names = {s[0] for s in tracer.spans}
    for _, _, fnames in layers.TARGETS:
        assert names >= set(fnames) - {"make_square"}
    assert names >= set(layers.BESSEL)


def test_missing_name_fails_loudly(monkeypatch):
    before = _bindings()
    monkeypatch.delattr(spectra, "cluster_report")
    tracer = layers.Tracer()
    with pytest.raises(LookupError, match="cluster_report"):
        tracer.install()
    monkeypatch.undo()
    assert _bindings() == before


def test_layer_metrics_of_calderon_assembly(tmp_path):
    tracer = layers.Tracer()
    tracer.install()
    try:
        workload = workloads.CalderonAssembly(0, tmp_path)
        workload.n = 16
        for k in range(2):
            tracer.iteration = k
            workload.iteration(k)
    finally:
        tracer.restore()
    m = layers.layer_metrics(tracer.spans, 2, 0.0)
    assert set(m) == {name for name, _, _ in layers.METRICS}
    assert m["assembly.operators_calls"] == 4
    assert m["assembly.operators_useful_ratio"] == 0.5
    assert m["assembly.cross_block_calls"] == 2
    assert m["assembly.pairs"] == 4 * 16 * 16 + 2 * 16 * 16
    assert m["linalg.eig_calls"] == 0
    assert m["mesh.elements"] == 32
    assert m["kernels.bessel_evals"] > 0
    assert m["quadrature.cache_hit_ratio"] == 1.0
