import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from multitrace import cli, spectra
from multitrace.bem2d import (KernelParams, assemble_calderon_2d,
                              assemble_operators, assembly, cross_block,
                              make_circle, make_three_domain)
from multitrace.linalg import SingularMatrixError
from helpers import match_multisets
from multitrace.cli import (_MODES, _SWEEPS, ConfigError, main,
                            parse_config, run)

CONFIGS_DIR = Path(__file__).resolve().parents[1] / "configs"


class TestParseConfig:
    def test_defaults_documented(self):
        cfg = parse_config(["1d-2dom"])
        assert cfg.a == [1.0]
        assert cfg.sigma == [0.1]
        assert cfg.n_elements == 128

    def test_sweep_grid_flags(self):
        cfg = parse_config(["sweep", "--sigma-min", "-0.9",
                            "--sigma-max", "2", "--steps", "100"])
        assert cfg.sigma_min == -0.9 and cfg.sigma_max == 2.0
        assert cfg.steps == 100
        from multitrace.cli import _sigma_grid
        grid = _sigma_grid(cfg)
        assert np.all(np.abs(grid + 1.0) > 1e-9)

    def test_flag_overrides_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "1d-2dom", "a": [1.0]}))
        cfg = parse_config(["--config", str(path), "--a", "5"])
        assert cfg.a == [5.0]
        assert cfg.mode == "1d-2dom"

    def test_mode_from_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "sweep", "kind": "1d"}))
        assert parse_config(["--config", str(path)]).mode == "sweep"

    def test_missing_geometry_named(self):
        with pytest.raises(ConfigError, match="geometry"):
            parse_config(["spectrum-2d"])

    def test_sigma_minus_one_rejected_with_reason(self):
        with pytest.raises(ConfigError, match="not invertible"):
            parse_config(["1d-2dom", "--sigma", "-1"])

    def test_unknown_mode_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "frobnicate"}))
        with pytest.raises(ConfigError, match="unknown mode"):
            parse_config(["--config", str(path)])

    def test_unreadable_config_value_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "1d-2dom", "steps": "many"}))
        with pytest.raises(ConfigError, match="^steps cannot be read"):
            parse_config(["--config", str(path)])

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "1d-2dom", "bogus": 1}))
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(["--config", str(path)])

    def test_complex_sigma_parsed(self):
        cfg = parse_config(["1d-2dom", "--sigma", "0.1+0.2j,0.3"])
        assert cfg.sigma[0] == 0.1 + 0.2j
        assert cfg.sigma[1] == 0.3

    def test_leading_negative_list_values(self):
        cfg = parse_config(["spectrum-2d", "--geometry", "square",
                            "--sigma", "-0.4,1", "--a", "1,5"])
        assert cfg.sigma == [-0.4, 1.0]
        assert cfg.a == [1.0, 5.0]
        cfg2 = parse_config(["sweep", "--kind", "1d",
                             "--sigma-min", "-0.9", "--sigma-max", "-0.2"])
        assert cfg2.sigma_min == -0.9 and cfg2.sigma_max == -0.2
        cfg3 = parse_config(["1d-2dom", "--sigma", "-0.5+0.2j,0.1"])
        assert cfg3.sigma[0] == -0.5 + 0.2j


class TestRunModes:
    def test_1d_2dom_optimal(self, tmp_path):
        cfg = parse_config(["1d-2dom", "--sigma", "0,0", "--alpha", "1",
                            "--beta", "2", "--out", str(tmp_path / "o")])
        report = run(cfg)
        assert report.results["converged_in"] <= 2
        assert (tmp_path / "o" / "convergence.csv").exists()
        assert (tmp_path / "o" / "run_report.json").exists()

    def test_1d_3dom(self, tmp_path):
        cfg = parse_config(["1d-3dom", "--sigma", "0,0,0",
                            "--out", str(tmp_path / "o")])
        report = run(cfg)
        assert report.results["converged_in"] <= 4

    def test_1d_3dom_sigma_order(self, tmp_path):
        # the first sigma belongs to the middle subdomain, which has two
        # interfaces: its pair of eigenvalues comes twice
        sigmas = (0.4, -0.3, 2.0)
        report = run(parse_config(["1d-3dom", "--sigma", "0.4,-0.3,2",
                                   "--out", str(tmp_path / "o")]))
        eigs = [complex(e["re"], e["im"]) if isinstance(e, dict) else e
                for e in report.results["eigenvalues"]]
        ref = []
        for s in (sigmas[0], *sigmas):
            root = np.sqrt(complex(s / (1 + s)))
            ref += [root, -root]
        match_multisets(eigs, ref, 1e-10)

    def test_1d_bounded(self, tmp_path):
        cfg = parse_config(["1d-bounded", "--a", "1", "--gamma", "0.5",
                            "--out", str(tmp_path / "o")])
        report = run(cfg)
        assert abs(report.results["dtn"]["dtn1"] - 2.163953413738653) < 1e-12
        assert report.results["dtn_rebuild_residual"] < 1e-12

    def test_1d_bounded_large_a_stays_finite(self, tmp_path):
        assert main(["1d-bounded", "--a", "2000", "--gamma", "0.5",
                     "--out", str(tmp_path / "o")]) == 0
        # json.loads accepts bare NaN, so the parse constant makes it fail
        data = json.loads((tmp_path / "o" / "run_report.json").read_text(),
                          parse_constant=pytest.fail)
        assert np.all(np.isfinite(data["results"]["coefficients"]))

    def test_schwarz_equiv(self, tmp_path):
        cfg = parse_config(["schwarz-equiv", "--steps", "4",
                            "--out", str(tmp_path / "o")])
        report = run(cfg)
        assert report.results["max_deviation"] <= 1e-12

    def test_spectrum_2d_small(self, tmp_path):
        cfg = parse_config(["spectrum-2d", "--geometry", "circle",
                            "--n", "16", "--out", str(tmp_path / "o")])
        report = run(cfg)
        assert (tmp_path / "o" / "eigenvalues.csv").exists()
        assert report.results["n_eigenvalues"] == 64
        assert 0.0 <= report.results["remainder_fraction"] <= 1.0
        assert "assembly_s" in report.timings

    def test_spectrum_report_splits_pencil_and_eigensolve(self, tmp_path):
        run(parse_config(["spectrum-2d-3dom", "--n", "8",
                          "--out", str(tmp_path / "o")]))
        data = json.loads((tmp_path / "o" / "run_report.json").read_text())
        timings = data["timings"]
        assert {"assembly_s", "pencil_s", "eigensolve_s",
                "total_s"} <= set(timings)
        assert (timings["assembly_s"] + timings["pencil_s"]
                + timings["eigensolve_s"] <= timings["total_s"])

    def test_sweep_analytic(self, tmp_path):
        cfg = parse_config(["sweep", "--kind", "1d", "--steps", "40",
                            "--out", str(tmp_path / "o")])
        report = run(cfg)
        assert report.results["analytic_radius_max_error"] < 1e-10
        lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + report.results["n_grid"]

    def test_sweep_analytic_three_subdomains(self, tmp_path):
        # at equal sigmas each of +-sqrt(s/(1+s)) is a fourfold eigenvalue
        # with 2x2 Jordan blocks, which an eigensolver resolves only to
        # about sqrt(machine epsilon): 2.9e-8 at sigma = -0.95
        report = run(parse_config(["sweep", "--kind", "1d-3dom",
                                   "--steps", "40",
                                   "--out", str(tmp_path / "o")]))
        assert report.results["analytic_radius_max_error"] < 1e-7
        rows = _sweep_rows(tmp_path / "o" / "sweep.csv")
        assert len(rows) == report.results["n_grid"] == 40
        assert all(n_eigs == 8 for *_, n_eigs in rows)

    def test_sweep_report_times_the_assembly(self, tmp_path):
        run(parse_config(["sweep", "--kind", "2d", "--geometry", "circle",
                          "--n", "12", "--steps", "3",
                          "--out", str(tmp_path / "o")]))
        data = json.loads((tmp_path / "o" / "run_report.json").read_text())
        timings = data["timings"]
        assert {"assembly_s", "total_s"} <= set(timings)
        assert 0.0 < timings["assembly_s"] <= timings["total_s"]

    def test_reproducible_artifacts(self, tmp_path):
        args = ["spectrum-2d", "--geometry", "circle", "--n", "12"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run(parse_config(args + ["--out", str(out1)]))
        run(parse_config(args + ["--out", str(out2)]))
        assert ((out1 / "eigenvalues.csv").read_bytes()
                == (out2 / "eigenvalues.csv").read_bytes())

    def test_report_echoes_config_with_run_id(self, tmp_path):
        cfg = parse_config(["1d-2dom", "--out", str(tmp_path / "o")])
        report = run(cfg)
        data = json.loads((tmp_path / "o" / "run_report.json").read_text())
        assert data["run_id"] == report.run_id
        assert data["config"]["mode"] == "1d-2dom"
        assert "total_s" in data["timings"]

    def test_report_records_the_environment(self, tmp_path):
        run(parse_config(["1d-2dom", "--out", str(tmp_path / "o")]))
        data = json.loads((tmp_path / "o" / "run_report.json").read_text())
        env = data["environment"]
        assert {"python", "numpy", "scipy", "blas", "threads",
                "cpu_count", "assembly_threads"} <= set(env)
        assert env["assembly_threads"] == assembly._WORKERS >= 1
        assert set(env["threads"]) == {"OMP_NUM_THREADS",
                                       "OPENBLAS_NUM_THREADS"}
        assert env["numpy"] == np.__version__


class TestArtifactFormats:
    """Each CSV is a header line and one line per row; the runs on one
    curve and on the line add a gnuplot script for it."""

    @pytest.mark.parametrize("argv, name, header, rows, plot", [
        (["1d-2dom", "--steps", "5"], "convergence.csv", "step,error", 6,
         True),
        (["schwarz-equiv", "--steps", "4"], "deviation.csv", "step,error", 5,
         False),
        (["1d-bounded"], "solution.csv", "x,u", 401, False),
        (["spectrum-2d", "--geometry", "circle", "--n", "8"],
         "eigenvalues.csv", "re,im", 32, True),
        (["spectrum-2d-3dom", "--n", "4", "--quad-order", "16"],
         "eigenvalues.csv", "re,im", 32, False),
        (["sweep", "--kind", "1d", "--steps", "5"], "sweep.csv",
         "sigma,rho,n_eigs,frac_cluster_1,frac_cluster_2,frac_remainder", 5,
         True),
    ], ids=["convergence", "deviation", "solution", "eigenvalues",
            "eigenvalues-annulus", "sweep"])
    def test_header_rows_and_plot(self, argv, name, header, rows, plot,
                                  tmp_path):
        out = tmp_path / "o"
        report = run(parse_config(argv + ["--out", str(out)]))
        lines = (out / name).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + rows
        assert all(line.count(",") == header.count(",") for line in lines)
        script = out / "plot.gp"
        assert script.exists() == plot
        assert report.files == [str(out / name)] + [str(script)] * plot + [
            str(out / "run_report.json")]
        if plot:
            lines = script.read_text().splitlines()
            assert lines[0] == ("# gnuplot script generated alongside the "
                                "data files")
            assert lines[-1].startswith(f'plot "{out / name}" every ::1 ')


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        code = main(["1d-2dom", "--out", str(tmp_path / "o")])
        assert code == 0
        assert "finished" in capsys.readouterr().out

    def test_high_quad_order(self, tmp_path):
        # singular rules take quad_order + 4 = 48 log-weighted points
        assert main(["spectrum-2d", "--geometry", "circle", "--n", "16",
                     "--quad-order", "44", "--out", str(tmp_path / "o")]) == 0

    def test_singular_line_system_is_named(self, tmp_path, capsys):
        # at a = 1e-300 the fixed-point system Id - J of the line operator
        # has pivots 2e-300 and 4.5e+299
        assert main(["1d-2dom", "--a", "1e-300",
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "Id - J is singular to working precision" in err, err
        assert "of the largest 4.545e+299" in err, err

    def test_config_error(self, capsys):
        assert main(["spectrum-2d"]) == 2
        assert "geometry" in capsys.readouterr().err

    def test_square_needs_divisible_elements(self, tmp_path, capsys):
        code = main(["spectrum-2d", "--geometry", "square", "--n", "13",
                     "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("out", ["file", "file/x"])
    def test_out_that_cannot_be_a_directory(self, out, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert main(["1d-2dom", "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: out "), err
        assert (tmp_path / "file").read_text() == ""


class TestRejectedInput:
    @pytest.mark.parametrize("argv, field", [
        (["1d-2dom", "--sigma", "nan"], "sigma"),
        (["1d-2dom", "--a", "nan"], "a"),
        (["spectrum-2d", "--geometry", "circle", "--a", "inf"], "a"),
        (["1d-2dom", "--alpha", "nan"], "alpha"),
        (["1d-2dom", "--beta", "inf"], "beta"),
        (["1d-3dom", "--alpha2", "nan"], "alpha2"),
        (["1d-3dom", "--beta2", "inf"], "beta2"),
        (["1d-2dom", "--eps", "-1"], "eps"),
        (["spectrum-2d", "--geometry", "circle", "--eps", "-1"], "eps"),
        (["1d-2dom", "--steps", "-3"], "steps"),
        (["spectrum-2d", "--geometry", "circle", "--quad-order", "1"],
         "quad_order"),
        (["spectrum-2d", "--geometry", "circle", "--n", "32769"],
         "n_elements"),
        (["spectrum-2d-3dom", "--n", "8193"], "n_elements"),
        (["sweep", "--kind", "2d", "--geometry", "circle", "--n", "32769"],
         "n_elements"),
        (["sweep", "--kind", "2d"], "geometry"),
        (["spectrum-2d", "--geometry", "square", "--n", "13"], "n_elements"),
        (["1d-2dom", "--sigma", "0.1,abc"], "sigma"),
        (["spectrum-2d", "--geometry", "circle", "--n", "12", "--eps", "nan"],
         "eps"),
        (["spectrum-2d", "--geometry", "circle", "--n", "12", "--eps", "inf"],
         "eps"),
        (["1d-bounded", "--gamma", "inf"], "gamma"),
        (["1d-2dom", "--n", "abc"], "n_elements"),
        (["1d-2dom", "--steps", "1.5"], "steps"),
        (["spectrum-2d", "--geometry", "triangle"], "geometry"),
        (["sweep", "--kind", "foo"], "kind"),
        (["frobnicate"], "mode"),
        ([], "mode"),
        (["1d-2dom", "--n", "2"], "n_elements"),
        (["sweep", "--steps", "1"], "steps"),
        (["1d-2dom", "--sigma", "-1"], "sigma"),
        (["schwarz-equiv", "--start", "1,2"], "start"),
        (["1d-2dom", "--sigma", "0.1,0.2,0.3"], "sigma"),
        (["spectrum-2d", "--geometry", "circle", "--a", "1,2,3"], "a"),
        (["sweep", "--a", "1,2"], "a"),
        (["sweep", "--sigma-min", "-1", "--sigma-max", "-1", "--steps", "2"],
         "sigma_min"),
        (["spectrum-2d-3dom", "--geometry", "annulus"], "geometry"),
        (["spectrum-2d", "--geometry", "circle", "--quad-order", "57"],
         "quad_order"),
        (["spectrum-2d-3dom", "--geometry", "square", "--n", "8"], "geometry"),
        (["1d-2dom", "--geometry", "circle"], "geometry"),
        (["sweep", "--kind", "1d", "--geometry", "circle"], "geometry"),
        (["sweep", "--kind", "2d-3dom", "--geometry", "circle"], "geometry"),
        (["schwarz-equiv", "--geometry", "square"], "geometry"),
        (["spectrum-2d-3dom", "--n", "32", "--radii", "0.99,1"], "radii"),
        (["sweep", "--kind", "2d-3dom", "--n", "8", "--radii",
          "0.999999999,1"], "radii"),
    ])
    def test_exit_2_naming_the_field(self, argv, field, tmp_path, capsys):
        # rejected by parse_config, before any assembly starts
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {field} "), err
        assert not (tmp_path / "o").exists()


class TestConfigFile:
    @pytest.mark.parametrize("content", ["[1, 2]", "3", '"1d-2dom"', "null"])
    def test_top_level_must_be_an_object(self, content, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(content)
        assert main(["--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: config file must hold "
                              "a JSON object"), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("n_elements", 12.7), ("steps", 3.9), ("quad_order", 8.5),
        ("steps", True), ("n_elements", False), ("steps", "3.0"),
        ("steps", float("inf")),
    ])
    def test_integer_fields_reject_non_integers(self, key, value, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "1d-2dom", key: value}))
        with pytest.raises(ConfigError, match=f"^{key} cannot be read"):
            parse_config(["--config", str(path)])

    @pytest.mark.parametrize("key, value", [
        ("eps", True), ("alpha", False), ("gamma", True), ("sigma_max", False),
        ("a", [True]), ("radii", [0.5, True]), ("sigma", [True, 0.2]),
        ("start", [1.0, 2.0, 3.0, False]),
    ])
    def test_real_fields_reject_booleans(self, key, value, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "1d-2dom", key: value}))
        assert main(["--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {key} cannot be read"), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [12, "12", 12.0])
    def test_integer_fields_accept_integral_values(self, value, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "1d-2dom", "n_elements": value,
                                    "steps": value, "quad_order": value}))
        cfg = parse_config(["--config", str(path)])
        assert cfg.n_elements == cfg.steps == cfg.quad_order == 12
        assert all(type(v) is int
                   for v in (cfg.n_elements, cfg.steps, cfg.quad_order))

    def test_null_geometry_stays_unset(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "1d-2dom", "geometry": None}))
        assert parse_config(["--config", str(path)]).geometry is None

    def test_report_config_block_and_run_id_unchanged(self):
        # the run_id hashes the config block, whose fields and their order
        # are read off the field table
        cfg = parse_config(["--config", str(CONFIGS_DIR / "fig2_circle.json")])
        assert list(asdict(cfg)) == [
            "mode", "a", "sigma", "geometry", "n_elements", "radii", "gamma",
            "alpha", "beta", "alpha2", "beta2", "start", "steps",
            "sigma_min", "sigma_max", "eps", "quad_order", "kind", "out"]
        assert cfg.run_id() == "c7fd22d1a0aa"


# assembles on one CPU of its own affinity and saves what it assembled
ONE_CPU_ASSEMBLY = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from multitrace import cli
from multitrace.bem2d import (KernelParams, assemble_operators, cross_block,
                              make_circle, make_three_domain)
ops = assemble_operators(make_circle(40), KernelParams(1.0))
inner, outer = make_three_domain(12, 16)
np.savez(sys.argv[1], V=ops.single_layer, K=ops.double_layer,
         W=ops.hypersingular, R=cross_block(inner, outer, KernelParams(1.0)))
print(cli._environment()["assembly_threads"])
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity on this platform")
def test_assembly_threads_follow_the_cpu_affinity(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", ONE_CPU_ASSEMBLY,
                           str(tmp_path / "one.npz")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"
    ops = assemble_operators(make_circle(40), KernelParams(1.0))
    inner, outer = make_three_domain(12, 16)
    expected = {"V": ops.single_layer, "K": ops.double_layer,
                "W": ops.hypersingular,
                "R": cross_block(inner, outer, KernelParams(1.0))}
    with np.load(tmp_path / "one.npz") as one:
        for name, matrix in expected.items():
            assert np.array_equal(one[name], matrix), name


class TestHelp:
    def test_runtime_imports_no_mpmath(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = ("import sys, multitrace.cli, multitrace.bem2d; "
                "print('mpmath' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cli_import_loads_only_linalg_and_special(self):
        # import time is the start-up of every run: no further scipy
        # subpackage and no mpmath
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = ("import sys, multitrace.cli; print(sorted(name for name, mod "
                "in sys.modules.items() if name.count('.') == 1 and "
                "name.startswith('scipy.') and not name[6:].startswith('_') "
                "and hasattr(mod, '__path__'))); print('mpmath' in "
                "sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == [
            "['scipy.linalg', 'scipy.special']", "False"]

    def test_help_lists_every_flag_and_choice(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "multitrace", "--help"],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        flags = [flag for flag, *_ in cli._FIELDS.values()
                 if flag.startswith("--")]
        assert len(flags) == len(cli._FIELDS) - 1      # all but the mode
        names = (*flags, *cli.MODES, *cli.GEOMETRIES, *cli.SWEEP_KINDS)
        missing = [name for name in names if name not in proc.stdout]
        assert not missing, proc.stdout


class TestDimensionCap:
    """``n_elements`` is capped at the largest run measured per geometry
    (``cli.LARGEST_RUN``), and ``DIMENSION_CAP`` applies to one mode
    pencil of the half-size red pencil: 2n rows on one curve and 4n on
    the annulus, split into as many modes as the curves' rotation order,
    n on the circle and the annulus and 4 on the square."""

    @pytest.mark.parametrize("argv", [
        ["spectrum-2d", "--geometry", "circle", "--n", "32768"],
        ["spectrum-2d", "--geometry", "square", "--n", "2000"],
        ["sweep", "--kind", "2d", "--geometry", "circle", "--n", "2000"],
        ["spectrum-2d-3dom", "--n", "8192"],
        ["spectrum-2d-3dom", "--n", "1000"],
        ["sweep", "--kind", "2d-3dom", "--n", "8192"],
    ])
    def test_accepted_up_to_the_cap(self, argv, monkeypatch):
        monkeypatch.setattr(assembly, "_assemble_operators", None)  # never called
        cfg = parse_config(argv)
        assert cfg.n_elements == int(argv[argv.index("--n") + 1])

    @pytest.mark.parametrize("argv", [
        ["spectrum-2d", "--geometry", "square", "--n", "2004"],
        ["sweep", "--kind", "2d-3dom", "--n", "8193"],
    ])
    def test_rejected_beyond_the_cap(self, argv):
        with pytest.raises(ConfigError, match="^n_elements .* beyond the cap"):
            parse_config(argv)

    def test_mode_pencil_rows_follow_the_rotation_order(self, monkeypatch):
        # past a larger measured square, its n / 2-row modes meet the cap
        monkeypatch.setitem(cli.LARGEST_RUN, "square", 10 ** 6)
        square = ["spectrum-2d", "--geometry", "square", "--n"]
        assert parse_config(square + ["8000"]).n_elements == 8000
        with pytest.raises(ConfigError, match="^n_elements 8004 gives mode "
                                              "pencils of dimension 4002"):
            parse_config(square + ["8004"])


class TestAnnulusGap:
    """An annulus run needs ``gap * quad_order >= ANNULUS_GAP * h``, h =
    2 pi r_outer / n the outer element length: below it the near
    cross-curve pairs are under-resolved (README, "Command line")."""

    @pytest.mark.parametrize("quad_order", [4, 56])
    @pytest.mark.parametrize("mode", [["spectrum-2d-3dom"],
                                      ["sweep", "--kind", "2d-3dom"]])
    def test_least_gap(self, mode, quad_order):
        argv = mode + ["--n", "1024", "--quad-order", str(quad_order)]
        least = cli.ANNULUS_GAP * 2 * np.pi * 2.0 / 1024 / quad_order
        inside = parse_config(argv + ["--radii", f"{2 - 1.01 * least!r},2"])
        assert inside.radii == [2 - 1.01 * least, 2.0]
        with pytest.raises(ConfigError, match=r"^radii \[.*\] leave a gap "
                                              r"of .*, below 5 h / quad_order"):
            parse_config(argv + ["--radii", f"{2 - 0.99 * least!r},2"])

    def test_one_curve_runs_ignore_radii(self):
        cfg = parse_config(["spectrum-2d", "--geometry", "circle",
                            "--radii", "0.999,1"])
        assert cfg.radii == [0.999, 1.0]


class TestOperatorSetReuse:
    @pytest.mark.parametrize("argv, calls", [
        (["spectrum-2d", "--geometry", "circle", "--a", "1"], 1),
        (["spectrum-2d", "--geometry", "circle", "--a", "1,2"], 2),
        (["spectrum-2d-3dom", "--a", "1"], 2),
        (["spectrum-2d-3dom", "--a", "1,2,1"], 3),
        (["spectrum-2d-3dom", "--a", "1,2,3"], 4),
    ])
    def test_each_distinct_set_assembled_once(self, argv, calls, tmp_path,
                                              monkeypatch):
        seen = []
        original = assembly._assemble_operators

        def counted(mesh, params):
            seen.append(params.a)
            return original(mesh, params)

        monkeypatch.setattr(assembly, "_assemble_operators", counted)
        run(parse_config(argv + ["--n", "8", "--out", str(tmp_path / "o")]))
        assert len(seen) == calls


def _counted(monkeypatch, module, name, calls):
    """Record every call of ``module.name`` in ``calls[name]``."""
    original = getattr(module, name)
    calls[name] = 0

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


class TestCalderonMapPath:
    """One curve whose two sides share one operator set takes one
    eigensolve, of ``q``, for every sigma; other runs take the pencil.
    Every curve the CLI builds declares its rotation group, so both come
    from one ``eig_generalized`` of a stack of per-mode pencils."""

    @pytest.mark.parametrize("argv, eigs, pencils", [
        (["spectrum-2d", "--geometry", "circle"], 1, 0),
        (["spectrum-2d", "--geometry", "square", "--sigma", "0.2+0.1j,0"],
         1, 0),
        (["spectrum-2d", "--geometry", "circle", "--a", "1,5"], 1, 1),
        (["sweep", "--kind", "2d", "--geometry", "circle", "--steps", "5"],
         1, 0),
        (["sweep", "--kind", "2d-3dom", "--steps", "5"], 5, 5),
    ])
    def test_eigensolves_and_pencils(self, argv, eigs, pencils, tmp_path,
                                     monkeypatch):
        calls = {}
        for name in ("eig_generalized", "jacobi_pencil"):
            _counted(monkeypatch, spectra, name, calls)
        run(parse_config(argv + ["--n", "16", "--out", str(tmp_path / "o")]))
        assert calls == {"eig_generalized": eigs, "jacobi_pencil": pencils}

    def test_report_times_the_q_eigensolve(self, tmp_path):
        report = run(parse_config(["spectrum-2d", "--geometry", "circle",
                                   "--n", "16", "--out", str(tmp_path / "o")]))
        assert set(report.timings) == {"assembly_s", "eigensolve_s",
                                       "total_s"}
        assert (report.timings["assembly_s"] + report.timings["eigensolve_s"]
                <= report.timings["total_s"])

    def test_sweep_report_times_the_q_eigensolve(self, tmp_path):
        report = run(parse_config(["sweep", "--kind", "2d", "--geometry",
                                   "circle", "--n", "16", "--steps", "3",
                                   "--out", str(tmp_path / "o")]))
        timings = report.timings
        assert set(timings) == {"assembly_s", "eigensolve_s", "total_s"}
        assert 0.0 < timings["assembly_s"] and 0.0 < timings["eigensolve_s"]
        assert (timings["assembly_s"] + timings["eigensolve_s"]
                <= timings["total_s"])
        pencil = run(parse_config(["sweep", "--kind", "2d-3dom", "--n", "8",
                                   "--steps", "3",
                                   "--out", str(tmp_path / "p")]))
        assert set(pencil.timings) == {"assembly_s", "total_s"}

    @pytest.mark.parametrize("geometry, n, q_min", [
        ("circle", 64, -0.01203), ("circle", 128, -0.01213),
        ("square", 128, -0.01201)])
    def test_report_pins_q(self, geometry, n, q_min, tmp_path):
        run(parse_config(["spectrum-2d", "--geometry", geometry, "--n",
                          str(n), "--out", str(tmp_path / "o")]))
        results = json.loads(
            (tmp_path / "o" / "run_report.json").read_text())["results"]
        assert round(results["q_min"], 5) == q_min
        assert round(results["q_max"], 5) == round(1 - q_min, 5)
        assert round(results["projector_defect"], 5) == -q_min

    def test_pencil_report_has_no_q(self, tmp_path):
        report = run(parse_config(["spectrum-2d", "--geometry", "circle",
                                   "--a", "1,5", "--n", "16",
                                   "--out", str(tmp_path / "o")]))
        assert not {"q_min", "q_max", "projector_defect"} & set(
            report.results)
        assert "pencil_s" in report.timings

    def test_singular_block_at_minus_q_min(self, tmp_path, capsys):
        # sigma = -q_min zeroes sigma + q at q_min, and 1 + sigma - q at
        # q_max = 1 - q_min: both paths fail loudly, and the run exits 3.
        # The curve declares its rotation group, so the records path
        # factors the per-mode symbols the q of the map path comes from.
        mesh = make_circle(64)
        P1, P2 = (assemble_calderon_2d(mesh, KernelParams(1.0), side)
                  for side in ("interior", "exterior"))
        q = spectra.calderon_eigenvalues(P1)
        sigma = -float(q.real.min())
        for records in ((q, 1 - q), (P1, P2)):
            with pytest.raises(SingularMatrixError, match="subdomain") as err:
                spectra.pencil_eigenvalues(
                    *spectra.jacobi_2d_2dom(*records, (sigma, sigma)))
            assert 0.0 <= err.value.pivot_magnitude < 1e-13
        code = main(["spectrum-2d", "--geometry", "circle", "--n", "64",
                     "--sigma", repr(sigma),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "SingularMatrixError" in capsys.readouterr().err


def _sweep_rows(path):
    """``(sigma, rho, n_eigs)`` of each row of a real-sigma sweep.csv."""
    lines = path.read_text().splitlines()[1:]
    return [(float(sigma), float(rho), int(n_eigs))
            for sigma, rho, n_eigs, *_ in (line.split(",") for line in lines)]


class TestRunReport2d:
    """What a 2D report says about how it was computed and whether the
    paper's convergence claim held."""

    @pytest.mark.parametrize("argv, order", [
        (["spectrum-2d", "--geometry", "circle", "--n", "16"], 16),
        (["spectrum-2d", "--geometry", "square", "--n", "16"], 4),
        (["spectrum-2d-3dom", "--n", "12"], 12),
        (["sweep", "--kind", "2d-3dom", "--n", "8", "--steps", "2"], 8)],
        ids=["circle", "square", "annulus", "annulus-sweep"])
    def test_report_records_the_rotation_order(self, argv, order, tmp_path):
        run(parse_config(argv + ["--out", str(tmp_path / "o")]))
        results = json.loads(
            (tmp_path / "o" / "run_report.json").read_text())["results"]
        assert results["rotation_order"] == order

    def _warnings(self, argv, tmp_path):
        report = run(parse_config(argv + ["--out", str(tmp_path / "o")]))
        return report.results["spectral_radius"], report.results["warnings"]

    def test_fig4_warns_of_divergence(self, tmp_path):
        rho, warnings = self._warnings(
            ["--config", str(CONFIGS_DIR / "fig4_square_heterogeneous.json")],
            tmp_path)
        assert round(rho, 4) == 1.0673
        assert warnings == [
            f"spectral radius {rho:.6g} >= 1 although every Re sigma > -1/2: "
            "the subdomains' a differ, and the paper's law, which needs one "
            "operator on both sides of each curve, does not apply"]

    def test_divergence_band_warns(self, tmp_path):
        rho, warnings = self._warnings(
            ["spectrum-2d", "--geometry", "circle", "--n", "64", "--sigma",
             "0.00373"], tmp_path)
        assert round(rho, 2) == 3.93
        assert warnings == [
            f"spectral radius {rho:.6g} >= 1 although every Re sigma > -1/2: "
            "the paper predicts convergence"]

    def test_fig2_has_no_warning(self, tmp_path):
        rho, warnings = self._warnings(
            ["--config", str(CONFIGS_DIR / "fig2_circle.json")], tmp_path)
        assert rho < 1 and warnings == []


class Test2dRuns:
    def test_spectrum_2d_3dom_small(self, tmp_path):
        report = run(parse_config(["spectrum-2d-3dom", "--n", "12",
                                   "--sigma", "-0.4,1,0.25",
                                   "--out", str(tmp_path / "o")]))
        assert report.results["n_eigenvalues"] == 8 * 12
        assert (tmp_path / "o" / "eigenvalues.csv").exists()

    @pytest.mark.parametrize("kind, geometry, n, per_element", [
        ("2d", "circle", 12, 4),
        ("2d-3dom", None, 8, 8),
    ])
    def test_bem_sweep_keeps_sigma_zero_row(self, kind, geometry, n,
                                            per_element, tmp_path):
        argv = ["sweep", "--kind", kind, "--n", str(n), "--steps", "3",
                "--sigma-min", "-0.5", "--sigma-max", "0.5",
                "--out", str(tmp_path / "o")]
        if geometry:
            argv += ["--geometry", geometry]
        report = run(parse_config(argv))
        rows = _sweep_rows(tmp_path / "o" / "sweep.csv")
        assert report.results["n_grid"] == len(rows) == 3
        assert all(n_eigs == per_element * n for *_, n_eigs in rows)
        assert [sigma for sigma, *_ in rows] == [-0.5, 0.0, 0.5]
        # the discrete radius follows sqrt|s/(1+s)| away from s = 0 (1 at
        # s = -1/2) and overshoots the vanishing exact radius at s = 0
        for sigma, rho, _ in rows:
            if sigma:
                assert abs(rho - spectra.spectral_radius_formula(sigma)) < 0.01
            else:
                assert 0.05 < rho < 0.2

    def test_bem_sweep_summarizes_each_point_once(self, monkeypatch,
                                                  tmp_path):
        calls = []
        original = spectra.cluster_report

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(spectra, "cluster_report", counted)
        report = run(parse_config(["sweep", "--kind", "2d-3dom", "--n", "8",
                                   "--steps", "5",
                                   "--out", str(tmp_path / "o")]))
        assert report.results["n_grid"] == 5
        assert len(calls) == 5


CONFIGS = sorted(CONFIGS_DIR.glob("fig*.json"))


def test_reference_configs_present():
    assert len(CONFIGS) == 8


# the claim of each config's README row, as run_report results; fig8's
# 41 annulus pencils split into 48 Fourier modes each
REFERENCE_CLAIMS = {
    "fig1_line_sweep": {"n_grid": 200},
    "fig2_circle": {"cluster_fractions": [0.5] * 4, "remainder_fraction": 0.0,
                    "n_eigenvalues": 512},
    "fig2_square": {"cluster_fractions": [0.5] * 4, "remainder_fraction": 0.0,
                    "n_eigenvalues": 512},
    "fig3_square_two_sigmas": {"cluster_fractions": [0.25] * 4,
                               "remainder_fraction": 0.0},
    "fig4_square_heterogeneous": {"remainder_fraction": 4 / 512,
                                  "n_eigenvalues": 512},
    "fig6_annulus_equal_sigma": {"cluster_fractions": [0.5] * 6,
                                 "remainder_fraction": 0.0},
    "fig7_annulus_distinct_sigma": {
        "cluster_fractions": [0.25, 0.25] + [0.125] * 4,
        "remainder_fraction": 0.0},
    "fig8_annulus_sweep": {"n_grid": 41, "pencil_modes": 48},
}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_reference_config_maps_to_mode_table(path, tmp_path):
    cfg = parse_config(["--config", str(path)])
    assert cfg.mode in _MODES
    if cfg.mode == "sweep":
        assert cfg.kind in _SWEEPS
    if path.stem not in REFERENCE_CLAIMS:
        return
    # a config's own out lies in the repository
    results = run(parse_config(["--config", str(path),
                                "--out", str(tmp_path / "o")])).results
    for key, value in REFERENCE_CLAIMS[path.stem].items():
        assert results[key] == value, key
    if path.stem == "fig1_line_sweep":
        assert results["analytic_radius_max_error"] < 1e-14
    if path.stem == "fig4_square_heterogeneous":
        assert min(results["cluster_fractions"]) >= 0.24
