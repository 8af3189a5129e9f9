import json
from pathlib import Path

import numpy as np
import pytest

from multitrace import cli
from multitrace.cli import (_RUNNERS, _SWEEPS, ConfigError, main,
                            parse_config, run)


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

    def test_1d_bounded(self, tmp_path):
        cfg = parse_config(["1d-bounded", "--a", "1", "--gamma", "0.5",
                            "--out", str(tmp_path / "o")])
        report = run(cfg)
        assert abs(report.results["dtn"]["dtn1"] - 2.163953413738653) < 1e-12
        assert report.results["dtn_rebuild_residual"] < 1e-12

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
                "cpu_count"} <= set(env)
        assert set(env["threads"]) == {"OMP_NUM_THREADS",
                                       "OPENBLAS_NUM_THREADS"}
        assert env["numpy"] == np.__version__


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        code = main(["1d-2dom", "--out", str(tmp_path / "o")])
        assert code == 0
        assert "finished" in capsys.readouterr().out

    def test_config_error(self, capsys):
        assert main(["spectrum-2d"]) == 2
        assert "geometry" in capsys.readouterr().err

    def test_square_needs_divisible_elements(self, tmp_path, capsys):
        code = main(["spectrum-2d", "--geometry", "square", "--n", "13",
                     "--out", str(tmp_path / "o")])
        assert code == 2


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
        (["spectrum-2d", "--geometry", "circle", "--n", "2001"], "n_elements"),
        (["spectrum-2d-3dom", "--n", "1001"], "n_elements"),
        (["sweep", "--kind", "2d", "--geometry", "circle", "--n", "2001"],
         "n_elements"),
        (["sweep", "--kind", "2d"], "geometry"),
        (["spectrum-2d", "--geometry", "square", "--n", "13"], "n_elements"),
        (["1d-2dom", "--sigma", "0.1,abc"], "sigma"),
    ])
    def test_exit_2_naming_the_field(self, argv, field, tmp_path, capsys):
        # rejected by parse_config, before any assembly starts
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {field} "), err
        assert not (tmp_path / "o").exists()


class TestDimensionCap:
    """The cap applies to the half-size red pencil the eigensolve runs
    on: 2n rows on one curve, 4n on the annulus."""

    @pytest.mark.parametrize("argv", [
        ["spectrum-2d", "--geometry", "circle", "--n", "1001"],
        ["spectrum-2d", "--geometry", "square", "--n", "2000"],
        ["sweep", "--kind", "2d", "--geometry", "circle", "--n", "2000"],
        ["spectrum-2d-3dom", "--n", "501"],
        ["spectrum-2d-3dom", "--n", "1000"],
        ["sweep", "--kind", "2d-3dom", "--n", "1000"],
    ])
    def test_accepted_up_to_the_cap(self, argv, monkeypatch):
        monkeypatch.setattr(cli, "assemble_operators", None)   # never called
        cfg = parse_config(argv)
        assert cfg.n_elements == int(argv[argv.index("--n") + 1])

    @pytest.mark.parametrize("argv", [
        ["spectrum-2d", "--geometry", "square", "--n", "2004"],
        ["sweep", "--kind", "2d-3dom", "--n", "1001"],
    ])
    def test_rejected_beyond_the_cap(self, argv):
        with pytest.raises(ConfigError, match="^n_elements .* beyond the cap"):
            parse_config(argv)


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
        original = cli.assemble_operators

        def counted(mesh, params):
            seen.append(params.a)
            return original(mesh, params)

        monkeypatch.setattr(cli, "assemble_operators", counted)
        run(parse_config(argv + ["--n", "8", "--out", str(tmp_path / "o")]))
        assert len(seen) == calls


def _sweep_rows(path):
    lines = path.read_text().splitlines()[1:]
    return [(float(line.split(",")[0]), int(line.split(",")[2]))
            for line in lines]


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
        assert all(n_eigs == per_element * n for _, n_eigs in rows)
        assert 0.0 in [sigma for sigma, _ in rows]


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs")
                 .glob("fig*.json"))


def test_reference_configs_present():
    assert len(CONFIGS) == 8


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_reference_config_maps_to_mode_table(path):
    cfg = parse_config(["--config", str(path)])
    assert cfg.mode in _RUNNERS
    if cfg.mode == "sweep":
        assert cfg.kind in _SWEEPS
