"""The command-line front end, driven through ``cli.main``: in process, and once
in a fresh process to see what it imports."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hermloc import cli
from hermloc.deep_net import read_dag_json
from hermloc.estimator import (
    Dataset,
    EstimatorConfig,
    estimate_batch,
    ratio_reconstruction,
    read_dataset_csv,
    write_dataset_csv,
)
from hermloc.experiments import HelixSpec, rate_table
from hermloc.gaussian_net import MAX_M, prefab_kernel_network, read_network_json
from hermloc.kernels import eval_kernel


class TestSynthNet:
    def test_rejects_n_above_synthesis_cap(self, tmp_path, capsys):
        rc = cli.main(["synth-net", "--n", str(MAX_M + 1), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"n must be an integer in 2..{MAX_M}" in err
        assert not (tmp_path / "network.json").exists()

    def test_writes_network(self, tmp_path):
        rc = cli.main(["synth-net", "--n", "3", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "network.json").stat().st_size > 0

    def test_check_prints_term_count_and_rounding_scale(self, tmp_path, capsys):
        rc = cli.main(["synth-net", "--n", "3", "--check", "--out", str(tmp_path)])
        assert rc == 0
        wrote, check = capsys.readouterr().out.splitlines()
        path = tmp_path / "network.json"
        assert wrote == f"wrote {path} (324 Gaussian terms, scale=1.0)"
        net = prefab_kernel_network(3, 1, 2, 1.0)
        radii = np.linspace(0.0, 3.0, 121)
        pts = np.stack([radii, np.zeros_like(radii)], axis=1)
        kernel = eval_kernel(EstimatorConfig.build(3, 1.0, 1).table, radii)
        dev = float(np.max(np.abs(net(pts) - kernel)))
        # S = sum_k |core_k| prod_a w(k_a), w the column sums of |factor|
        w = np.sum(np.abs(net.factor), axis=0)
        mass = float(np.einsum("ij,i,j->", np.abs(net.core), w, w))
        assert check == (
            f"max |network - localized kernel| on [0,3]: {dev:.3e} "
            f"(S = sum_k |core_k| prod_a w(k_a) = {mass:.3e}, "
            f"rounding scale u*S = {2.0**-53 * mass:.3e})"
        )
        assert mass >= float(np.sum(np.abs(net.coeffs)))
        # the file holds the network only: no timings, no check figures
        assert sorted(json.loads(path.read_text())) == [
            "axis_centers", "core", "dim", "factor", "scale"]


class TestEstimate:
    def test_prints_kernel_form_and_keeps_csv_plain(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert cli.main(["gen-data", "--m", "32", "--out", str(data_dir)]) == 0
        out_dir = tmp_path / "est"
        rc = cli.main(["estimate", "--data", str(data_dir / "data.csv"), "--n", "8",
                       "--helix-grid", "16", "--ratio", "--out", str(out_dir)])
        assert rc == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("kernel:")]
        assert len(lines) == 1
        line = lines[0]
        assert "table length 33" in line and "cutoff 17.5" in line
        assert "1120 panels of width 1/64 and degree 6" in line and "certificate " in line
        with open(out_dir / "estimates.csv", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
        assert header == ["t", "y_1", "y_2", "y_3", "raw", "ratio"]

    def test_ratio_takes_both_columns_from_one_pass(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "data"
        assert cli.main(["gen-data", "--m", "64", "--noise", "additive",
                         "--out", str(data_dir)]) == 0
        ds = read_dataset_csv(str(data_dir / "data.csv"), 1)
        ecfg = EstimatorConfig.build(8, 1.0, 1)
        _, xs = HelixSpec().grid(40)
        want_raw = estimate_batch(ds, ecfg, xs)
        want_ratio = ratio_reconstruction(ds, ecfg, xs)

        def second_pass(*args):
            raise AssertionError("a second kernel pass")

        # value_and_unit_passes is the one pass; cli imports no ratio_reconstruction
        monkeypatch.setattr(cli, "estimate_batch", second_pass)
        out_dir = tmp_path / "est"
        rc = cli.main(["estimate", "--data", str(data_dir / "data.csv"), "--n", "8",
                       "--helix-grid", "40", "--ratio", "--out", str(out_dir)])
        assert rc == 0
        with open(out_dir / "estimates.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["raw"]) for r in rows] == want_raw.tolist()
        assert [float(r["ratio"]) for r in rows] == want_ratio.tolist()

    def test_values_that_overflow_the_sums_exit_2(self, tmp_path, capsys):
        # every sample at the first grid point puts its kernel row at the
        # peak (about 2.7), so values 1e308 give an estimate past the float range
        pts = np.repeat(HelixSpec().point([0.0]), 64, axis=0)
        data = tmp_path / "data.csv"
        write_dataset_csv(Dataset(pts, np.full(64, 1e308), 1), str(data))
        out_dir = tmp_path / "est"
        rc = cli.main(["estimate", "--data", str(data), "--n", "8",
                       "--helix-grid", "16", "--out", str(out_dir)])
        assert rc == 2
        assert "|F| = 1e+308, M = 64: overflow encountered" in capsys.readouterr().err
        assert not (out_dir / "estimates.csv").exists()


    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_empty_helix_grid_exits_2(self, tmp_path, capsys, grid):
        data_dir = tmp_path / "data"
        assert cli.main(["gen-data", "--m", "8", "--out", str(data_dir)]) == 0
        out_dir = tmp_path / "est"
        rc = cli.main(["estimate", "--data", str(data_dir / "data.csv"), "--n", "8",
                       "--helix-grid", grid, "--out", str(out_dir)])
        assert rc == 2
        assert "--helix-grid must be at least 1" in capsys.readouterr().err
        assert not (out_dir / "estimates.csv").exists()


class TestEstimatePoints:
    """``estimate --points``: a y_1..y_Q file or a dataset CSV, read one way."""

    @pytest.fixture
    def data(self, tmp_path):
        data_dir = tmp_path / "data"
        assert cli.main(["gen-data", "--m", "64", "--noise", "additive", "--seed", "5",
                         "--out", str(data_dir)]) == 0
        return data_dir / "data.csv"

    @staticmethod
    def _estimate(data, points, out_dir, *extra):
        return cli.main(["estimate", "--data", str(data), "--n", "8", "--points", str(points),
                         "--out", str(out_dir), *extra])

    @staticmethod
    def _columns(path):
        with open(path, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}

    def test_point_file_and_dataset_csv_match_estimate_batch(self, tmp_path, data):
        ds = read_dataset_csv(str(data), 1)
        ecfg = EstimatorConfig.build(8, 1.0, 1)
        xs = np.array([[0.5, 0.1, 1.0], [-0.3, 0.2, 2.5], [0.1, -0.9, 4.2]])
        pts = tmp_path / "pts.csv"
        pts.write_text("y_1,y_2,y_3\n" + "".join(",".join(map(repr, x)) + "\n"
                                                  for x in xs.tolist()))
        for points, want_xs in ((pts, xs), (data, ds.points)):
            out_dir = tmp_path / f"est_{points.stem}"
            assert self._estimate(data, points, out_dir, "--ratio") == 0
            cols = self._columns(out_dir / "estimates.csv")
            assert list(cols) == ["y_1", "y_2", "y_3", "raw", "ratio"]
            got_xs = np.stack([cols["y_1"], cols["y_2"], cols["y_3"]], axis=1)
            assert got_xs.tobytes() == want_xs.tobytes()
            assert cols["raw"].tobytes() == estimate_batch(ds, ecfg, want_xs).tobytes()
            want_ratio = ratio_reconstruction(ds, ecfg, want_xs)
            assert cols["ratio"].tobytes() == want_ratio.tobytes()

    def test_helix_grid_is_not_checked_with_points(self, tmp_path, data):
        # the grid is never built when --points is given
        assert self._estimate(data, data, tmp_path / "est", "--helix-grid", "0") == 0

    def test_trailing_blank_line_is_skipped(self, tmp_path, data):
        pts = tmp_path / "pts.csv"
        pts.write_text("y_1,y_2,y_3\n0.5,0.1,1.0\n\n")
        assert self._estimate(data, pts, tmp_path / "a") == 0
        with_blank = tmp_path / "data_blank.csv"
        with_blank.write_text(data.read_text() + "\n")
        assert self._estimate(data, with_blank, tmp_path / "b") == 0
        assert len(self._columns(tmp_path / "b" / "estimates.csv")["raw"]) == 64

    @pytest.mark.parametrize("body, why", [
        ("0.5,0.1,1.0\n\n0.2,0.3\n", "line 4: 2 fields, expected 3"),
        ("0.5,0.1,1.0\n0.2,zero,0.3\n", "line 3: could not convert string to float: 'zero'"),
    ])
    def test_bad_row_exits_2_naming_file_and_line(self, tmp_path, capsys, data, body, why):
        pts = tmp_path / "pts.csv"
        pts.write_text("y_1,y_2,y_3\n" + body)
        assert self._estimate(data, pts, tmp_path / "est") == 2
        assert f"{pts}: {why}" in capsys.readouterr().err
        assert not (tmp_path / "est" / "estimates.csv").exists()

    def test_wrong_coordinate_count_exits_2(self, tmp_path, capsys, data):
        pts = tmp_path / "pts.csv"
        pts.write_text("y_1,y_2\n0.5,0.1\n")
        assert self._estimate(data, pts, tmp_path / "est") == 2
        assert f"{pts}: points must have 3 coordinates" in capsys.readouterr().err

    def test_header_must_be_y_columns(self, tmp_path, capsys, data):
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y,z\n0.5,0.1,1.0\n")
        assert self._estimate(data, pts, tmp_path / "est") == 2
        assert "header must be y_1..y_Q or y_1..y_Q,value" in capsys.readouterr().err


GRAPH = {
    "nodes": [
        {"id": "s1", "kind": "source", "in_dim": 1, "constituent": "sum"},
        {"id": "s2", "kind": "source", "in_dim": 2, "constituent": "norm"},
        {"id": "top", "kind": "internal", "in_dim": 2, "children": ["s1", "s2"],
         "constituent": "prod"},
    ],
    "sink": "top",
}


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestSubcommandsWriteOutput:
    def test_gen_data(self, tmp_path):
        rc = cli.main(["gen-data", "--m", "8", "--seed", "2", "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "data.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["y_1", "y_2", "y_3", "value"] and len(rows) == 9

    def test_helix(self, tmp_path):
        rc = cli.main(["helix", "--m", "16", "--n", "4", "--test-points", "8",
                       "--trials", "2", "--seed", "1", "--out", str(tmp_path)])
        assert rc == 0
        for name in ("summary.json", "trial_000.csv", "trial_001.csv", "average.csv"):
            assert (tmp_path / name).stat().st_size > 0

    def test_helix_leaves_scipy_linalg_unimported(self, tmp_path):
        # the package needs numpy alone: no scipy module is loaded by the
        # import, the default-size helix run or a Gaussian-network build
        code = ("import sys\n"
                "def scipy_modules():\n"
                "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
                "import hermloc\n"
                "seen = [scipy_modules()]\n"
                "from hermloc import cli\n"
                "rc = cli.main(['helix', '--test-points', '64', "
                f"'--out', {str(tmp_path)!r}])\n"
                "seen.append(scipy_modules())\n"
                "from hermloc.gaussian_net import prefab_kernel_network\n"
                "prefab_kernel_network(4, 1, 2, 1.0)\n"
                "seen.append(scipy_modules())\n"
                "print(seen)\n"
                "print(rc, 'scipy.linalg' in sys.modules)")
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        lines = proc.stdout.splitlines()
        assert lines[-2] == "[[], [], []]"
        assert lines[-1] == "0 False"

    def test_rates(self, tmp_path):
        rc = cli.main(["rates", "--m", "16", "--n-list", "4,8", "--test-points", "16",
                       "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "rates.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "regime", "n", "error", "slope"]
        assert [r[:3] for r in rows[1:]] == [[m, r, n] for m in ("heat", "kernel")
                                             for r in ("limit", "sample") for n in ("4", "8")]
        got = rate_table([4, 8], 16, 0, 16)
        assert [r[3:] for r in rows[1:]] == [
            [str(err), "" if slope is None else str(slope)] for *_, err, slope in got]

    def test_deep_eval(self, tmp_path):
        graph = _write_json(tmp_path / "graph.json", GRAPH)
        inputs = _write_json(tmp_path / "inputs.json",
                             [{"s1": [2.0], "s2": [3.0, 4.0]}, {"s1": [1.0], "s2": [0.0, 0.5]}])
        out = tmp_path / "out"
        rc = cli.main(["deep-eval", "--graph", graph, "--inputs", inputs, "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "deep_eval.json").read_text())
        assert doc == {"values": [10.0, 0.5]}

    def test_deep_eval_norm_of_large_coordinates(self, tmp_path, capsys):
        # |(1e200, 0)| is finite although its square is not
        graph = _write_json(tmp_path / "graph.json", GRAPH)
        inputs = _write_json(tmp_path / "inputs.json", {"s1": [1.0], "s2": [1e200, 0.0]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["deep-eval", "--graph", graph, "--inputs", inputs])
        assert rc == 0
        assert capsys.readouterr() == ("1e+200\n", "")

    def test_helix_constituent_is_the_helix_target(self):
        spec = HelixSpec()
        t = np.linspace(spec.t_min, spec.t_max, 101)
        got = [cli.CONSTITUENTS["helix_f"](y) for y in spec.point(t)]
        assert all(type(v) is float for v in got)
        np.testing.assert_array_equal(got, spec.target(t))


class TestConfigPrecedence:
    """A config value is used where its flag is absent; the flag wins where given."""

    @pytest.mark.parametrize("command, doc, flags, override, name", [
        ("gen-data", {"M": 6, "noise": "additive", "sigma": 0.5, "seed": 3},
         ["--m", "6", "--noise", "additive", "--sigma", "0.5", "--seed", "3"],
         ["--seed", "4"], "data.csv"),
        ("estimate", {"n": 8, "alpha": 0.5, "q": 2},
         ["--n", "8", "--alpha", "0.5", "--q", "2"], ["--n", "6"], "estimates.csv"),
        # an integer sigma is read as the float it stands for, as --sigma 1 is
        ("helix", {"M": 16, "n": 4, "alpha": 0.5, "noise": "additive", "sigma": 1,
                   "trials": 2, "test_points": 8, "seed": 1},
         ["--m", "16", "--n", "4", "--alpha", "0.5", "--noise", "additive", "--sigma", "1",
          "--trials", "2", "--test-points", "8", "--seed", "1"],
         ["--m", "12"], "summary.json"),
        ("rates", {"M": 16, "seed": 1, "test_points": 16},
         ["--m", "16", "--seed", "1", "--test-points", "16"], ["--seed", "2"], "rates.csv"),
        ("synth-net", {"n": 3, "q": 2, "ambient_dim": 3, "alpha": 0.5},
         ["--n", "3", "--q", "2", "--ambient-dim", "3", "--alpha", "0.5"], ["--n", "2"],
         "network.json"),
    ])
    def test_config_value_is_used_and_flag_wins(self, tmp_path, command, doc, flags,
                                                override, name):
        data = tmp_path / "data"
        assert cli.main(["gen-data", "--m", "8", "--out", str(data)]) == 0
        extra = {"estimate": ["--data", str(data / "data.csv"), "--helix-grid", "16"],
                 "rates": ["--n-list", "4"]}.get(command, [])
        config = ["--config", _write_json(tmp_path / "c.json", doc)]

        def run(label, args):
            out = tmp_path / label
            assert cli.main([command, *args, "--out", str(out), *extra]) == 0
            return (out / name).read_bytes()

        from_config = run("config", config)
        assert from_config == run("flags", flags)
        overridden = run("config_and_flag", config + override)
        assert overridden == run("flags_and_flag", flags + override)
        assert overridden != from_config

    def test_helix_output_from_config_and_out_wins(self, tmp_path, capsys):
        doc = {"M": 16, "n": 4, "test_points": 8, "output": str(tmp_path / "from_config")}
        config = _write_json(tmp_path / "c.json", doc)
        assert cli.main(["helix", "--config", config]) == 0
        assert (tmp_path / "from_config" / "summary.json").exists()
        assert capsys.readouterr().out.endswith(f"wrote report to {tmp_path / 'from_config'}\n")
        assert cli.main(["helix", "--config", config, "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "summary.json").exists()
        assert capsys.readouterr().out.endswith(f"wrote report to {tmp_path / 'flag'}\n")


class TestExitCodes:
    def test_runtime_failure_exits_1(self, tmp_path, monkeypatch, capsys):
        def boom(cfg):
            raise RuntimeError("no luck")

        monkeypatch.setattr(cli, "run_experiment", boom)
        rc = cli.main(["helix", "--out", str(tmp_path)])
        assert rc == 1
        assert "failed: no luck" in capsys.readouterr().err

    def test_helix_config_of_wrong_type_exits_2(self, tmp_path, capsys):
        config = _write_json(tmp_path / "c.json", {"M": "256"})
        rc = cli.main(["helix", "--config", config, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "error: M must be of type int" in capsys.readouterr().err

    def test_helix_config_output_null_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = _write_json(tmp_path / "c.json", {"M": 16, "n": 4, "test_points": 8,
                                                   "output": None})
        rc = cli.main(["helix", "--config", config])
        assert rc == 2
        assert "error: output must be of type str, got None" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["c.json"]

    @pytest.mark.parametrize("command, doc", [
        ("gen-data", {"M": None}),
        ("estimate", {"n": [8]}),
        ("rates", {"M": True}),
        ("synth-net", {"n": {"value": 3}}),
    ])
    def test_config_value_of_wrong_json_type_exits_2(self, tmp_path, capsys, command, doc):
        data = tmp_path / "data"
        assert cli.main(["gen-data", "--m", "8", "--out", str(data)]) == 0
        capsys.readouterr()
        config = _write_json(tmp_path / "c.json", doc)
        extra = ["--data", str(data / "data.csv")] if command == "estimate" else []
        out = tmp_path / "out"
        rc = cli.main([command, "--config", config, "--out", str(out)] + extra)
        assert rc == 2
        key = next(iter(doc))
        assert f"error: {key} must be of type" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        "gen-data", "estimate", "helix", "rates", "synth-net",
    ])
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, command):
        data = tmp_path / "data"
        assert cli.main(["gen-data", "--m", "8", "--out", str(data)]) == 0
        capsys.readouterr()
        config = _write_json(tmp_path / "c.json", {"sigmaa": 3})
        extra = ["--data", str(data / "data.csv")] if command == "estimate" else []
        out = tmp_path / "out"
        rc = cli.main([command, "--config", config, "--out", str(out)] + extra)
        assert rc == 2
        assert "error: unknown config fields: ['sigmaa']" in capsys.readouterr().err
        assert not out.exists()

    # sigma is checked whatever the noise model, as ExperimentConfig checks it
    @pytest.mark.parametrize("command, noise", [
        ("gen-data", "additive"), ("helix", "additive"), ("gen-data", "none"),
    ], ids=["gen-data", "helix", "gen-data-none"])
    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_non_finite_sigma_exits_2(self, tmp_path, capsys, command, noise, sigma, via):
        if via == "flag":
            given = ["--sigma", str(sigma)]
        else:  # json writes NaN and Infinity, and reads them back
            given = ["--config", _write_json(tmp_path / "c.json", {"sigma": sigma})]
        small = ["--m", "16", "--n", "4", "--test-points", "8"] if command == "helix" else []
        out = tmp_path / "out"
        rc = cli.main([command, "--noise", noise, *given, *small, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: sigma must be positive\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, extra", [
        ("gen-data", []),
        ("helix", ["--m", "16", "--n", "4", "--test-points", "8"]),
        ("rates", ["--n-list", "4"]),
    ], ids=["gen-data", "helix", "rates"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command, extra):
        out = tmp_path / "out"
        rc = cli.main([command, "--seed", "-1", *extra, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: seed must be a non-negative integer\n")
        assert not out.exists()

    def test_deep_eval_non_numeric_coordinates_exit_2(self, tmp_path, capsys):
        graph = _write_json(tmp_path / "graph.json", GRAPH)
        inputs = _write_json(tmp_path / "inputs.json", {"s1": {"a": 1}, "s2": [0.0, 1.0]})
        rc = cli.main(["deep-eval", "--graph", graph, "--inputs", inputs])
        assert rc == 2
        assert "error: source coordinates must be numbers: source 's1'" in capsys.readouterr().err
        # numpy reads "0.5" and true as floats; JSON strings and booleans are not numbers
        for s1, s2, bad in (("0.5", [0.0, 1.0], "'s1': got '0.5'"),
                            ([0.5], [True, 2.0], "'s2': got [True, 2.0]")):
            inputs = _write_json(tmp_path / "inputs.json", {"s1": s1, "s2": s2})
            out = tmp_path / "out"
            rc = cli.main(["deep-eval", "--graph", graph, "--inputs", inputs, "--out", str(out)])
            assert rc == 2
            assert capsys.readouterr() == (
                "", f"error: source coordinates must be numbers: source {bad}\n")
            assert not out.exists()

    def test_deep_eval_inputs_for_unknown_ids_exit_2(self, tmp_path, capsys):
        graph = _write_json(tmp_path / "graph.json", GRAPH)
        doc = {"s1": [0.5], "s2": [0.0, 1.0], "s9": [1.0], "top": [2.0, 3.0]}
        inputs = _write_json(tmp_path / "inputs.json", doc)
        out = tmp_path / "out"
        rc = cli.main(["deep-eval", "--graph", graph, "--inputs", inputs, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr() == (
            "", "error: inputs name ids that are not sources of the graph: ['s9', 'top']\n")
        assert not out.exists()

    def test_deep_eval_constituent_of_another_width_exits_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(GRAPH))
        doc["nodes"][2]["constituent"] = "helix_f"
        graph = _write_json(tmp_path / "graph.json", doc)
        inputs = _write_json(tmp_path / "inputs.json", {"s1": [0.0], "s2": [0.0, 1.0]})
        out = tmp_path / "out"
        rc = cli.main(["deep-eval", "--graph", graph, "--inputs", inputs, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr() == (
            "", "error: node 'top': helix_f reads 3 coordinates, but in_dim is 2\n")
        assert not out.exists()

    def test_deep_eval_non_finite_coordinates_exit_2(self, tmp_path, capsys):
        graph = _write_json(tmp_path / "graph.json", GRAPH)
        out = tmp_path / "out"
        for source, bad in (("s1", [math.nan]), ("s2", [0.0, math.inf])):
            doc = {"s1": [1.0], "s2": [0.0, 1.0], source: bad}
            inputs = _write_json(tmp_path / "inputs.json", doc)  # json writes NaN, Infinity
            rc = cli.main(["deep-eval", "--graph", graph, "--inputs", inputs, "--out", str(out)])
            assert rc == 2
            assert f"error: source '{source}': coordinates must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_deep_eval_non_finite_value_exits_1(self, tmp_path, capsys):
        # finite inputs whose product overflows: JSON cannot hold the result
        graph = _write_json(tmp_path / "graph.json", GRAPH)
        inputs = _write_json(tmp_path / "inputs.json", {"s1": [1e200], "s2": [1e200, 0.0]})
        out = tmp_path / "out"
        with np.errstate(over="ignore"):
            rc = cli.main(["deep-eval", "--graph", graph, "--inputs", inputs, "--out", str(out)])
        assert rc == 1
        assert "gave the non-finite value inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("reader", ["config", "graph", "inputs", "dag", "network"])
    def test_json_syntax_error_names_the_file(self, tmp_path, capsys, reader):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 3,\n')
        graph = _write_json(tmp_path / "graph.json", GRAPH)
        inputs = _write_json(tmp_path / "inputs.json", {"s1": [0.0], "s2": [0.0, 1.0]})
        argv = {
            "config": ["synth-net", "--config", str(bad), "--out", str(tmp_path / "out")],
            "graph": ["deep-eval", "--graph", str(bad), "--inputs", inputs],
            "inputs": ["deep-eval", "--graph", graph, "--inputs", str(bad)],
        }.get(reader)
        if argv is None:
            with pytest.raises(ValueError) as info:
                {"dag": read_dag_json, "network": read_network_json}[reader](str(bad))
            err = f"error: {info.value}"
        else:
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: Expecting property name")

    def test_deep_eval_pooling_not_an_object_exits_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(GRAPH))
        doc["nodes"][2]["pooling"] = "clip"
        graph = _write_json(tmp_path / "graph.json", doc)
        inputs = _write_json(tmp_path / "inputs.json", {"s1": [0.0], "s2": [0.0, 1.0]})
        rc = cli.main(["deep-eval", "--graph", graph, "--inputs", inputs])
        assert rc == 2
        assert "node 'top': pooling must be an object, got 'clip'" in capsys.readouterr().err

    def test_deep_eval_pooling_parameter_not_a_number_or_not_read_exits_2(self, tmp_path,
                                                                           capsys):
        inputs = _write_json(tmp_path / "inputs.json", {"s1": [2.0], "s2": [3.0, 4.0]})
        out = tmp_path / "out"
        graph = str(tmp_path / "graph.json")
        for pooling, message in (
            ({"name": "clip", "lo": "-0.5", "hi": True},
             f"{graph}: node 'top': pooling lo must be a number, got '-0.5'"),
            ({"name": "clip", "lo": -0.5, "hi": True},
             f"{graph}: node 'top': pooling hi must be a number, got True"),
            ({"name": "clip", "low": -0.5}, "node top: clip pooling reads no parameter 'low'"),
            ({"name": "identity", "radius": 1.0},
             "node top: identity pooling reads no parameter 'radius'"),
        ):
            doc = json.loads(json.dumps(GRAPH))
            doc["nodes"][2]["pooling"] = pooling
            _write_json(tmp_path / "graph.json", doc)
            rc = cli.main(["deep-eval", "--graph", graph, "--inputs", inputs, "--out", str(out)])
            assert rc == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_deep_eval_bound_breaking_numbers_exit_2(self, tmp_path, capsys):
        # json reads NaN and Infinity; each would poison the propagation bound
        for key, bad in (("pooling", {"name": "radial", "radius": math.nan}),
                         ("pooling", {"name": "identity", "c": math.inf}),
                         ("lipschitz", -2.0)):
            doc = json.loads(json.dumps(GRAPH))
            doc["nodes"][2][key] = bad
            graph = _write_json(tmp_path / "graph.json", doc)
            inputs = _write_json(tmp_path / "inputs.json", {"s1": [0.0], "s2": [0.0, 1.0]})
            rc = cli.main(["deep-eval", "--graph", graph, "--inputs", inputs])
            assert rc == 2
            assert "node top: " in capsys.readouterr().err

    @pytest.mark.parametrize("n_list, why", [
        ("8,4", "strictly increasing"), ("4,4", "strictly increasing"), ("1,4", ">= 2"),
        ("4,8.0", "invalid literal for int()"), ("4,x", "invalid literal for int()"),
        ("", "invalid literal for int()"),
    ])
    def test_rates_n_list_not_increasing_integers_exits_2(self, tmp_path, capsys, n_list, why):
        rc = cli.main(["rates", "--m", "16", "--test-points", "16", "--n-list", n_list,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and why in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv, message", [
        (["helix", "--m", "16", "--n", "4"], "test_points >= 3"),
        (["rates", "--m", "16", "--n-list", "4"], "at least 3 test points are needed, got {}"),
    ], ids=["helix", "rates"])
    @pytest.mark.parametrize("points", ["0", "1", "2"])
    def test_fewer_than_three_test_points_exit_2(self, tmp_path, capsys, argv, message, points):
        rc = cli.main([*argv, "--test-points", points, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert message.format(points) in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_deep_eval_constituent_not_a_string_exits_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(GRAPH))
        doc["nodes"][2]["constituent"] = ["sum"]
        graph = _write_json(tmp_path / "graph.json", doc)
        inputs = _write_json(tmp_path / "inputs.json", {"s1": [0.0], "s2": [0.0, 1.0]})
        rc = cli.main(["deep-eval", "--graph", graph, "--inputs", inputs])
        assert rc == 2
        assert "node 'top': constituent must be a string, got ['sum']" in capsys.readouterr().err


class TestFlags:
    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        parser = cli.build_parser()
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        got = {
            name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
            for name, sub in subs.choices.items()
        }
        assert got == {
            "gen-data": {"--out", "--config", "--seed", "--m", "--noise", "--sigma"},
            "estimate": {"--out", "--config", "--data", "--n", "--alpha", "--q",
                         "--points", "--helix-grid", "--ratio"},
            "helix": {"--out", "--config", "--seed", "--trials", "--m", "--n", "--alpha",
                      "--noise", "--sigma", "--test-points"},
            "rates": {"--out", "--config", "--seed", "--m", "--test-points", "--n-list"},
            "synth-net": {"--out", "--config", "--n", "--q", "--ambient-dim", "--alpha",
                          "--check"},
            "deep-eval": {"--out", "--graph", "--inputs"},
        }

    def test_unread_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["rates", "--sigma", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --sigma 3" in capsys.readouterr().err


class TestParameterTable:
    """Each --config parameter's flag, help line and resolved default come from one table."""

    @staticmethod
    def _help(command, flag, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith(f"  {flag} "))
        # "--flag METAVAR  help", or the help alone on the next line
        parts = lines[i].split(maxsplit=2)
        return parts[2] if len(parts) == 3 else lines[i + 1].strip()

    @staticmethod
    def _resolved(command):
        extra = ["--data", "data.csv"] if command == "estimate" else []
        return cli._settings(cli.build_parser().parse_args([command, *extra]))

    @pytest.mark.parametrize("command, key", [
        (command, key) for command, row in cli._PARAMETERS.items() for key in row
    ])
    def test_help_shows_the_resolved_default(self, command, key, capsys, monkeypatch):
        flag = "--out" if key == "output" else "--" + key.lower().replace("_", "-")
        value = self._resolved(command)[key]
        assert self._help(command, flag, capsys, monkeypatch).endswith(f"(default {value})")

    def test_a_table_default_sets_help_and_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cli._PARAMETERS["gen-data"], "M", 11)
        assert self._help("gen-data", "--m", capsys, monkeypatch).endswith("(default 11)")
        assert self._resolved("gen-data")["M"] == 11
        assert cli.main(["gen-data", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "data.csv", encoding="utf-8") as fh:
            assert len(list(csv.reader(fh))) == 12
