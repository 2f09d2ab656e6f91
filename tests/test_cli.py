"""The command-line front end, driven in process through ``cli.main``."""

import argparse
import csv
import json

import numpy as np
import pytest

from hermloc import cli
from hermloc.estimator import (
    EstimatorConfig,
    estimate_batch,
    ratio_reconstruction,
    read_dataset_csv,
)
from hermloc.experiments import HelixSpec
from hermloc.gaussian_net import MAX_M, prefab_kernel_network
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
        mass = float(np.sum(np.abs(net.coeffs)))
        assert check == (
            f"max |network - localized kernel| on [0,3]: {dev:.3e} "
            f"(sum |c_j| = {mass:.3e}, rounding scale u*sum |c_j| = {2.0**-53 * mass:.3e})"
        )
        # the file holds the network only: no timings, no check figures
        assert sorted(json.loads(path.read_text())) == ["axis_centers", "coeffs", "dim", "scale"]


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
        assert "70 panels of degree 16" in line and "certificate " in line
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

        monkeypatch.setattr(cli, "estimate_batch", second_pass)
        monkeypatch.setattr(cli, "ratio_reconstruction", second_pass)
        out_dir = tmp_path / "est"
        rc = cli.main(["estimate", "--data", str(data_dir / "data.csv"), "--n", "8",
                       "--helix-grid", "40", "--ratio", "--out", str(out_dir)])
        assert rc == 0
        with open(out_dir / "estimates.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["raw"]) for r in rows] == want_raw.tolist()
        assert [float(r["ratio"]) for r in rows] == want_ratio.tolist()


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

    def test_baseline_heat(self, tmp_path):
        rc = cli.main(["baseline-heat", "--m", "16", "--times", "0.1", "--n-list", "4",
                       "--test-points", "16", "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "baseline_heat.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows] == ["method", "heat", "kernel"]

    def test_demo_bernstein(self, tmp_path):
        rc = cli.main(["demo-bernstein", "--n-list", "4,8", "--grid", "9",
                       "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "bernstein.csv", encoding="utf-8") as fh:
            assert len(list(csv.reader(fh))) == 3

    def test_deep_eval(self, tmp_path):
        graph = _write_json(tmp_path / "graph.json", GRAPH)
        inputs = _write_json(tmp_path / "inputs.json",
                             [{"s1": [2.0], "s2": [3.0, 4.0]}, {"s1": [1.0], "s2": [0.0, 0.5]}])
        out = tmp_path / "out"
        rc = cli.main(["deep-eval", "--graph", graph, "--inputs", inputs, "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "deep_eval.json").read_text())
        assert doc == {"values": [10.0, 0.5]}


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

    @pytest.mark.parametrize("command, doc", [
        ("gen-data", {"M": None}),
        ("estimate", {"n": [8]}),
        ("baseline-heat", {"M": True}),
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

    def test_deep_eval_non_numeric_coordinates_exit_2(self, tmp_path, capsys):
        graph = _write_json(tmp_path / "graph.json", GRAPH)
        inputs = _write_json(tmp_path / "inputs.json", {"s1": {"a": 1}, "s2": [0.0, 1.0]})
        rc = cli.main(["deep-eval", "--graph", graph, "--inputs", inputs])
        assert rc == 2
        assert "error: source coordinates must be numbers" in capsys.readouterr().err


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
            "baseline-heat": {"--out", "--config", "--seed", "--m", "--times", "--n-list",
                              "--test-points"},
            "demo-bernstein": {"--out", "--n-list", "--grid"},
            "synth-net": {"--out", "--config", "--n", "--q", "--ambient-dim", "--alpha",
                          "--check"},
            "deep-eval": {"--out", "--graph", "--inputs"},
        }

    def test_unread_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["demo-bernstein", "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
