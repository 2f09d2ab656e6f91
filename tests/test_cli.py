"""The command-line front end, driven in process through ``cli.main``."""

import csv

from hermloc import cli
from hermloc.gaussian_net import MAX_M


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
