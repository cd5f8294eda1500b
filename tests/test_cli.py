import csv
import json

import numpy as np
import pytest

from stokes2p.cli import main, parse_init
from stokes2p.core import PeriodicGrid


def run_cli(*argv):
    return main(list(argv))


class TestParseInit:
    def test_terms_sum(self):
        g = PeriodicGrid(16)
        v = parse_init("cos:1:0.5,sin:2:0.25,const:1.0", g)
        want = 0.5 * np.cos(g.nodes) + 0.25 * np.sin(2 * g.nodes) + 1.0
        assert np.allclose(v, want)

    @pytest.mark.parametrize("bad", ["cos:1", "tan:1:0.5", "cos:999:0.1", "const", ""])
    def test_bad_terms_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_init(bad, PeriodicGrid(16))


class TestSimulate:
    def test_zero_init_stays_zero(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("simulate", "--n", "32", "--init", "const:0",
                       "--dt", "0.01", "--t-end", "0.05", "--out-dir", str(out))
        assert code == 0
        lines = (out / "snapshots.jsonl").read_text().splitlines()
        assert len(lines) == 6   # initial + 5 steps
        for line in lines:
            rec = json.loads(line)
            assert rec["linf"] == 0.0

    def test_unstable_regime_warned(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli("simulate", "--n", "32", "--sigma", "1", "--g", "9.81",
                       "--rho-plus", "2", "--rho-minus", "1",
                       "--init", "cos:1:1e-8", "--dt", "0.01", "--t-end", "0.02",
                       "--out-dir", str(out))
        assert code == 0
        captured = capsys.readouterr()
        assert "unstable" in captured.err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["theta"] == pytest.approx(-9.81)

    def test_bad_flags_exit_one(self, tmp_path):
        assert run_cli("simulate", "--n", "7", "--out-dir", str(tmp_path)) == 1
        assert run_cli("simulate", "--init", "bogus:1:2", "--out-dir", str(tmp_path)) == 1
        assert run_cli("bogus-subcommand") == 1

    def test_zero_snapshot_stride_exit_one(self, tmp_path, capsys):
        code = run_cli("simulate", "--n", "16", "--t-end", "0.1", "--snapshot-stride", "0",
                       "--out-dir", str(tmp_path / "run"))
        assert code == 1
        assert "snapshot_stride" in capsys.readouterr().err

    def test_blow_up_exit_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli("simulate", "--n", "32", "--sigma", "1", "--g", "1",
                       "--rho-plus", "10", "--rho-minus", "0",
                       "--init", "cos:1:0.001", "--scheme", "imex-euler",
                       "--dt", "0.05", "--t-end", "100", "--out-dir", str(out))
        assert code == 2
        # last good state persisted, all finite
        lines = (out / "snapshots.jsonl").read_text().splitlines()
        last = json.loads(lines[-1])
        assert all(np.isfinite(v) for v in last["values"])

    def test_unmeetable_tolerance_exit_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli("simulate", "--n", "32", "--init", "cos:1:0.3,sin:2:0.1",
                       "--adapt", "--tol", "1e-18", "--t-end", "0.5",
                       "--out-dir", str(out))
        assert code == 2
        assert "stopped" in capsys.readouterr().err
        lines = (out / "snapshots.jsonl").read_text().splitlines()
        assert json.loads(lines[-1])["t"] == 0.0

    @pytest.mark.parametrize("flags", [("--t-end", "nan"), ("--dt", "inf"), ("--tol", "nan"),
                                       ("--g", "nan"), ("--mu", "inf"),
                                       ("--init", "cos:1:nan")])
    def test_non_finite_flags_exit_one(self, tmp_path, capsys, flags):
        out = tmp_path / "run"
        assert run_cli("simulate", "--n", "16", *flags, "--out-dir", str(out)) == 1
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    def test_determinism_bitwise(self, tmp_path):
        args = ["simulate", "--n", "64", "--sigma", "1", "--mu", "1",
                "--init", "cos:1:0.01,sin:3:0.002", "--dt", "0.01",
                "--t-end", "0.3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out-dir", str(a)) == 0
        assert run_cli(*args, "--out-dir", str(b)) == 0
        assert (a / "snapshots.jsonl").read_bytes() == (b / "snapshots.jsonl").read_bytes()


class TestSpectrum:
    def test_table_and_csv_round_trip(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        code = run_cli("spectrum", "--n", "64", "--sigma", "1", "--mu", "1",
                       "--k-max", "8", "--out", str(out))
        assert code == 0
        captured = capsys.readouterr().out
        assert "regime=stable" in captured
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        for k, row in enumerate(rows, start=1):
            assert float(row["lambda_analytic"]) == -k / 4.0
            # full-precision repr round-trips to identical floats
            assert repr(float(row["lambda_numeric"])) == row["lambda_numeric"]

    def test_theta0_reported(self, tmp_path, capsys):
        code = run_cli("spectrum", "--n", "64", "--sigma", "1", "--mu", "1",
                       "--g", "1", "--rho-minus", "3", "--k-max", "4")
        assert code == 0
        assert "theta0=0.8660254038" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--sigma", "--rho-minus"])
    def test_non_finite_params_exit_one(self, capsys, flag):
        assert run_cli("spectrum", "--n", "64", "--k-max", "2", flag, "inf") == 1
        assert "error: " in capsys.readouterr().err

    def test_bad_kmax(self):
        assert run_cli("spectrum", "--n", "64", "--k-max", "50") == 1

    @pytest.mark.parametrize("raw", ["0", "abc"])
    def test_bad_thread_env(self, monkeypatch, capsys, raw):
        monkeypatch.setenv("STOKES_NUM_THREADS", raw)
        assert run_cli("spectrum", "--n", "64", "--k-max", "2") == 1
        assert "STOKES_NUM_THREADS must be a positive integer" in capsys.readouterr().err


class TestField:
    def test_csv_and_sidecar(self, tmp_path):
        run_dir = tmp_path / "run"
        assert run_cli("simulate", "--n", "64", "--init", "cos:1:0.2",
                       "--dt", "0.01", "--t-end", "0.02",
                       "--out-dir", str(run_dir)) == 0
        out = tmp_path / "field.csv"
        code = run_cli("field", "--snapshot", str(run_dir / "snapshots.jsonl"),
                       "--sigma", "1", "--mu", "1",
                       "--x2-min", "-3", "--x2-max", "3", "--nx2", "5",
                       "--nx1", "4", "--out", str(out))
        assert code == 0
        with open(out) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["x1", "x2", "side", "v1", "v2", "q"]
        assert rows, "expected at least one off-collar sample"
        for row in rows:
            assert row[2] in ("plus", "minus")
            float(row[3]), float(row[4]), float(row[5])
        sidecar = json.loads((tmp_path / "field.sidecar.json").read_text())
        assert sidecar["skipped_points"] > 0         # the x2 = 0 band is collar
        assert abs(sidecar["c1"] - sidecar["c1_alt"]) < 1e-10

    @pytest.mark.parametrize("flag,count", [("--nx1", "-1"), ("--nx1", "0"), ("--nx2", "-1")])
    def test_bad_point_count_exit_one(self, tmp_path, capsys, flag, count):
        run_dir = tmp_path / "run"
        assert run_cli("simulate", "--n", "16", "--t-end", "0.02", "--out-dir", str(run_dir)) == 0
        code = run_cli("field", "--snapshot", str(run_dir / "snapshots.jsonl"),
                       flag, count, "--out", str(tmp_path / "f.csv"))
        assert code == 1
        assert "nx1 and nx2 must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--x1-min", "--x1-max", "--x2-min", "--x2-max"])
    def test_non_finite_window_exit_one(self, tmp_path, capsys, flag):
        run_dir = tmp_path / "run"
        assert run_cli("simulate", "--n", "16", "--t-end", "0.02", "--out-dir", str(run_dir)) == 0
        out = tmp_path / "f.csv"
        code = run_cli("field", "--snapshot", str(run_dir / "snapshots.jsonl"),
                       flag, "nan", "--out", str(out))
        assert code == 1
        assert "window bounds must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_snapshot(self, tmp_path):
        assert run_cli("field", "--snapshot", str(tmp_path / "nope.jsonl"),
                       "--out", str(tmp_path / "f.csv")) == 1


class TestVerify:
    @pytest.mark.slow
    def test_quick_level_passes(self, capsys):
        import time
        t0 = time.time()
        code = run_cli("verify", "--level", "quick", "--seed", "0")
        elapsed = time.time() - t0
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS operator-identity/B=A+C" in out
        assert elapsed < 30.0

    def test_fault_injection_names_identity(self, capsys):
        code = run_cli("verify", "--level", "quick", "--inject-fault", "quadrature")
        captured = capsys.readouterr()
        assert code == 3
        assert "FAIL operator-identity/B=A+C" in captured.out
        assert "reproduce with" in captured.err
