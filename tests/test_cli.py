import csv
import json

import numpy as np
import pytest

from stokes2p.cli import build_parser, main, parse_init
from stokes2p.core import PeriodicGrid
from stokes2p.evolution import SCHEMES, StepperConfig


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

    def test_scheme_flag_reads_the_scheme_table(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        scheme = next(a for a in sub.choices["simulate"]._actions if a.dest == "scheme")
        assert list(scheme.choices) == list(SCHEMES)
        assert scheme.default == StepperConfig().scheme == "exp-euler"

    @pytest.mark.parametrize("scheme, dt, want", [("exp-euler", "0", 2.0 / 32),
                                                  ("rk4-explicit", "0", 0.5 / 32),
                                                  ("rk4-explicit", "0.01", 0.01)])
    def test_manifest_records_the_step_that_ran(self, tmp_path, scheme, dt, want):
        out = tmp_path / "run"
        code = run_cli("simulate", "--n", "32", "--init", "cos:1:0.001", "--scheme", scheme,
                       "--dt", dt, "--t-end", "0.125", "--out-dir", str(out))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dt"] == float(dt)
        assert manifest["effective_dt"] == want
        last = json.loads((out / "snapshots.jsonl").read_text().splitlines()[-1])
        assert last["t"] == pytest.approx(0.125)

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
                       "--init", "cos:1:0.001", "--scheme", "exp-euler",
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

    def test_window_searched_once(self, tmp_path, monkeypatch):
        # the collar filter's search serves sample_flow too
        from stokes2p import fields

        run_dir = tmp_path / "run"
        assert run_cli("simulate", "--n", "32", "--init", "cos:1:0.2",
                       "--t-end", "0.02", "--out-dir", str(run_dir)) == 0
        searched = []
        original = fields._closest_samples

        def spy(f, pts):
            searched.append(np.array(pts))
            return original(f, pts)

        monkeypatch.setattr(fields, "_closest_samples", spy)
        assert run_cli("field", "--snapshot", str(run_dir / "snapshots.jsonl"),
                       "--x2-min", "-3", "--x2-max", "3", "--nx2", "5", "--nx1", "5",
                       "--out", str(tmp_path / "f.csv")) == 0
        # the far-field check searches its own probes at |x2| = 20
        window = [p for p in searched if np.all(np.abs(p[:, 1]) <= 3.0)]
        assert len(window) == 1 and len(window[0]) == 25

    def test_forcing_built_once(self, tmp_path, monkeypatch):
        # one forcing serves the samples, the far-field constants and the
        # far-field residuals; the files hold what the public functions give
        import sys

        from stokes2p import evolution
        from stokes2p.cli import _params_from_args
        from stokes2p.core import InterfaceProfile
        from stokes2p.evolution import far_field_constants
        from stokes2p.fields import (default_collar, far_field_residuals,
                                     min_interface_distance, sample_flow)

        run_dir = tmp_path / "run"
        assert run_cli("simulate", "--n", "32", "--init", "cos:1:0.2",
                       "--t-end", "0.02", "--out-dir", str(run_dir)) == 0
        calls = []
        original = evolution.forcing_G

        def spy(f, params):
            calls.append(1)
            return original(f, params)

        for name, module in list(sys.modules.items()):
            if name.startswith("stokes2p") and getattr(module, "forcing_G", None) is original:
                monkeypatch.setattr(module, "forcing_G", spy)
        out = tmp_path / "f.csv"
        argv = ["field", "--snapshot", str(run_dir / "snapshots.jsonl"), "--g", "1.5",
                "--rho-minus", "2", "--x2-min", "-3", "--x2-max", "3", "--nx2", "5",
                "--nx1", "5", "--out", str(out)]
        assert run_cli(*argv) == 0
        assert len(calls) == 1
        monkeypatch.undo()

        with open(run_dir / "snapshots.jsonl") as fh:
            values = json.loads(fh.read().splitlines()[-1])["values"]
        f = InterfaceProfile(PeriodicGrid(len(values)), np.asarray(values))
        params = _params_from_args(build_parser().parse_args(argv))
        x1 = np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False)
        pts = np.array([[a, b] for b in np.linspace(-3.0, 3.0, 5) for a in x1])
        keep = min_interface_distance(f, pts) >= default_collar(f)
        want = [[repr(s.point[0]), repr(s.point[1]), s.side, repr(s.velocity[0]),
                 repr(s.velocity[1]), repr(s.pressure)]
                for s in sample_flow(f, params, pts[keep], collar=0.0)]
        with open(out) as fh:
            assert list(csv.reader(fh))[1:] == want
        sidecar = json.loads(out.with_suffix(".sidecar.json").read_text())
        c = far_field_constants(f, params)
        assert [sidecar[k] for k in ("c1", "c2", "c1_alt", "c2_alt")] == \
            [c.c1, c.c2, c.c1_alt, c.c2_alt]
        assert sidecar["far_field"] == far_field_residuals(f, params)

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

    def test_identity_check_evaluates_each_c_member_once(self, monkeypatch):
        # B = A + C and the C recursion share their C members: 26 distinct
        # (n, m), each evaluated once, against 75 evaluations one by one
        from stokes2p import verify

        seen = []
        original = verify.eval_C

        def spy(spec, density, **kwargs):
            seen.append((spec.n, spec.m))
            return original(spec, density, **kwargs)

        monkeypatch.setattr(verify, "eval_C", spy)
        assert all(ok for _, ok, _ in verify.check_operator_identities(n_points=32))
        assert len(seen) == len(set(seen)) == 26
