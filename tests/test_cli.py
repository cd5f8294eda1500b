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

    def test_out_dir_onto_a_file_exit_one(self, tmp_path, capsys):
        # a file where the output directory would go: an error line, no
        # traceback and nothing written
        blocker = tmp_path / "run"
        blocker.write_text("keep")
        for out in (blocker, blocker / "sub"):
            code = run_cli("simulate", "--n", "16", "--t-end", "0.02", "--out-dir", str(out))
            assert code == 1
            assert capsys.readouterr().err.startswith("error: ")
        assert blocker.read_text() == "keep" and sorted(tmp_path.iterdir()) == [blocker]

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

    @pytest.mark.parametrize("extra", [(), ("--g", "1", "--rho-minus", "3"),
                                       ("--g", "1", "--rho-plus", "3")])
    def test_output_is_the_two_report_rendering(self, tmp_path, capsys, extra):
        # the numeric report carries the analytic eigenvalues, the regime and
        # theta0 of analytic_spectrum: stdout and the CSV are byte for byte
        # what a rendering from both reports gives
        import io

        from stokes2p.analysis import analytic_spectrum, numeric_jacobian_at_zero
        from stokes2p.cli import _params_from_args

        argv = ("spectrum", "--n", "64", "--sigma", "1", "--mu", "1", "--k-max", "6") + extra
        out = tmp_path / "spec.csv"
        assert run_cli(*argv, "--out", str(out)) == 0
        printed = capsys.readouterr().out
        params = _params_from_args(build_parser().parse_args(argv))
        analytic = analytic_spectrum(params, 6)
        numeric = numeric_jacobian_at_zero(params, PeriodicGrid(64), 6)
        theta0 = "n/a" if analytic.theta0 is None else f"{analytic.theta0:.10g}"
        lines = [f"regime={analytic.regime} theta={params.theta:.10g} theta0={theta0} "
                 f"leakage={numeric.leakage:.3e}",
                 f"{'k':>4} {'analytic':>22} {'numeric':>22} {'rel_error':>12}"]
        table = io.StringIO()
        writer = csv.writer(table)
        writer.writerow(["k", "lambda_analytic", "lambda_numeric", "rel_error"])
        for ma, mn in zip(analytic.modes, numeric.modes):
            lines.append(f"{ma.k:>4} {ma.lam_analytic:>22.14e} {mn.lam_numeric:>22.14e} "
                         f"{mn.rel_error:>12.3e}")
            writer.writerow([ma.k, repr(float(ma.lam_analytic)), repr(float(mn.lam_numeric)),
                             repr(float(mn.rel_error))])
        assert printed == "\n".join(lines) + "\n"
        assert out.read_bytes() == table.getvalue().encode()

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

    def test_out_into_a_missing_directory_exit_one(self, tmp_path, capsys, monkeypatch):
        # refused before the Jacobian is taken: no table is printed
        from stokes2p import cli

        monkeypatch.setattr(cli, "numeric_jacobian_at_zero",
                            lambda *args: pytest.fail("computed"))
        for out in (tmp_path / "missing" / "spec.csv", tmp_path):
            assert run_cli("spectrum", "--n", "64", "--k-max", "2", "--out", str(out)) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and captured.out == ""
        assert list(tmp_path.iterdir()) == []


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
        # one routing pass serves the collar filter and sample_flow: its one
        # search takes the rows x2 = -1.5, 0 and 1.5, which clear neither side
        # of the strip (|f| <= 0.2 and the collar is 1.96 at N = 32), and not
        # the rows x2 = -3 and 3 or the far-field probes at |x2| = 20
        from stokes2p import fields

        run_dir = tmp_path / "run"
        assert run_cli("simulate", "--n", "32", "--init", "cos:1:0.2",
                       "--t-end", "0.02", "--out-dir", str(run_dir)) == 0
        searched = []
        original = fields._closest_samples

        def spy(fs, pts):
            searched.append(np.array(pts))
            return original(fs, pts)

        monkeypatch.setattr(fields, "_closest_samples", spy)
        assert run_cli("field", "--snapshot", str(run_dir / "snapshots.jsonl"),
                       "--x2-min", "-3", "--x2-max", "3", "--nx2", "5", "--nx1", "5",
                       "--out", str(tmp_path / "f.csv")) == 0
        x1 = np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False)
        strip_rows = np.array([[a, b] for b in (-1.5, 0.0, 1.5) for a in x1])
        assert len(searched) == 1 and np.array_equal(searched[0], strip_rows)

    def test_one_set_of_search_samples(self, tmp_path, monkeypatch):
        # the routing of the window, the sides of its kept points (which
        # outnumber the series terms) and the far-field probes read one set
        # of max(8N, 1024) search samples
        from stokes2p import core

        n = 256
        nodes = 2.0 * np.pi * np.arange(n) / n
        values = 0.2 * np.cos(nodes) + 0.05 * np.sin(3 * nodes)
        snapshot = tmp_path / "snap.json"
        snapshot.write_text(json.dumps({"t": 0.0, "values": values.tolist()}) + "\n")
        sizes = []
        sample = core._samples
        monkeypatch.setattr(core, "_samples", lambda v, m=None: sizes.append(m) or sample(v, m))
        assert run_cli("field", "--snapshot", str(snapshot), "--x2-min", "-2", "--x2-max", "2",
                       "--nx1", "64", "--nx2", "64", "--out", str(tmp_path / "f.csv")) == 0
        assert sizes.count(2048) == 1

    @pytest.mark.parametrize("n", [200, 256])
    def test_window_of_clear_strip_and_collar_points(self, tmp_path, monkeypatch, n):
        # the points skipped are those the search puts inside the collar, and
        # the points searched those that clear neither side of the strip,
        # whose heights span the search samples and the trapezoid nodes (at
        # N = 200 the 256 nodes are not among the 1600 samples)
        from stokes2p import fields
        from stokes2p.cli import _params_from_args
        from stokes2p.core import InterfaceProfile
        from stokes2p.fields import default_collar, min_interface_distance, sample_flow

        grid = PeriodicGrid(n)
        values = (0.3 * np.cos(grid.nodes) + 0.05 * np.sin(7 * grid.nodes)
                  + 0.02 * np.cos(n // 2 * grid.nodes))
        f = InterfaceProfile(grid, values)
        snapshot = tmp_path / "snapshots.jsonl"
        snapshot.write_text(json.dumps({"t": 0.0, "values": values.tolist()}) + "\n")
        searched = []
        original = fields._closest_samples

        def spy(fs, pts):
            searched.append(np.array(pts))
            return original(fs, pts)

        monkeypatch.setattr(fields, "_closest_samples", spy)
        out = tmp_path / "f.csv"
        argv = ["field", "--snapshot", str(snapshot), "--x2-min", "-1.5", "--x2-max", "1.5",
                "--nx2", "13", "--nx1", "12", "--out", str(out)]
        assert run_cli(*argv) == 0
        monkeypatch.undo()

        x1 = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        pts = np.array([[a, b] for b in np.linspace(-1.5, 1.5, 13) for a in x1])
        collar = default_collar(f)
        heights = np.concatenate([f.uniform_samples(max(8 * n, 1024)),
                                  f.uniform_samples(max(n, 256))])
        clear = ((pts[:, 1] - np.max(heights) >= collar)
                 | (np.min(heights) - pts[:, 1] >= collar))
        assert len(searched) == 1 and np.array_equal(searched[0], pts[~clear])
        keep = min_interface_distance(f, pts) >= collar
        # clear points, strip points outside the collar and collar points
        assert 0 < np.count_nonzero(clear) < np.count_nonzero(keep) < len(pts)
        sidecar = json.loads(out.with_suffix(".sidecar.json").read_text())
        assert sidecar["skipped_points"] == np.count_nonzero(~keep)
        params = _params_from_args(build_parser().parse_args(argv))
        want = [[repr(s.point[0]), repr(s.point[1]), s.side, repr(s.velocity[0]),
                 repr(s.velocity[1]), repr(s.pressure)]
                for s in sample_flow(f, params, pts[keep], collar=0.0)]
        with open(out) as fh:
            assert list(csv.reader(fh))[1:] == want

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

    def test_rows_written_from_columns(self, tmp_path):
        # the rows come from the flow's columns, not from one FieldSample per
        # point (about 420 bytes each): the peak grows by far less per point
        import tracemalloc

        run_dir = tmp_path / "run"
        assert run_cli("simulate", "--n", "32", "--init", "cos:1:0.2",
                       "--t-end", "0.02", "--out-dir", str(run_dir)) == 0
        out = tmp_path / "f.csv"
        peaks = []
        for nx1 in (40, 120):
            tracemalloc.start()
            try:
                assert run_cli("field", "--snapshot", str(run_dir / "snapshots.jsonl"),
                               "--x2-min", "2.5", "--x2-max", "4", "--nx2", "50",
                               "--nx1", str(nx1), "--out", str(out)) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        with open(out) as fh:
            assert sum(1 for _ in fh) == 1 + 120 * 50         # no point in the collar
        assert (peaks[1] - peaks[0]) / (80 * 50) < 120

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

    @pytest.mark.parametrize("record", [{"values": [0.0] * 16}, {"t": 0.5}, [0.0] * 16])
    def test_last_record_without_t_or_values_exit_one(self, tmp_path, capsys, record):
        # the last record counts, whatever the ones before it hold; nothing
        # is written
        snapshot = tmp_path / "snap.jsonl"
        good = {"t": 0.0, "values": [0.0] * 16}
        snapshot.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
        out = tmp_path / "f.csv"
        assert run_cli("field", "--snapshot", str(snapshot), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: the last snapshot in")
        assert sorted(tmp_path.iterdir()) == [snapshot]

    def test_out_into_a_missing_directory_exit_one(self, tmp_path, capsys):
        snapshot = tmp_path / "snap.jsonl"
        snapshot.write_text(json.dumps({"t": 0.0, "values": [0.0] * 16}) + "\n")
        out = tmp_path / "missing" / "f.csv"
        assert run_cli("field", "--snapshot", str(snapshot), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: output directory")
        assert sorted(tmp_path.iterdir()) == [snapshot]

    @pytest.mark.parametrize("text", ["", "\n\n  \n"])
    def test_empty_snapshot_file(self, tmp_path, capsys, text):
        snapshot = tmp_path / "empty.jsonl"
        snapshot.write_text(text)
        out = tmp_path / "f.csv"
        assert run_cli("field", "--snapshot", str(snapshot), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: no snapshots in")
        assert not out.exists()


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

    def test_energy_check_fails_on_a_flipped_psi(self, monkeypatch):
        # the energy check reads the Psi values the conservation checks take:
        # with their sign flipped the energy would grow, and it fails
        from stokes2p import verify

        def energy():
            return {name: (ok, detail) for name, ok, detail in verify.check_conservation(
                n_profiles=2)}["conservation/energy-dissipation"]

        assert energy()[0]
        psi = verify.eval_Psi
        monkeypatch.setattr(verify, "eval_Psi", lambda f, params: -psi(f, params))
        ok, detail = energy()
        assert not ok and "largest cosine of g and Psi 0." in detail

    def test_trace_check_sweeps_once_per_profile(self, monkeypatch):
        # both codings of the trace take their 4 + 7 products in one sweep
        # of the tables for each theta, and read what each alone reads
        from stokes2p import operators, verify
        from stokes2p.core import InterfaceProfile, PeriodicGrid, PhysParams
        from stokes2p.fields import _trace_velocities, trace_velocity

        sweeps = []
        sweep = operators._sweep
        monkeypatch.setattr(operators, "_sweep", lambda f, half, plan: sweeps.append(
            sum(len(v) for v in plan.values())) or sweep(f, half, plan))
        [(_, ok, _)] = verify.check_trace_equivalence()
        assert ok and sweeps == [11, 11]
        grid = PeriodicGrid(64)
        f = InterfaceProfile(grid, 0.1 * np.cos(grid.nodes) - 0.05 * np.sin(2 * grid.nodes))
        params = PhysParams.from_theta(mu=1.0, sigma=1.0, theta=1.0)
        variants = ("direct-g", "parts-z")
        for got, variant in zip(_trace_velocities(f, params, variants), variants):
            assert np.array_equal(got, trace_velocity(f, params, variant))

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
