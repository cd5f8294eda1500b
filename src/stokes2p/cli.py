"""Command-line front end: simulate, spectrum, field, verify.

Exit codes: 0 success, 1 bad flags, 2 run stopped early by blow-up, by an
adaptive tolerance it cannot meet or by the adaptive step budget (last state
persisted), 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import numeric_jacobian_at_zero
from .core import InterfaceProfile, PeriodicGrid, PhysParams
from .evolution import (
    SCHEMES,
    BlowUpError,
    EvolutionState,
    IntegrationError,
    StepperConfig,
    integrate,
    snapshot_record,
)
from .fields import _bulk_flow, _collar_search, _far_field_residuals, default_collar, side_of
from .evolution import _far_field_constants, forcing_G
from .verify import run_checks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BLOWUP = 2
EXIT_VERIFY = 3

# rows of the field CSV converted to Python objects at a time
_CSV_ROWS = 1024


def parse_init(text: str, grid: PeriodicGrid) -> np.ndarray:
    """Initial profile grammar: comma-separated cos:k:amp, sin:k:amp, const:c."""
    values = np.zeros(grid.n_points)
    for term in text.split(","):
        parts = term.strip().split(":")
        kind = parts[0]
        if kind == "const" and len(parts) == 2:
            values += float(parts[1])
        elif kind in ("cos", "sin") and len(parts) == 3:
            k, amp = int(parts[1]), float(parts[2])
            if not 0 <= k <= grid.n_points // 2:
                raise ValueError(f"mode {k} not resolvable on n={grid.n_points}")
            values += amp * (np.cos if kind == "cos" else np.sin)(k * grid.nodes)
        else:
            raise ValueError(f"bad init term {term!r}")
    return values


def _add_params_flags(p):
    p.add_argument("--sigma", type=float, default=1.0, help="surface tension > 0")
    p.add_argument("--mu", type=float, default=1.0, help="viscosity > 0")
    p.add_argument("--g", type=float, default=0.0, help="gravity >= 0")
    p.add_argument("--rho-plus", type=float, default=0.0, help="upper fluid density")
    p.add_argument("--rho-minus", type=float, default=0.0, help="lower fluid density")


def _params_from_args(args) -> PhysParams:
    return PhysParams(mu=args.mu, sigma=args.sigma, g=args.g,
                      rho_plus=args.rho_plus, rho_minus=args.rho_minus)


def _check_output_file(path) -> None:
    """Raise ValueError, before any work, unless the directory of an output
    file exists and the path is not a directory itself."""
    path = Path(path)
    if path.is_dir():
        raise ValueError(f"output path {path} is a directory")
    if not path.parent.is_dir():
        raise ValueError(f"output directory {path.parent} does not exist")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stokes2p",
                                     description="two-phase periodic Stokes interface flow")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="integrate the interface evolution")
    ps.add_argument("--n", type=int, default=128, help="grid size (even, >= 8)")
    _add_params_flags(ps)
    ps.add_argument("--init", default="cos:1:0.01", help="initial profile spec")
    ps.add_argument("--scheme", choices=list(SCHEMES), default=StepperConfig().scheme)
    ps.add_argument("--dt", type=float, default=0.0, help="time step (0 = scheme default)")
    ps.add_argument("--t-end", type=float, default=1.0)
    ps.add_argument("--snapshot-stride", type=int, default=1)
    ps.add_argument("--adapt", action="store_true", help="step-doubling error control")
    ps.add_argument("--tol", type=float, default=1e-8)
    ps.add_argument("--out-dir", default="out")

    pp = sub.add_parser("spectrum", help="flat-state spectrum, analytic vs numeric")
    pp.add_argument("--n", type=int, default=256)
    _add_params_flags(pp)
    pp.add_argument("--k-max", type=int, default=16)
    pp.add_argument("--out", default=None, help="CSV output path")

    pf = sub.add_parser("field", help="sample velocity/pressure off the interface")
    pf.add_argument("--snapshot", required=True, help="snapshot JSONL path (last record used)")
    _add_params_flags(pf)
    pf.add_argument("--x1-min", type=float, default=0.0)
    pf.add_argument("--x1-max", type=float, default=2.0 * np.pi)
    pf.add_argument("--nx1", type=int, default=8)
    pf.add_argument("--x2-min", type=float, default=-2.0)
    pf.add_argument("--x2-max", type=float, default=2.0)
    pf.add_argument("--nx2", type=int, default=8)
    pf.add_argument("--out", required=True, help="CSV output path")

    pv = sub.add_parser("verify", help="run the named invariant suites")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--level", choices=["quick", "full"], default="quick")
    pv.add_argument("--inject-fault", choices=["quadrature"], default=None,
                    help="test hook: corrupt one ingredient to exercise failure paths")
    return parser


def cmd_simulate(args) -> int:
    try:
        grid = PeriodicGrid(args.n)
        params = _params_from_args(args)
        profile = InterfaceProfile(grid, parse_init(args.init, grid))
        config = StepperConfig(scheme=args.scheme, dt=args.dt, t_end=args.t_end,
                               snapshot_stride=args.snapshot_stride,
                               adapt=args.adapt, tol=args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if params.regime == "unstable":
        print(f"warning: unstable regime (sigma + theta = "
              f"{params.sigma + params.theta:g} < 0); perturbations grow", file=sys.stderr)

    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot make the output directory {out_dir}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    manifest = {
        "version": __version__,
        "command": "simulate",
        "n": args.n,
        "sigma": args.sigma, "mu": args.mu, "g": args.g,
        "rho_plus": args.rho_plus, "rho_minus": args.rho_minus,
        "theta": params.theta,
        "init": args.init,
        "scheme": args.scheme, "dt": args.dt,
        "effective_dt": config.effective_dt(grid), "t_end": args.t_end,
        "snapshot_stride": args.snapshot_stride,
        "adapt": args.adapt, "tol": args.tol,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    state = EvolutionState(time=0.0, profile=profile, params=params)
    snap_path = out_dir / "snapshots.jsonl"
    with snap_path.open("w") as fh:
        def sink(record):
            fh.write(json.dumps(record) + "\n")

        sink(snapshot_record(state))
        try:
            state = integrate(state, config, sink)
        except IntegrationError as exc:
            sink(snapshot_record(exc.last_state))
            kind = "blow-up" if isinstance(exc, BlowUpError) else "stopped"
            print(f"{kind}: {exc}", file=sys.stderr)
            return EXIT_BLOWUP
    print(f"completed t={state.time:g} in {state.step_count} steps -> {snap_path}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    try:
        grid = PeriodicGrid(args.n)
        params = _params_from_args(args)
        if args.k_max < 1 or args.k_max > grid.n_points // 4:
            raise ValueError("k-max must be in 1..n/4")
        if args.out:
            _check_output_file(args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    report = numeric_jacobian_at_zero(params, grid, args.k_max)
    theta0 = "n/a" if report.theta0 is None else f"{report.theta0:.10g}"
    print(f"regime={report.regime} theta={params.theta:.10g} theta0={theta0} "
          f"leakage={report.leakage:.3e}")
    print(f"{'k':>4} {'analytic':>22} {'numeric':>22} {'rel_error':>12}")
    rows = []
    for mode in report.modes:
        rows.append((mode.k, mode.lam_analytic, mode.lam_numeric, mode.rel_error))
        print(f"{mode.k:>4} {mode.lam_analytic:>22.14e} {mode.lam_numeric:>22.14e} "
              f"{mode.rel_error:>12.3e}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "lambda_analytic", "lambda_numeric", "rel_error"])
            for k, la, ln_, re_ in rows:
                writer.writerow([k, repr(float(la)), repr(float(ln_)), repr(float(re_))])
    return EXIT_OK


def _load_last_snapshot(path):
    last = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                last = json.loads(line)
    if last is None:
        raise ValueError(f"no snapshots in {path}")
    if not isinstance(last, dict) or not {"t", "values"} <= last.keys():
        raise ValueError(f"the last snapshot in {path} needs the fields 't' and 'values'")
    return last


def cmd_field(args) -> int:
    try:
        snap = _load_last_snapshot(args.snapshot)
        values = np.asarray(snap["values"], dtype=float)
        grid = PeriodicGrid(len(values))
        f = InterfaceProfile(grid, values)
        params = _params_from_args(args)
        if args.nx1 < 1 or args.nx2 < 1:
            raise ValueError(f"nx1 and nx2 must be >= 1, got {args.nx1} and {args.nx2}")
        if not np.all(np.isfinite([args.x1_min, args.x1_max, args.x2_min, args.x2_max])):
            raise ValueError("window bounds must be finite")
        _check_output_file(args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    x1 = np.linspace(args.x1_min, args.x1_max, args.nx1, endpoint=False)
    x2 = np.linspace(args.x2_min, args.x2_max, args.nx2)
    pts = np.stack(np.meshgrid(x1, x2), axis=-1).reshape(-1, 2)    # x2 outer, x1 inner
    collar = default_collar(f)
    keep = ~_collar_search(f, pts, collar, False)[1]
    skipped = int(np.sum(~keep))
    # one routing pass: the kept points need no second search, and f keeps
    # its search samples.  One forcing serves the samples, the constants and
    # the far-field check.  The rows are written from columns of Python
    # floats, whose str is their repr, _CSV_ROWS rows at a time
    G = forcing_G(f, params)
    kept = pts[keep]
    v, q = _bulk_flow(f, G, params, kept, collar=0.0)
    sides = side_of(f, kept)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "side", "v1", "v2", "q"])
        for start in range(0, len(kept), _CSV_ROWS):
            rows = slice(start, start + _CSV_ROWS)
            (p1, p2), (v1, v2) = kept[rows].T.tolist(), v[rows].T.tolist()
            writer.writerows(zip(p1, p2, sides[rows].tolist(), v1, v2, q[rows].tolist()))

    constants = _far_field_constants(f, params, G)
    sidecar = {
        "snapshot_t": snap["t"],
        "c1": constants.c1, "c2": constants.c2,
        "c1_alt": constants.c1_alt, "c2_alt": constants.c2_alt,
        "collar": collar,
        "skipped_points": skipped,
        "far_field": _far_field_residuals(f, params, G),
    }
    sidecar_path = Path(args.out).with_suffix(".sidecar.json")
    sidecar_path.write_text(json.dumps(sidecar, indent=2) + "\n")
    print(f"wrote {len(kept)} samples -> {args.out} (skipped {skipped} collar points)")
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.time()
    results = run_checks(level=args.level, seed=args.seed, fault=args.inject_fault)
    failed = [name for name, ok, _ in results if not ok]
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed "
          f"in {time.time() - t0:.1f}s")
    if failed:
        print(f"failing checks: {', '.join(failed)}", file=sys.stderr)
        print(f"reproduce with: stokes2p verify --level {args.level} --seed {args.seed}"
              + (f" --inject-fault {args.inject_fault}" if args.inject_fault else ""),
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap (0 stays 0 for --help)
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    handler = {
        "simulate": cmd_simulate,
        "spectrum": cmd_spectrum,
        "field": cmd_field,
        "verify": cmd_verify,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
