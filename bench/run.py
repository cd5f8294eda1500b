"""Benchmark of stokes2p: four workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload {evolve,spectrum,fields,verify,all} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ``src/`` of the
checkout this file sits in, never from an installed copy.  Each workload is
a closed loop in one process with default thread settings: it repeats whole
rounds of its operations while another round fits in ``--seconds`` (at least
one round) and checks every round's output.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the same record, with the
raw samples and the machine, is written to ``bench/out/``.

``--trace 0`` reports the end-to-end metrics, measured without tracing:
``wall_s`` (median round time), ``setup_s`` (median over six fresh interpreters
of import, inputs and the first cold call) and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics, per traced round, plus the tracing overhead; the spans
are written to ``bench/out/``.  ``--workload all`` runs the four workloads
one after another, each in its own process, and ends with a combined line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("evolve", "spectrum", "fields", "verify")
SETUP_LAUNCHES = 6
IMPORT_LAUNCHES = 3
CHILD_TIMEOUT_S = 120

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metric -> unit; counts and seconds are per traced round
PER_LAYER = (
    ("core.eval_at.calls", "count"),
    ("core.eval_at.s", "s"),
    ("operators.DiagonalOps.init.calls", "count"),
    ("operators.DiagonalOps.init.s", "s"),
    ("operators.DiagonalOps.kernel.calls", "count"),
    ("operators.DiagonalOps.kernel.s", "s"),
    ("operators.DiagonalOps.kernel.hit_ratio", "ratio"),
    ("operators.DiagonalOps.composite.calls", "count"),
    ("operators.KernelWorkspace.sample.calls", "count"),
    ("operators.KernelWorkspace.sample.s", "s"),
    ("operators.KernelWorkspace.sample.hit_ratio", "ratio"),
    ("operators.KernelWorkspace.contract.calls", "count"),
    ("operators.KernelWorkspace.contract.s", "s"),
    ("operators.eval_B0.calls", "count"),
    ("operators.eval_B0.s", "s"),
    ("operators.generic.calls", "count"),
    ("operators.generic.s", "s"),
    ("evolution.eval_Psi.calls", "count"),
    ("evolution.eval_Psi.s", "s"),
    ("evolution.eval_Psi.self_s", "s"),
    ("evolution.eval_Psi.peak_alloc_mb", "MB"),
    ("evolution.step.calls", "count"),
    ("evolution.integrate.s", "s"),
    ("evolution.ladder.rungs", "count"),
    ("evolution.forcing_G.calls", "count"),
    ("fields.min_interface_distance.calls", "count"),
    ("fields.min_interface_distance.s", "s"),
    ("fields.min_interface_distance.per_sample_flow", "count"),
    ("fields.eval_Z.calls", "count"),
    ("fields.eval_Z.self_s", "s"),
    ("fields.sample_flow.s", "s"),
    ("fields.interface_jump_checks.s", "s"),
    ("verify.check_operator_identities.s", "s"),
    ("verify.check_conservation.s", "s"),
    ("verify.check_spectrum.s", "s"),
    ("verify.check_far_field_constants.s", "s"),
    ("verify.check_trace_equivalence.s", "s"),
    ("verify.check_jump_relations.s", "s"),
    ("verify.check_far_field_limits.s", "s"),
    ("analysis.numeric_jacobian_at_zero.s", "s"),
    ("import.stokes2p.s", "s"),
    ("import.scipy_integrate.s", "s"),
    ("trace.overhead_s", "s"),
)

GENERIC = ("operators.eval_A", "operators.eval_B", "operators.eval_C")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="internal: build the inputs in this fresh interpreter, "
                        "print the set-up time and exit")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def child(args, timeout=CHILD_TIMEOUT_S, stderr=subprocess.PIPE):
    """Run a child interpreter to its end; return its stdout and stderr or raise."""
    done = subprocess.run([sys.executable, *args], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=stderr, text=True, timeout=timeout, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"child {args[:3]} exited {done.returncode}:\n{done.stderr}")
    return done.stdout, done.stderr


def setup_seconds(args, launches):
    """Set-up times of ``launches`` fresh interpreters, one after another."""
    samples = []
    for _ in range(launches):
        out, _ = child([str(Path(__file__)), "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", "1", "--setup-only"])
        samples.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    return samples


def import_seconds():
    """Median cumulative import times of stokes2p and of scipy.integrate
    inside it, from ``python -X importtime`` in fresh interpreters."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import stokes2p"
    totals = {"stokes2p": [], "scipy.integrate": []}
    for _ in range(IMPORT_LAUNCHES):
        _, err = child(["-X", "importtime", "-c", code])
        seen = {}
        for line in err.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 \
                    and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1]) * 1e-6
        for name in totals:
            totals[name].append(seen.get(name, 0.0))
    return {name: statistics.median(v) for name, v in totals.items()}


def run_round(w, tracer=None):
    """One timed round; returns (seconds or None if it raised, problems)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = w.run_round()
        else:
            with tracer:
                out = w.run_round()
    except Exception:  # a failed operation is counted, the run goes on
        traceback.print_exc()
        return None, []
    return time.perf_counter() - t0, w.check(out)


def layer_metrics(tracer, rounds, info, imports, overhead, peak_alloc_mb):
    st = tracer.stat
    per = 1.0 / rounds

    def ratio(name):
        s = st(name)
        return s.hits / s.calls if s.calls else 0.0

    flows = st("fields.sample_flow").calls
    values = {
        "evolution.eval_Psi.peak_alloc_mb": peak_alloc_mb,
        "evolution.ladder.rungs": info.get("rungs", 0),
        "operators.DiagonalOps.kernel.hit_ratio": ratio("operators.DiagonalOps.kernel"),
        "operators.KernelWorkspace.sample.hit_ratio": ratio("operators.KernelWorkspace.sample"),
        "operators.generic.calls": sum(st(g).calls for g in GENERIC) * per,
        "operators.generic.s": sum(st(g).total_s for g in GENERIC) * per,
        "fields.min_interface_distance.per_sample_flow":
            tracer.count_within("fields.min_interface_distance", "fields.sample_flow") / flows
            if flows else 0.0,
        "import.stokes2p.s": imports["stokes2p"],
        "import.scipy_integrate.s": imports["scipy.integrate"],
        "trace.overhead_s": overhead,
    }
    for name, _ in PER_LAYER:
        if name in values:
            continue
        span, _, kind = name.rpartition(".")
        s = st(span)
        values[name] = {"calls": s.calls, "s": s.total_s, "self_s": s.self_s}[kind] * per
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def peak_alloc_of_first_psi(tracer):
    """tracemalloc peak of one eval_Psi call on a fresh copy of the first
    profile the traced rounds passed to it; 0 if they made none."""
    import tracemalloc

    from stokes2p import InterfaceProfile, evolution

    first = tracer.first_args.get("evolution.eval_Psi")
    if first is None:
        return 0.0
    (f, *rest), kwargs = first
    fresh = InterfaceProfile(f.grid, f.values)
    tracemalloc.start()
    try:
        evolution.eval_Psi(fresh, *rest, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def run_workload(args):
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine()}
    # machine speed drifts over tens of seconds, so half the set-up launches
    # run before the timed rounds and half after them
    setup_samples = [] if args.trace else setup_seconds(args, SETUP_LAUNCHES // 2)
    if args.trace:
        imports = import_seconds()

    import stokes2p
    import workloads

    if not Path(stokes2p.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"stokes2p imported from {stokes2p.__file__}, not {SRC}")
    w = workloads.WORKLOADS[args.workload](args.seed)
    info = w.prepare()
    record["prepare"] = info

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    samples, traced, problems = [], [], []
    attempted = failed = iterations = 0
    t_loop = time.perf_counter()
    while True:
        # a traced run alternates an untraced and a traced round
        for tr in (None, tracer) if tracer else (None,):
            seconds, found = run_round(w, tr)
            attempted += w.ops_per_round
            if seconds is None:
                failed += w.ops_per_round
            else:
                (samples if tr is None else traced).append(seconds)
            problems += found
        iterations += 1
        elapsed = time.perf_counter() - t_loop
        if elapsed * (iterations + 1) / iterations > args.seconds:
            break
    for msg in dict.fromkeys(problems):
        print(f"check failed: {msg}", file=sys.stderr)
    record.update(samples=samples, traced_samples=traced, problems=problems)

    if tracer is None:
        setup_samples += setup_seconds(args, SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
        record["setup_samples"] = setup_samples
        metrics = {
            "wall_s": statistics.median(samples) if samples else float("nan"),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    else:
        overhead = (statistics.median(traced) - statistics.median(samples)
                    if traced and samples else 0.0)
        metrics = layer_metrics(tracer, max(len(traced), 1), info, imports, overhead,
                                peak_alloc_of_first_psi(tracer))
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}, record


def machine():
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                  "MKL_NUM_THREADS", "STOKES_NUM_THREADS")
                       if k in os.environ},
    }


def run_all(args):
    """Each workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out, _ = child([str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace)],
                       timeout=None, stderr=None)
        result = json.loads(out.strip().splitlines()[-1])
        print(f"{name}: {json.dumps(result)}", flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stokes2p" / "__init__.py").is_file():
        print(f"error: no stokes2p package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        import workloads

        workloads.WORKLOADS[args.workload](args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    result, record = run_workload(args)
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
