#!/usr/bin/env python3
"""Closed-loop benchmark of fbopt.

Run from the repository root:

    python3 perfbench/run.py --workload projected_grid --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

One workload runs in one process, single-threaded BLAS, from its seed.  After
set-up and an untimed warm-up repetition, the workload repeats until
``--seconds`` have passed.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics from the traced ones.  Every repetition passes through the
correctness gate.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md for
what each metric means.
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
import warnings
from pathlib import Path
from time import perf_counter

# Pin BLAS before anything imports numpy.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("projected_grid", "synthetic_p12", "certified", "saddle_budget")
SETUP_SAMPLES = 5  # this process plus four set-up-only child processes
CHILD_TIMEOUT_S = 170
# Timings are reported at a reference host speed.  On a shared host the speed
# drifts (by up to 1.7x within minutes on a 2-vCPU VM), so each repetition's
# times are multiplied by REFERENCE_S / r, where r is the wall time of
# reference_seconds()'s fixed loop measured just before and after it.
REFERENCE_S = 0.03

END_TO_END_UNITS = {
    "setup_s": "s",
    "time_to_solution_s": "s",
    "steps_per_s": "1/s",
    "cycle_us_p50": "us",
    "cycle_us_p99": "us",
    "plant_evals_per_step": "evals/step",
    "steps": "count",
    "peak_rss_mb": "MB",
}


PER_LAYER_UNITS = {
    "qp.solve_qp.calls_per_step": "calls/step",
    "qp.solve_qp.us_p50": "us",
    "qp.solve_qp.us_p99": "us",
    "qp.iterations_per_solve": "iter/solve",
    "qp.active_rows_mean": "rows",
    "qp.free_solve_frac": "frac",
    "qp.phase1.calls_per_step": "calls/step",
    "qp.phase1.us_p50": "us",
    "qp.rank_deficient_frac": "frac",
    "qp.rank_deficient_warnings_per_step": "1/step",
    "qp.time_frac": "frac",
    "controller.feedback_step.us_p50": "us",
    "controller.assemble_projection_qp.us_p50": "us",
    "controller.self_us_p50": "us",
    "controller.time_frac": "frac",
    "model.eval_plant.calls_per_step": "calls/step",
    "model.eval_plant_jacobian.calls_per_step": "calls/step",
    "model.metric_eval.calls_per_step": "calls/step",
    "model.reduced_gradient.us_p50": "us",
    "model.time_frac": "frac",
    "certificates.lyapunov_value.calls_per_step": "calls/step",
    "certificates.lyapunov_value.us_p50": "us",
    "certificates.estimate_lipschitz_constants.s": "s",
    "certificates.estimate_multiplier_bound.s": "s",
    "certificates.sample_input_set.calls_per_estimate": "calls/est",
    "certificates.skipped_samples": "samples/est",
    "certificates.time_frac": "frac",
    "saddle.saddle_point_step.us_p50": "us",
    "saddle.augmented_lagrangian_gradients.us_p50": "us",
    "saddle.project_polyhedron.us_p50": "us",
    "saddle.time_frac": "frac",
    "harness.run_trajectory.self_frac": "frac",
    "harness.time_frac": "frac",
    "problems.get_problem.calls_per_run": "calls/run",
    "problems.get_problem.us_p50": "us",
    "problems.time_frac": "frac",
    "trace.span_coverage_frac": "frac",
    "trace.overhead_frac": "frac",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print this process's set-up time and exit")
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def reference_seconds() -> float:
    """Wall time of a fixed loop of small numpy calls, the kind a control
    cycle is made of.  It does not touch fbopt, so it measures only the
    host's current speed."""
    import numpy as np

    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 2.0])
    t = perf_counter()
    for _ in range(2000):
        x = np.linalg.solve(A, b)
        z = np.concatenate([x, A @ x - b])
        np.all(np.minimum(np.maximum(z, -1.0), 1.0) <= 1.0)
        float(np.linalg.norm(z))
    return perf_counter() - t


def setup_samples(args, first: float) -> list[float]:
    """Set-up times of this process and of fresh child processes, which each
    import fbopt and build the workload from scratch."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=CHILD_TIMEOUT_S)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_rep(workload, tracer=None):
    """One repetition: timed, then gated."""
    from workloads import Rep

    rep = Rep()
    checks = []
    before = reference_seconds()
    with warnings.catch_warnings(record=True) as caught:
        # "always": the default filter shows a repeated warning once, which
        # would undercount rank-deficient active sets and skipped samples.
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.install()
        t = perf_counter()
        try:
            checks = workload.run(rep)
        finally:
            rep.seconds = perf_counter() - t
            if tracer is not None:
                tracer.uninstall()
        rep.scale = 2.0 * REFERENCE_S / (before + reference_seconds())
        rep.warnings = list(caught)
        rep.runs = len(checks)
        rep.failures = [reason for reason in (check() for check in checks) if reason]
    return rep


def count_warnings(caught) -> tuple[int, int]:
    from fbopt.qp import RankDeficientActiveSet

    rank = sum(1 for w in caught if issubclass(w.category, RankDeficientActiveSet))
    skipped = sum(1 for w in caught if str(w.message).startswith("skipping sample"))
    return rank, skipped


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fbopt" / "__init__.py").is_file():
        print(f"error: fbopt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    t0 = perf_counter()
    import fbopt
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = (perf_counter() - t0) * REFERENCE_S / reference_seconds()
    if Path(fbopt.__file__).resolve().parent != (SRC / "fbopt").resolve():
        print(f"error: imported fbopt from {fbopt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = setup_samples(args, setup_s)

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()

    run_rep(workload)  # warm-up: lazy imports, caches
    plain, traced = [], []
    began = perf_counter()
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        (traced if use_tracer else plain).append(
            run_rep(workload, tracer if use_tracer else None))
        if perf_counter() - began >= args.seconds and (tracer is None or traced):
            break

    reps = plain + traced
    attempted = sum(rep.runs for rep in reps)
    failed = sum(len(rep.failures) for rep in reps)
    first = reps[0]
    repeatable = all((rep.steps, rep.calls) == (first.steps, first.calls) for rep in reps)
    correct = failed == 0 and repeatable

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"reps={len(plain)} untraced + {len(traced)} traced, {first.runs} runs/rep")
    print("env " + json.dumps(environment(), sort_keys=True))
    for reason in sorted({reason for rep in reps for reason in rep.failures}):
        print(f"FAILED run: {reason}")
    if not repeatable:
        print("FAILED: steps or plant calls differ between repetitions")
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted} runs)")

    if args.trace:
        metrics = trace_metrics(plain, traced, tracer)
    else:
        metrics = end_to_end_metrics(plain, setups)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def end_to_end_metrics(reps, setups) -> dict:
    first = reps[0]
    tts = statistics.median(rep.seconds * rep.scale for rep in reps)
    # The median cycle is taken per repetition, scaled, then the median over
    # repetitions, so one repetition caught in a slow spell cannot set it.
    # The 99th percentile is set by the slowest cycles (phase-1 LPs and short
    # host stalls), which the reference readings cannot follow; scaling it
    # made it noisier, so it is taken unscaled over all cycles of the run.
    p50 = statistics.median(statistics.median(rep.cycles) * rep.scale for rep in reps)
    raw = [c for rep in reps for c in rep.cycles]
    p99 = statistics.quantiles(raw, n=100)[98]
    values = {
        "setup_s": statistics.median(setups),
        "time_to_solution_s": tts,
        "steps_per_s": first.steps / tts,
        "cycle_us_p50": p50 * 1e6,
        "cycle_us_p99": p99 * 1e6,
        "plant_evals_per_step": first.calls[0] / first.steps,
        "steps": first.steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"setup_s: median of {len(setups)} set-ups "
          f"({', '.join(f'{s:.4f}' for s in setups)})")
    print(f"cycle_us_*: {len(raw)} cycles, {len(first.cycles)} per repetition")
    print(f"host speed factor (median): {statistics.median(rep.scale for rep in reps):.4f}; "
          f"unscaled: time_to_solution_s {statistics.median(rep.seconds for rep in reps):.6g}, "
          f"cycle_us_p50 {statistics.median(raw) * 1e6:.6g}")
    if first.certify_s is not None:
        certify = statistics.median(rep.certify_s * rep.scale for rep in reps)
        print(f"certify_s {certify:.6g} s (estimate_constants, median of {len(reps)})")
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        print(f"{name} {values[name]:.6g} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def trace_metrics(plain, traced, tracer) -> dict:
    import tracer as tracing

    steps = sum(rep.steps for rep in traced)
    runs = sum(rep.runs for rep in traced)
    traced_s = sum(rep.seconds for rep in traced)
    caught = [w for rep in traced for w in rep.warnings]
    rank_warnings, skipped = count_warnings(caught)
    estimates = sum(1 for rep in traced if rep.certify_s is not None)
    values = tracing.summarize(tracer, steps=steps, runs=runs, traced_s=traced_s)
    values["model.metric_eval.calls_per_step"] = \
        sum(rep.calls[2] for rep in traced) / steps
    values["qp.rank_deficient_warnings_per_step"] = rank_warnings / steps
    values["certificates.skipped_samples"] = skipped / estimates if estimates else 0.0
    values["trace.overhead_frac"] = (statistics.median(rep.seconds * rep.scale for rep in traced)
                                     / statistics.median(rep.seconds * rep.scale for rep in plain)
                                     - 1.0)
    print(f"traced: {len(tracer.start)} spans, {steps} steps, {traced_s:.3f} s")
    metrics = {}
    assert values.keys() == PER_LAYER_UNITS.keys()
    for name, unit in PER_LAYER_UNITS.items():
        print(f"{name} {values[name]:.6g} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def run_all(args) -> int:
    """Each workload in a fresh process, so set-up time and peak memory
    belong to that workload alone."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            print(out.stderr, file=sys.stderr)
            return out.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
