"""Command-line front end.

Four subcommands: ``run`` executes one scenario and writes its trajectory
CSV; ``sweep`` expands a parameter grid over a base scenario; ``compare``
runs the projection controller and the primal-dual baseline from the same
scenario and prints a side-by-side summary; ``check`` validates a problem's
derivatives and estimates its certificate constants over one random sample.
A run that ends in an error has its message printed after its summary line.

Exit codes: 0 when every run converged (or the report completed cleanly),
2 when some run of ``run`` or ``sweep`` ended at the iteration budget or a
certificate breach, and 1 on errors (bad inputs, solver failures, derivative
mismatches).  ``compare`` exits 1 if either run ends in an error and 0
otherwise, whether or not the runs converged.  ``run`` and ``sweep`` create
their output directory only after their runs, so a rejected start writes
nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .certificates import SamplerSpec, estimate_constants, sample_input_set
from .harness import _SCENARIO_KEYS, RunStatus, _read_key_values, load_scenario, \
    run_trajectory, sweep, write_csv, finite_difference_check
from .model import _check_positive
from .problems import get_problem, problem_names

__all__ = ["main"]


# the scalar scenario keys, each taking a comma-separated list
_GRID_KEYS = {key: lambda text, kind=kind: [kind(part) for part in text.split(",")]
              for key, kind in _SCENARIO_KEYS.items() if kind in (int, float)}


def _print_summary(label: str, log, tail: str = "") -> None:
    """Print a run's summary line, ending in ``tail``, and its message."""
    last = log.num_rows - 1
    u_txt = ", ".join(f"{v:.6g}" for v in log.u[last])
    print(f"{label:>10}  {log.status.value:<19} iters={int(log.iters[last]):>6} "
          f"residual={log.residual[last]:.3e} V={log.V[last]:.6g} "
          f"max_violation={log.max_violation[last]:.3e} u=({u_txt}){tail}")
    if log.message:
        print(f"message: {log.message}")


def _status_code(statuses) -> int:
    if any(s is RunStatus.ERROR for s in statuses):
        return 1
    if all(s is RunStatus.CONVERGED for s in statuses):
        return 0
    return 2


def _cmd_run(args) -> int:
    log = run_trajectory(load_scenario(args.scenario))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "trajectory.csv")
    write_csv(log, path)
    _print_summary("run", log)
    print(f"wrote {path}")
    return _status_code([log.status])


def _cmd_sweep(args) -> int:
    config = load_scenario(args.scenario)
    grid = dict(_read_key_values(args.grid, _GRID_KEYS)) if args.grid else {}
    results = sweep(config, grid)
    os.makedirs(args.out, exist_ok=True)
    statuses = []
    for i, (overrides, log) in enumerate(results):
        path = os.path.join(args.out, f"run_{i:03d}.csv")
        write_csv(log, path)
        pieces = []
        for key in sorted(overrides):
            value = overrides[key]
            if isinstance(value, np.ndarray):
                value = "(" + ", ".join(f"{v:g}" for v in value) + ")"
            pieces.append(f"{key}={value}")
        _print_summary(f"run_{i:03d}", log, "  [" + " ".join(pieces) + "]")
        statuses.append(log.status)
    print(f"wrote {len(results)} logs to {args.out}")
    return _status_code(statuses)


def _cmd_compare(args) -> int:
    config = load_scenario(args.scenario)
    if config.scheme != "saddle":
        raise ValueError("compare needs a saddle scenario (gamma and rho set); "
                         "the projected twin is derived from it")
    projected = replace(config, scheme="projected", gamma=None, rho=None)
    log_p = run_trajectory(projected)
    log_s = run_trajectory(config)
    print(f"problem: {config.problem_name}  alpha={config.alpha:g}  "
          f"gamma={config.gamma:g}  rho={config.rho:g}")
    _print_summary("projected", log_p)
    _print_summary("saddle", log_s)
    return 1 if RunStatus.ERROR in (log_p.status, log_s.status) else 0


def _cmd_check(args) -> int:
    problem = get_problem(args.problem)
    _check_positive(args.alpha, "alpha")
    rng_spec = SamplerSpec(kind="random", count=args.points, seed=args.seed)
    points = sample_input_set(problem.input_set, rng_spec)
    report = finite_difference_check(problem, points)
    print(f"problem: {args.problem} (registered: {', '.join(problem_names())})")
    print(f"derivative check over {len(points)} random points:")
    print(f"  plant_jacobian      rel err {report.plant_jacobian:.3e}")
    print(f"  objective_gradient  rel err {report.objective_gradient:.3e}")
    print(f"  reduced_gradient    rel err {report.reduced_gradient:.3e}")
    constants = estimate_constants(problem, args.alpha, rng_spec)
    ell = ", ".join(f"{v:.6g}" for v in constants.output_lipschitz)
    print(f"certificate constants over the same points (alpha={args.alpha:g}):")
    print(f"  grad_lipschitz      {constants.grad_lipschitz:.6g}")
    print(f"  output_lipschitz    ({ell})")
    print(f"  multiplier_bound    {constants.multiplier_bound:.6g}")
    print(f"  metric_floor        {constants.metric_floor:.6g}")
    print(f"  step_size_bound     {constants.step_size_bound:.6g}")
    if report.max_error >= 1e-6:
        print("derivative check FAILED (relative error >= 1e-6)", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fbopt",
        description="Feedback-optimization toolkit: closed-loop runs, sweeps, "
                    "scheme comparison, and derivative/certificate checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario, write trajectory.csv")
    p_run.add_argument("--scenario", required=True, help="scenario file")
    p_run.add_argument("--out", default=".", help="output directory")

    p_sweep = sub.add_parser("sweep", help="run a parameter grid over a scenario")
    p_sweep.add_argument("--scenario", required=True, help="base scenario file")
    p_sweep.add_argument("--grid", default=None,
                         help="grid file: key = v1, v2, ... per line")
    p_sweep.add_argument("--out", default=".", help="output directory")

    p_cmp = sub.add_parser("compare",
                           help="projected vs saddle from one saddle scenario")
    p_cmp.add_argument("--scenario", required=True, help="saddle scenario file")

    p_chk = sub.add_parser("check",
                           help="derivative check + certificate constants")
    p_chk.add_argument("--problem", required=True,
                       help="registered problem name")
    p_chk.add_argument("--alpha", type=float, default=0.01,
                       help="step size for the multiplier-bound estimate")
    p_chk.add_argument("--points", type=int, default=100,
                       help="number of random check points")
    p_chk.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep,
                "compare": _cmd_compare, "check": _cmd_check}
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        # str() of a KeyError quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
