"""Span tracing of fbopt's layers from outside the package.

fbopt modules import each other's functions by name (``from .controller
import feedback_step``), so a wrapper placed only on the defining module
would miss most calls.  :meth:`Tracer.install` therefore replaces every
module-level name that refers to a traced function, in every measured
module, and :meth:`Tracer.uninstall` puts the originals back.

A span is ``(name, start, end, parent)``.  Spans are kept in flat arrays in
start order, so a parent always precedes its children, and stay in memory
until :func:`summarize` reduces them to per-layer metrics at the end of the
run.
"""

from __future__ import annotations

import statistics
from array import array
from time import perf_counter

from fbopt import certificates, controller, harness, model, problems, qp, saddle

# Layer name -> (module, public functions timed in that layer).  ``linprog``
# is SciPy's, timed as the phase-1 LP that fbopt.qp calls.
LAYERS = {
    "model": (model, ("eval_plant", "eval_plant_jacobian", "reduced_gradient",
                      "reduced_cost", "violation")),
    "qp": (qp, ("solve_qp", "linprog")),
    "controller": (controller, ("feedback_step", "controller_step",
                                "assemble_projection_qp")),
    "certificates": (certificates, ("lyapunov_value", "transient_violation_bound",
                                    "estimate_constants", "estimate_lipschitz_constants",
                                    "estimate_multiplier_bound", "sample_input_set")),
    "saddle": (saddle, ("saddle_point_step", "augmented_lagrangian_gradients",
                        "project_polyhedron")),
    "harness": (harness, ("run_trajectory",)),
    "problems": (problems, ("get_problem",)),
}
MODULES = tuple(module for module, _ in LAYERS.values())
SPAN_NAMES = {"qp.linprog": "qp.phase1"}


class Tracer:
    """Records a span around every call of the traced functions."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self._stack = [-1]
        # (iterations, working-set size, rank deficient) of each QpSolution
        self.qp_solutions: list[tuple[int, int, bool]] = []
        # (module, attribute, original, wrapper) for every name to replace
        self._patches: list[tuple[object, str, object, object]] = []
        for layer, (home, funcs) in LAYERS.items():
            for func in funcs:
                original = getattr(home, func)
                name = f"{layer}.{func}"
                on_result = self._record_qp if name == "qp.solve_qp" else None
                wrapper = self._wrap(SPAN_NAMES.get(name, name), original, on_result)
                self._patches += [(module, func, original, wrapper) for module in MODULES
                                  if getattr(module, func, None) is original]

    def _wrap(self, name: str, fn, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _record_qp(self, sol) -> None:
        self.qp_solutions.append((sol.iterations, len(sol.active), sol.rank_deficient))

    def install(self) -> None:
        for module, func, _, wrapper in self._patches:
            setattr(module, func, wrapper)

    def uninstall(self) -> None:
        for module, func, original, _ in self._patches:
            setattr(module, func, original)


def _median_us(values) -> float:
    return statistics.median(values) * 1e6 if values else 0.0


def _p99_us(values) -> float:
    if len(values) < 2:
        return values[0] * 1e6 if values else 0.0
    return statistics.quantiles(values, n=100)[98] * 1e6


def summarize(tr: Tracer, *, steps: int, runs: int, traced_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced repetitions.

    ``steps`` and ``runs`` are controller or saddle iterations and
    trajectories over those repetitions; ``traced_s`` is their wall time.
    ``*.calls_per_step`` counts leave out calls made inside
    ``estimate_constants``, which has its own metrics; timings cover every
    call.
    """
    n = len(tr.start)
    names = tr.names
    layer_of = [name.split(".", 1)[0] for name in names]
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    child = [0.0] * n
    in_estimate = [False] * n
    step_root = [-1] * n  # nearest enclosing feedback_step span
    estimate_id = names.index("certificates.estimate_constants")
    feedback_id = names.index("controller.feedback_step")
    for i in range(n):
        p = tr.parent[i]
        nid = tr.name_id[i]
        if p >= 0:
            child[p] += dur[i]
            in_estimate[i] = in_estimate[p]
            step_root[i] = step_root[p]
        if nid == estimate_id:
            in_estimate[i] = True
        if nid == feedback_id:
            step_root[i] = i

    durations: dict[str, list[float]] = {name: [] for name in names}
    loop_calls = dict.fromkeys(names, 0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    controller_self: dict[int, float] = {}
    run_total = run_self = 0.0
    for i in range(n):
        name = names[tr.name_id[i]]
        layer = layer_of[tr.name_id[i]]
        self_time = dur[i] - child[i]
        durations[name].append(dur[i])
        if not in_estimate[i]:
            loop_calls[name] += 1
        layer_self[layer] += self_time
        if layer == "controller" and step_root[i] >= 0:
            root = step_root[i]
            controller_self[root] = controller_self.get(root, 0.0) + self_time
        if name == "harness.run_trajectory":
            run_total += dur[i]
            run_self += self_time

    def per_step(name):
        return loop_calls[name] / steps

    estimates = len(durations["certificates.estimate_constants"])

    sols = tr.qp_solutions
    n_sol = len(sols)
    free = sum(1 for its, active, _ in sols if its == 1 and active == 0)
    out = {
        "qp.solve_qp.calls_per_step": per_step("qp.solve_qp"),
        "qp.solve_qp.us_p50": _median_us(durations["qp.solve_qp"]),
        "qp.solve_qp.us_p99": _p99_us(durations["qp.solve_qp"]),
        "qp.iterations_per_solve": sum(s[0] for s in sols) / n_sol if n_sol else 0.0,
        "qp.active_rows_mean": sum(s[1] for s in sols) / n_sol if n_sol else 0.0,
        "qp.free_solve_frac": free / n_sol if n_sol else 0.0,
        "qp.phase1.calls_per_step": per_step("qp.phase1"),
        "qp.phase1.us_p50": _median_us(durations["qp.phase1"]),
        "qp.rank_deficient_frac": sum(1 for s in sols if s[2]) / n_sol if n_sol else 0.0,
        "controller.feedback_step.us_p50": _median_us(durations["controller.feedback_step"]),
        "controller.assemble_projection_qp.us_p50":
            _median_us(durations["controller.assemble_projection_qp"]),
        "controller.self_us_p50": _median_us(list(controller_self.values())),
        "model.eval_plant.calls_per_step": per_step("model.eval_plant"),
        "model.eval_plant_jacobian.calls_per_step": per_step("model.eval_plant_jacobian"),
        "model.reduced_gradient.us_p50": _median_us(durations["model.reduced_gradient"]),
        "certificates.lyapunov_value.calls_per_step": per_step("certificates.lyapunov_value"),
        "certificates.lyapunov_value.us_p50": _median_us(durations["certificates.lyapunov_value"]),
        "certificates.estimate_lipschitz_constants.s":
            _median_us(durations["certificates.estimate_lipschitz_constants"]) / 1e6,
        "certificates.estimate_multiplier_bound.s":
            _median_us(durations["certificates.estimate_multiplier_bound"]) / 1e6,
        "certificates.sample_input_set.calls_per_estimate":
            len(durations["certificates.sample_input_set"]) / estimates if estimates else 0.0,
        "saddle.saddle_point_step.us_p50": _median_us(durations["saddle.saddle_point_step"]),
        "saddle.augmented_lagrangian_gradients.us_p50":
            _median_us(durations["saddle.augmented_lagrangian_gradients"]),
        "saddle.project_polyhedron.us_p50": _median_us(durations["saddle.project_polyhedron"]),
        "harness.run_trajectory.self_frac": run_self / run_total if run_total else 0.0,
        "problems.get_problem.calls_per_run": len(durations["problems.get_problem"]) / runs,
        "problems.get_problem.us_p50": _median_us(durations["problems.get_problem"]),
    }
    for layer in LAYERS:
        out[f"{layer}.time_frac"] = layer_self[layer] / traced_s
    # Self times partition the root spans, so this is the share of the traced
    # wall time that the measured layers account for.
    out["trace.span_coverage_frac"] = sum(layer_self.values()) / traced_s
    return out
