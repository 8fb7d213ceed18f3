"""Small dense strictly convex quadratic programs with exact multipliers.

Solves

    minimize    0.5 * w' Q w + c' w
    subject to  M w <= r

for symmetric positive definite ``Q`` by a primal active-set method with a
working set.  Problems of this shape appear once per controller step, so the
solver is tuned for very small dense instances, determinism, and faithful
Lagrange multipliers rather than for scale.

Two independent routes are provided: :func:`solve_qp` (the production
active-set method) and :func:`enumerate_oracle` (brute-force enumeration of
candidate active sets, usable as a ground-truth check for problems with a
handful of rows).  Tie-breaking is always by lowest constraint index, so both
routes are deterministic for identical input.

All tolerances are relative to ``scale = 1 + ||c|| + ||r||``.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .model import _read_only

__all__ = [
    "Infeasible",
    "NotPositiveDefinite",
    "MaxIterations",
    "RankDeficientActiveSet",
    "QpProblem",
    "QpSolution",
    "solve_qp",
    "enumerate_oracle",
    "kkt_residual",
]

Array = np.ndarray

# Absolute lower bound accepted for multipliers before a working-set row is
# considered wrongly active.
DUAL_TOL = 1e-10


class Infeasible(RuntimeError):
    """No point satisfies ``M w <= r`` within tolerance."""


class NotPositiveDefinite(RuntimeError):
    """The quadratic term failed its Cholesky factorization."""


class MaxIterations(RuntimeError):
    """The active-set loop exceeded its iteration budget."""


class RankDeficientActiveSet(UserWarning):
    """The active rows are linearly dependent; multipliers are not unique."""


@dataclass(frozen=True)
class QpProblem:
    """Data of one strictly convex inequality-constrained QP.

    ``M`` may have zero rows (unconstrained problem).  ``Q`` must be
    symmetric to within 1e-12; positive definiteness is checked lazily by
    the solvers through factorization.
    """

    Q: Array
    c: Array
    M: Array
    r: Array

    def __post_init__(self):
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        c = np.asarray(self.c, dtype=float).reshape(-1)
        p = c.size
        if Q.shape != (p, p):
            raise ValueError(f"Q must be ({p}, {p}), got {Q.shape}")
        asym = np.max(np.abs(Q - Q.T)) if p else 0.0
        if asym > 1e-12 * max(1.0, float(np.max(np.abs(Q)))):
            raise ValueError(f"Q must be symmetric (asymmetry {asym:.3e})")
        M = np.asarray(self.M, dtype=float)
        if M.size == 0:
            M = M.reshape(0, p)
        M = np.atleast_2d(M)
        if M.shape[1] != p:
            raise ValueError(f"M must have {p} columns, got {M.shape[1]}")
        raw = self.r if self.r is not None else np.zeros(0)
        r = np.asarray(raw, dtype=float).reshape(-1)
        if r.size != M.shape[0]:
            raise ValueError(f"r must have length {M.shape[0]}, got {r.size}")
        object.__setattr__(self, "Q", _read_only(Q))
        object.__setattr__(self, "c", _read_only(c))
        object.__setattr__(self, "M", _read_only(M))
        object.__setattr__(self, "r", _read_only(r))

    @property
    def dim(self) -> int:
        return self.c.size

    @property
    def num_constraints(self) -> int:
        return self.M.shape[0]

    @property
    def scale(self) -> float:
        return 1.0 + float(np.linalg.norm(self.c)) + float(np.linalg.norm(self.r))


@dataclass(frozen=True)
class QpSolution:
    """Primal solution with the full multiplier vector.

    ``active`` is the working set at termination; ``rank_deficient`` marks
    solutions whose geometrically active rows were linearly dependent, in
    which case the multipliers are valid but not unique.
    """

    w: Array
    multipliers: Array
    active: tuple[int, ...]
    kkt_residual: float
    iterations: int
    rank_deficient: bool = False


def kkt_residual(qp: QpProblem, w, multipliers) -> float:
    """Aggregate first-order optimality defect of a candidate pair.

    Sums the norms of the stationarity defect ``Q w + c + M' mult``, the
    primal infeasibility ``max(0, M w - r)``, the dual infeasibility
    ``max(0, -mult)`` and the complementarity products.  Zero (up to
    1e-8 * scale) exactly when ``(w, multipliers)`` is the optimal pair.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    mult = np.asarray(multipliers, dtype=float).reshape(-1)
    stat = qp.Q @ w + qp.c
    if qp.num_constraints:
        stat = stat + qp.M.T @ mult
        slack = qp.M @ w - qp.r
        primal = float(np.linalg.norm(np.maximum(slack, 0.0)))
        comp = float(np.linalg.norm(mult * slack))
    else:
        primal = 0.0
        comp = 0.0
    dual = float(np.linalg.norm(np.maximum(-mult, 0.0)))
    return float(np.linalg.norm(stat)) + primal + dual + comp


def _check_spd(Q: Array) -> None:
    try:
        np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("quadratic term is not positive definite") from None


def _finish(qp: QpProblem, w: Array, mult: Array, work, iterations: int,
            rank_flag: bool) -> QpSolution:
    scale = qp.scale
    if qp.num_constraints:
        act = np.flatnonzero(np.abs(qp.M @ w - qp.r) <= 1e-9 * scale)
        if act.size and np.linalg.matrix_rank(qp.M[act]) < act.size:
            rank_flag = True
    if rank_flag:
        warnings.warn("active constraint rows are linearly dependent; "
                      "multipliers are not unique", RankDeficientActiveSet,
                      stacklevel=3)
    res = kkt_residual(qp, w, mult)
    return QpSolution(w=w, multipliers=mult, active=tuple(int(i) for i in work),
                      kkt_residual=res, iterations=iterations,
                      rank_deficient=rank_flag)


def _feasible_point(M: Array, r: Array, scale: float) -> Array:
    """A point with ``M w <= r``, via a single-slack phase-1 LP."""
    m, p = M.shape
    if np.all(r >= -1e-12 * scale):
        return np.zeros(p)
    res = linprog(np.concatenate([np.zeros(p), [1.0]]),
                  A_ub=np.hstack([M, -np.ones((m, 1))]), b_ub=r,
                  bounds=[(None, None)] * p + [(0.0, None)], method="highs")
    if res.status != 0 or res.x is None:
        raise Infeasible(f"phase-1 feasibility LP failed: {res.message}")
    if res.x[-1] > 1e-8 * scale:
        raise Infeasible(
            f"no point satisfies the constraints (best slack {res.x[-1]:.3e})")
    return res.x[:p]


def _independent_active(M: Array, r: Array, w: Array, scale: float) -> list[int]:
    """Lowest-index maximal independent subset of rows active at ``w``."""
    act = np.flatnonzero(np.abs(M @ w - r) <= 1e-9 * scale)
    work: list[int] = []
    for i in act:
        cand = work + [int(i)]
        if np.linalg.matrix_rank(M[cand]) == len(cand):
            work = cand
    return work


def solve_qp(qp: QpProblem, max_iter: int | None = None) -> QpSolution:
    """Solve the QP by a primal active-set method.

    Parameters
    ----------
    qp : QpProblem
        Problem data; the quadratic term must be positive definite.
    max_iter : int, optional
        Budget for working-set changes.  Defaults to ``50 * (m + 2)``.

    Returns
    -------
    QpSolution
        Optimal point, full multiplier vector (zeros off the working set),
        working set, aggregate KKT residual, and iteration count.

    Raises
    ------
    Infeasible
        If no point satisfies the constraints within tolerance.
    NotPositiveDefinite
        If the quadratic term fails its Cholesky factorization.
    MaxIterations
        If the working-set loop exceeds its budget.

    Notes
    -----
    Constraint entry and exit use lowest-index tie-breaking, so the method
    is deterministic and does not cycle on the small degenerate problems it
    is meant for.  Rank-deficient working sets are resolved by least
    squares and reported through :class:`RankDeficientActiveSet`.
    """
    p, m = qp.dim, qp.num_constraints
    Q, c, M, r = qp.Q, qp.c, qp.M, qp.r
    scale = qp.scale
    _check_spd(Q)
    if max_iter is None:
        max_iter = 50 * (m + 2)

    w_free = np.linalg.solve(Q, -c)
    if m == 0:
        return _finish(qp, w_free, np.zeros(0), (), 1, False)
    if np.all(M @ w_free <= r + 1e-11 * scale):
        return _finish(qp, w_free, np.zeros(m), (), 1, False)

    w = _feasible_point(M, r, scale)
    work = _independent_active(M, r, w, scale)
    used_lstsq = False

    for it in range(1, max_iter + 1):
        k = len(work)
        kkt = np.zeros((p + k, p + k))
        kkt[:p, :p] = Q
        if k:
            Mw = M[work]
            kkt[:p, p:] = Mw.T
            kkt[p:, :p] = Mw
        rhs = np.concatenate([-c, r[work]])
        try:
            sol = np.linalg.solve(kkt, rhs)
            if not np.all(np.isfinite(sol)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            used_lstsq = True
        w_eq, lam = sol[:p], sol[p:]

        if np.linalg.norm(w_eq - w) <= 1e-11 * (1.0 + np.linalg.norm(w_eq)):
            wrong = [i for i, v in zip(work, lam) if v < -DUAL_TOL]
            if not wrong:
                mult = np.zeros(m)
                mult[work] = lam
                return _finish(qp, w_eq, mult, work, it, used_lstsq)
            work.remove(min(wrong))  # lowest index leaves
            continue

        d = w_eq - w
        md = M @ d
        slack = r - M @ w
        dir_tol = 1e-13 * max(1.0, float(np.max(np.abs(md))))
        step = 1.0
        blocking = None
        for i in range(m):
            if i in work or md[i] <= dir_tol:
                continue
            ratio = max(slack[i], 0.0) / md[i]
            if ratio < step - 1e-12:
                step = ratio
                blocking = i
            # ties keep the earlier (lower) index
        if blocking is None:
            w = w_eq
        else:
            w = w + step * d
            work.append(blocking)
            work.sort()
    raise MaxIterations(f"active-set method did not finish in {max_iter} iterations")


def enumerate_oracle(qp: QpProblem, max_constraints: int = 12) -> QpSolution:
    """Solve the QP by enumerating candidate active sets.

    Every subset of at most ``dim`` constraint rows with independent rows is
    treated as an equality-constrained problem; the first candidate (in
    size, then lexicographic order) that is primal feasible with
    nonnegative multipliers is returned.  Intended as an independent
    ground-truth oracle for small instances, not for production use.
    """
    p, m = qp.dim, qp.num_constraints
    if m > max_constraints:
        raise ValueError(f"oracle is limited to {max_constraints} constraints, got {m}")
    Q, c, M, r = qp.Q, qp.c, qp.M, qp.r
    scale = qp.scale
    _check_spd(Q)

    tried = 0
    for size in range(0, min(p, m) + 1):
        for subset in itertools.combinations(range(m), size):
            idx = list(subset)
            Ms = M[idx]
            if size and np.linalg.matrix_rank(Ms) < size:
                continue
            kkt = np.zeros((p + size, p + size))
            kkt[:p, :p] = Q
            if size:
                kkt[:p, p:] = Ms.T
                kkt[p:, :p] = Ms
            rhs = np.concatenate([-c, r[idx]])
            tried += 1
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            w, lam = sol[:p], sol[p:]
            if size and np.any(lam < -DUAL_TOL):
                continue
            if m and np.any(M @ w > r + 1e-9 * scale):
                continue
            mult = np.zeros(m)
            mult[idx] = lam
            return _finish(qp, w, mult, subset, tried, False)
    raise Infeasible("no candidate active set is primal and dual feasible")
