"""Small dense strictly convex quadratic programs with exact multipliers.

Solves

    minimize    0.5 * w' Q w + c' w
    subject to  M w <= r

for symmetric positive definite ``Q`` by the dual active-set method of
Goldfarb and Idnani (1983).  The method starts from the unconstrained
minimizer and adds violated rows one at a time while keeping the
multipliers nonnegative, so it needs no feasible starting point (no
phase-1 problem) and it proves infeasibility on its own.  It first tries
one guess: the rows the unconstrained minimizer violates, held as
equalities.  When those rows are independent and the guess is optimal, one
KKT solve replaces the loop; when only its multipliers are nonnegative, the
loop goes on from it.  Problems of this shape appear once per controller
step, so the solver is tuned for very small dense instances, determinism,
and faithful Lagrange multipliers rather than for scale.

Two independent routes are provided: :func:`solve_qp` (the production
active-set method) and :func:`enumerate_oracle` (brute-force enumeration of
candidate active sets, usable as a ground-truth check for problems with a
handful of rows).  Tie-breaking is always by lowest constraint index, so both
routes are deterministic for identical input.

Feasibility tolerances are relative to ``scale = 1 + ||c|| + ||r||``; the
tests for linear dependence compare like quantities, so scaling ``Q`` and
``M`` together leaves the path of :func:`solve_qp` unchanged.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog  # noqa: F401 -- unused; perfbench/tracer.py looks it up

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

# Absolute lower bound accepted for multipliers before a candidate active set
# of the enumeration oracle is rejected.
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

    ``M`` may have zero rows (unconstrained problem).  All entries must be
    finite and ``Q`` symmetric to within 1e-12; positive definiteness is
    checked lazily by the solvers through factorization.
    """

    Q: Array
    c: Array
    M: Array
    r: Array
    scale: float = field(init=False)  # 1 + ||c|| + ||r||, for tolerances

    def __post_init__(self):
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        c = np.asarray(self.c, dtype=float).reshape(-1)
        p = c.size
        if Q.shape != (p, p):
            raise ValueError(f"Q must be ({p}, {p}), got {Q.shape}")
        asym = np.abs(Q - Q.T).max() if p else 0.0
        qmax = float(np.abs(Q).max())
        if asym > 1e-12 * max(1.0, qmax):
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
        scale = 1.0 + float(np.linalg.norm(c)) + float(np.linalg.norm(r))
        # a sum is finite only if every term is; the loop names the array
        if not math.isfinite(qmax + scale + M.sum()):
            for name, a in (("Q", Q), ("c", c), ("M", M), ("r", r)):
                if not np.isfinite(a).all():
                    raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "Q", _read_only(Q))
        object.__setattr__(self, "c", _read_only(c))
        object.__setattr__(self, "M", _read_only(M))
        object.__setattr__(self, "r", _read_only(r))
        object.__setattr__(self, "scale", scale)

    @property
    def dim(self) -> int:
        return self.c.size

    @property
    def num_constraints(self) -> int:
        return self.M.shape[0]


@dataclass(frozen=True)
class QpSolution:
    """Primal solution with the full multiplier vector.

    ``active`` is the working set at termination; ``rank_deficient`` marks
    solutions whose geometrically active rows were linearly dependent, in
    which case the multipliers are valid but not unique.  No KKT residual
    is stored: :func:`kkt_residual` computes it on demand.
    """

    w: Array
    multipliers: Array
    active: tuple[int, ...]
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
    # ``work`` holds independent rows, so only active rows outside it can
    # make the active set rank-deficient
    if qp.num_constraints:
        act = np.flatnonzero(np.abs(qp.M @ w - qp.r) <= 1e-9 * qp.scale)
        if not set(act.tolist()).issubset(work) \
                and np.linalg.matrix_rank(qp.M[act]) < act.size:
            rank_flag = True
    if rank_flag:
        warnings.warn("active constraint rows are linearly dependent; "
                      "multipliers are not unique", RankDeficientActiveSet,
                      stacklevel=3)
    return QpSolution(w=w, multipliers=mult, active=tuple(int(i) for i in work),
                      iterations=iterations, rank_deficient=rank_flag)


def _kkt_solve(Q: Array, N: Array, top: Array, bottom: Array) -> tuple[Array, bool]:
    """Solve ``[[Q, N'], [N, 0]] x = [top; bottom]``; the flag marks a
    singular system resolved by least squares."""
    p, k = Q.shape[0], N.shape[0]
    kkt = np.zeros((p + k, p + k))
    kkt[:p, :p] = Q
    if k:
        kkt[:p, p:] = N.T
        kkt[p:, :p] = N
    rhs = np.concatenate([top, bottom])
    try:
        sol = np.linalg.solve(kkt, rhs)
        if np.isfinite(sol).all():
            return sol, False
    except np.linalg.LinAlgError:
        pass
    return np.linalg.lstsq(kkt, rhs, rcond=None)[0], True


def _equality_solve(qp: QpProblem, work: list[int]) -> tuple[Array, Array, bool]:
    """Point and full multiplier vector of the QP with the rows ``work``
    (sorted) held as equalities; the flag marks a singular KKT system."""
    sol, singular = _kkt_solve(qp.Q, qp.M[work], -qp.c, qp.r[work])
    mult = np.zeros(qp.num_constraints)
    mult[work] = sol[qp.dim:]
    return sol[:qp.dim], mult, singular


def _independent(S: Array) -> bool:
    """The loop's independence test ``a' z > 1e-13 a' Q^-1 a`` of
    :func:`solve_qp`, applied to a set of rows ``N`` at once: with
    ``S = N Q^-1 N' = L L'``, ``L_kk^2`` is ``a' z`` of row ``k`` against
    the rows before it."""
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return False
    return bool((np.diag(L) ** 2 > 1e-13 * np.diag(S)).all())


def solve_qp(qp: QpProblem, max_iter: int | None = None) -> QpSolution:
    """Solve the QP by the dual active-set method of Goldfarb and Idnani.

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
        working set, and iteration count.  A problem
        whose unconstrained minimizer is feasible takes one iteration and
        ends with an empty working set; an accepted start counts as the
        iterations that add its rows plus the one that finds no violation.

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
    The start: let ``V`` be the rows that the unconstrained minimizer
    ``w0 = Q^{-1}(-c)`` violates by more than ``1e-11 * scale``.  When
    ``|V| <= dim``, ``|V| + 1 <= max_iter`` and the rows of ``V`` pass the
    independence test below applied to all of them at once (with
    ``S = M_V Q^{-1} M_V' = L L'``, every ``L_kk^2 > 1e-13 S_kk``; a single
    row passes unless it is zero, which the KKT solve then reports as
    singular), the equality QP on ``V`` is solved by one KKT solve.  If the system is not
    singular and its multipliers are ``>= 0``, the start is dual feasible:
    when it also satisfies every row to within ``1e-11 * scale`` it is
    returned, with the working set ``V`` and ``|V| + 1`` iterations (the
    count of a run that adds the rows of ``V`` with no drop); otherwise the
    method below goes on from it as from iteration ``|V| + 1``.  Any other
    start is dropped and the method begins at ``w0`` with an empty working
    set, so it needs no feasible starting point.  A started solve that ends
    on the working set the method would reach from ``w0`` gives the same
    bits, since both end with the same KKT solve.  A row that is active with
    a zero multiplier (weakly active) can make a started solve end on
    another optimal working set: the point agrees to roundoff, and the
    multipliers agree too unless the active rows are dependent, which is
    then reported as below.

    Each iteration of the method takes the most violated row ``a`` and
    solves one KKT system ``[[Q, N'], [N, 0]] [z; s] = [a; 0]`` over the
    working rows ``N``: ``z`` is the primal direction and ``s`` the dual
    direction.  Moving the multiplier of ``a`` up by ``t`` moves ``w`` by
    ``-t z`` and the working multipliers by ``-t s``.  The step either makes
    ``a`` active (full step) or first drives a working multiplier to zero
    and drops that row (partial step), after which the same row is tried
    again.  Both choices break ties by lowest constraint index, so the
    method is deterministic.

    When ``a' z <= 1e-13 a' Q^{-1} a``, or the working set already holds
    ``dim`` rows, ``a`` is a combination of the working rows and no full
    step exists.  If no working row then has ``s > 0``, the multiplier of
    ``a`` can grow without bound: the constraints are inconsistent and
    :class:`Infeasible` is raised.  Working rows stay linearly independent.
    The final point and multipliers are recomputed from one KKT solve on
    the sorted working set.  A singular system is resolved by least squares
    and reported through :class:`RankDeficientActiveSet`, as are dependent
    rows active at the solution; since the working rows are independent,
    the rank of the active rows is computed only when a row outside the
    working set is active.  The KKT residual is not computed here; call
    :func:`kkt_residual` for it.
    """
    p, m = qp.dim, qp.num_constraints
    Q, c, M, r = qp.Q, qp.c, qp.M, qp.r
    scale = qp.scale
    _check_spd(Q)
    if max_iter is None:
        max_iter = 50 * (m + 2)

    w = np.linalg.solve(Q, -c)
    tol = 1e-11 * scale
    start = np.flatnonzero(M @ w > r + tol).tolist()  # the violated rows
    if not start:
        return _finish(qp, w, np.zeros(m), (), 1, False)
    Qinv_Mt = np.linalg.solve(Q, M.T)  # column i is Q^-1 a_i
    lam = np.zeros(m)
    work: list[int] = []  # sorted
    # first try the violated rows as the working set: adding them without a
    # drop would take the method below len(start) + 1 iterations.  One row
    # passes the independence test unless it is zero, and then the KKT
    # solve below is singular, so the test runs only on two or more rows.
    if len(start) <= p and len(start) < max_iter and (
            len(start) == 1 or _independent(M[start] @ Qinv_Mt[:, start])):
        ws, mult, singular = _equality_solve(qp, start)
        if not singular and (mult >= 0.0).all():
            if (M @ ws <= r + tol).all():
                return _finish(qp, ws, mult, start, len(start) + 1, False)
            w, lam, work = ws, mult, start  # dual feasible: go on from it

    curvature = np.einsum("ij,ji->i", M, Qinv_Mt)  # a' Q^-1 a
    add = None  # row being made active
    rank_flag = False

    for it in range(len(work) + 1, max_iter + 1):
        if add is None:
            viol = M @ w - r
            viol[work] = -np.inf
            add = int(np.argmax(viol))  # lowest index on ties
            if viol[add] <= tol:
                w, mult, singular = _equality_solve(qp, work)
                return _finish(qp, w, mult, work, it, rank_flag or singular)

        a = M[add]
        sol, singular = _kkt_solve(Q, M[work], a, np.zeros(len(work)))
        rank_flag = rank_flag or singular
        z, s = sol[:p], sol[p:]
        az = float(a @ z)
        # p working rows span every row, so z is zero up to roundoff
        independent = len(work) < p and az > 1e-13 * curvature[add]
        full = max(float(a @ w) - r[add], 0.0) / az if independent else np.inf
        partial, drop = np.inf, None
        for j, i in enumerate(work):
            if s[j] > 0.0 and lam[i] / s[j] < partial:
                partial, drop = lam[i] / s[j], j
        if drop is None and not independent:
            raise Infeasible(f"no point satisfies the constraints (row {add} "
                             f"contradicts the working set {work})")

        t = min(full, partial)
        if independent:
            w = w - t * z
        lam[work] -= t * s
        lam[add] += t
        if partial < full:
            lam[work.pop(drop)] = 0.0
        else:
            work.append(add)
            work.sort()
            add = None
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
