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
and faithful Lagrange multipliers rather than for scale.  At that size a
solve costs call overhead, not flops, so :func:`solve_qp` calls LAPACK
directly through :mod:`scipy.linalg.lapack`, whose wrappers cost a fraction
of :mod:`numpy.linalg`'s, and factors ``Q`` once by LU: the factor gives
the unconstrained minimizer and every ``Q^-1 a_i``.  The Cholesky
factorization of ``Q`` serves only as the definiteness test.

Two independent routes are provided: :func:`solve_qp` (the production
active-set method) and :func:`enumerate_oracle` (brute-force enumeration of
candidate active sets, usable as a ground-truth check for problems with a
handful of rows; it solves through :mod:`numpy.linalg`).  Tie-breaking is
always by lowest constraint index, so both routes are deterministic for
identical input.

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
from scipy.linalg.lapack import dgesv, dgetrs, dpotrf

from .model import _finite

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


def __getattr__(name: str):
    """Resolve ``fbopt.qp.linprog`` to SciPy's own function, importing
    :mod:`scipy.optimize` only then; any other missing name raises
    ``AttributeError``.

    No code here calls ``linprog``.  The name resolves only because
    ``perfbench/tracer.py`` looks it up with a bare ``getattr``; importing
    it on first lookup keeps :mod:`scipy.optimize` out of ``import fbopt``.
    Delete this together with that lookup (ROADMAP item 5).
    """
    if name == "linprog":
        from scipy.optimize import linprog

        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Absolute lower bound accepted for multipliers before a candidate active set
# of the enumeration oracle is rejected.
DUAL_TOL = 1e-10

# Most constraint rows the enumeration oracle accepts: it tries every subset
# of at most ``dim`` rows.
ORACLE_MAX_CONSTRAINTS = 12


class Infeasible(RuntimeError):
    """No point satisfies ``M w <= r`` within tolerance."""


class NotPositiveDefinite(RuntimeError):
    """The quadratic term failed its Cholesky factorization, or an LU
    factorization of it met an exact zero pivot."""


class MaxIterations(RuntimeError):
    """The active-set loop exceeded its iteration budget."""


class RankDeficientActiveSet(UserWarning):
    """The active rows are linearly dependent; multipliers are not unique."""


@dataclass(frozen=True)
class QpProblem:
    """Data of one strictly convex inequality-constrained QP.

    ``M`` may have zero rows (unconstrained problem).  All entries must be
    finite and ``Q`` symmetric to within ``1e-12 * max(1, max|Q|)``;
    positive definiteness is checked lazily by the solvers through
    factorization.  The constructor converts, checks and copies every
    array, so the caller may go on changing its own.  The controller's step
    builds its QP through ``QpProblem._adopt`` instead, which keeps the
    arrays it has just made and checks only what is not checked yet.
    """

    Q: Array
    c: Array
    M: Array
    r: Array
    scale: float = field(init=False)  # 1 + ||c|| + ||r||, for tolerances

    def __post_init__(self):
        Q = np.atleast_2d(np.array(self.Q, dtype=float))
        c = np.array(self.c, dtype=float).reshape(-1)
        p = c.size
        M = np.array(self.M, dtype=float)
        if M.size == 0:
            M = M.reshape(0, p)
        M = np.atleast_2d(M)
        if M.shape[1] != p:
            raise ValueError(f"M must have {p} columns, got {M.shape[1]}")
        raw = self.r if self.r is not None else np.zeros(0)
        r = np.array(raw, dtype=float).reshape(-1)
        if r.size != M.shape[0]:
            raise ValueError(f"r must have length {M.shape[0]}, got {r.size}")
        self._store(Q, c, M, r, "Q")

    @classmethod
    def _adopt(cls, Q: Array, c: Array, M: Array, r: Array, q_name: str) -> "QpProblem":
        """The QP of float arrays that the caller has just created and
        keeps no other use of: they are marked read-only in place, not
        copied.  ``c`` must be a vector and ``M`` and ``r`` must match it;
        ``Q``'s shape and symmetry and every entry's finiteness are checked
        as by the constructor, with ``q_name`` naming ``Q`` in the errors."""
        qp = object.__new__(cls)
        qp._store(Q, c, M, r, q_name)
        return qp

    def _store(self, Q: Array, c: Array, M: Array, r: Array, q_name: str) -> None:
        """Check ``Q`` against ``c`` and every entry for finiteness, then
        keep the four arrays, read-only, and their ``scale``."""
        p = c.size
        if Q.shape != (p, p):
            raise ValueError(f"{q_name} must be ({p}, {p}), got {Q.shape}")
        qmax = float(np.abs(Q).max())
        asym = np.abs(Q - Q.T).max()
        if asym > 1e-12 * max(1.0, qmax):
            raise ValueError(f"{q_name} must be symmetric (asymmetry {asym:.3e})")
        scale = 1.0 + math.sqrt(c.dot(c)) + math.sqrt(r.dot(r))  # np.linalg.norm's bits
        # a sum is finite only if every term is; the loop names the array
        if not math.isfinite(qmax + scale + M.sum()):
            for name, a in ((q_name, Q), ("c", c), ("M", M), ("r", r)):
                if not _finite(a):
                    raise ValueError(f"{name} must be finite")
        for name, a in (("Q", Q), ("c", c), ("M", M), ("r", r)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
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
    if dpotrf(Q, lower=1)[1] != 0:
        raise NotPositiveDefinite("quadratic term is not positive definite")


def _finish(qp: QpProblem, w: Array, Mw: Array, mult: Array, work, iterations: int,
            rank_flag: bool) -> QpSolution:
    """The solution ``w`` with ``Mw = M @ w``, which the caller has already
    formed to test feasibility."""
    # ``work`` holds independent rows, so only active rows outside it can
    # make the active set rank-deficient
    if qp.num_constraints:
        act = np.flatnonzero(np.abs(Mw - qp.r) <= 1e-9 * qp.scale)
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
    sol, info = dgesv(kkt, rhs)[2:]
    if info == 0 and _finite(sol):
        return sol, False
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
    L, info = dpotrf(S, lower=1)
    return info == 0 and bool((np.diag(L) ** 2 > 1e-13 * np.diag(S)).all())


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
        If the quadratic term fails its Cholesky factorization, or its LU
        factorization meets an exact zero pivot (``Q`` singular).
    MaxIterations
        If the working-set loop exceeds its budget.

    Notes
    -----
    ``Q`` is factored twice, each time by one direct LAPACK call: a
    Cholesky factorization (``dpotrf``) that only tests definiteness, and
    one LU factorization (``dgesv``) that gives ``w0`` and is kept.  Every
    ``Q^{-1} a_i`` below is a solve with that LU (``dgetrs``), made only
    when it is read: for the rows of ``V`` when it has two or more, and for
    all rows when the loop runs.  A free solve or an accepted one-row start
    makes none.  The KKT systems are solved by ``dgesv`` too, so a solve
    that meets no singular system calls nothing from :mod:`numpy.linalg`.

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

    lu, piv, w, info = dgesv(Q, -c)  # lu, piv also give every Q^-1 a_i
    if info:
        raise NotPositiveDefinite("quadratic term is singular to working precision")
    tol = 1e-11 * scale
    Mw = M @ w
    start = np.flatnonzero(Mw > r + tol).tolist()  # the violated rows
    if not start:
        return _finish(qp, w, Mw, np.zeros(m), (), 1, False)
    lam = np.zeros(m)
    work: list[int] = []  # sorted
    # first try the violated rows as the working set: adding them without a
    # drop would take the method below len(start) + 1 iterations.  One row
    # passes the independence test unless it is zero, and then the KKT
    # solve below is singular, so the test runs only on two or more rows.
    if len(start) <= p and len(start) < max_iter and (
            len(start) == 1
            or _independent(M[start] @ dgetrs(lu, piv, M[start].T)[0])):
        ws, mult, singular = _equality_solve(qp, start)
        if not singular and (mult >= 0.0).all():
            Mws = M @ ws
            if (Mws <= r + tol).all():
                return _finish(qp, ws, Mws, mult, start, len(start) + 1, False)
            w, lam, work = ws, mult, start  # dual feasible: go on from it

    Qinv_Mt = dgetrs(lu, piv, M.T)[0]  # column i is Q^-1 a_i
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
                return _finish(qp, w, M @ w, mult, work, it, rank_flag or singular)

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


def enumerate_oracle(qp: QpProblem) -> QpSolution:
    """Solve the QP by enumerating candidate active sets.

    Every subset of at most ``dim`` constraint rows with independent rows is
    treated as an equality-constrained problem; the first candidate (in
    size, then lexicographic order) that is primal feasible with
    nonnegative multipliers is returned.  Intended as an independent
    ground-truth oracle for small instances, not for production use: raises
    ``ValueError`` above ``ORACLE_MAX_CONSTRAINTS`` rows.  Like
    :func:`solve_qp`, it raises :class:`NotPositiveDefinite` when ``Q``
    fails its Cholesky test or is singular, which the candidate with no
    rows (``Q w = -c``) finds.
    """
    p, m = qp.dim, qp.num_constraints
    if m > ORACLE_MAX_CONSTRAINTS:
        raise ValueError(f"oracle is limited to {ORACLE_MAX_CONSTRAINTS} constraints, "
                         f"got {m}")
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
                if not size:  # the candidate with no rows solves Q w = -c
                    raise NotPositiveDefinite(
                        "quadratic term is singular to working precision") from None
                continue
            w, lam = sol[:p], sol[p:]
            if size and np.any(lam < -DUAL_TOL):
                continue
            Mw = M @ w
            if m and np.any(Mw > r + 1e-9 * scale):
                continue
            mult = np.zeros(m)
            mult[idx] = lam
            return _finish(qp, w, Mw, mult, subset, tried, False)
    raise Infeasible("no candidate active set is primal and dual feasible")
