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
solve costs call overhead, not flops, so the solver calls LAPACK
directly through :mod:`scipy.linalg.lapack`, whose wrappers cost a fraction
of :mod:`numpy.linalg`'s, and factors ``Q`` once by LU: the factor gives
the unconstrained minimizer and every ``Q^-1 a_i``.  The Cholesky
factorization of ``Q`` serves only as the definiteness test.  For the same
reason every product on the step path (here and in the modules that build
and use the step) is ``ndarray.dot``, not ``@``, which dispatches through
numpy's matmul gufunc, and every all/any verdict is ``np.count_nonzero``,
not ``.all()``/``.any()``, which go through Python-level wrappers.  Both
give the same bits and the same verdicts, NaN included, at a fraction of
the call cost.  The symmetry test of every QP compares the bytes of ``Q``
and ``Q'`` first; only when they differ is the asymmetry measured, so an
exactly symmetric ``Q`` costs no reduction (a ±0 pair differs in its bytes
and measures 0).  LAPACK is bound by the first solve, not by
``import fbopt``: :mod:`scipy.linalg` costs more to import than the rest of
the package, and a process that solves no QP never needs it.

Feasibility tolerances are relative to ``scale = 1 + ||c|| + ||r||``; the
tests for linear dependence compare like quantities, so scaling ``Q`` and
``M`` together leaves the path of :func:`solve_qp` unchanged.

The public types wrap two array-level cores, ``_check_qp`` (the one check
of a QP) and ``_solve`` (the method), which the controller's step calls
directly: a step builds no :class:`QpProblem` and no :class:`QpSolution`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import _finite, _norm

__all__ = [
    "Infeasible",
    "NotPositiveDefinite",
    "MaxIterations",
    "RankDeficientActiveSet",
    "QpProblem",
    "QpSolution",
    "solve_qp",
]

Array = np.ndarray

dgesv = dgetrs = dpotrf = None  # LAPACK, bound by the first _solve

# solve_qp's budget of working-set changes is MAX_ITER_PER_ROW * (m + 2)
MAX_ITER_PER_ROW = 50


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


class Infeasible(RuntimeError):
    """No point satisfies ``M w <= r`` within tolerance."""


class NotPositiveDefinite(RuntimeError):
    """The quadratic term failed its Cholesky factorization, or an LU
    factorization of it met an exact zero pivot."""


class MaxIterations(RuntimeError):
    """The active-set loop exceeded its iteration budget."""


class RankDeficientActiveSet(UserWarning):
    """The active rows are linearly dependent; multipliers are not unique."""


def _check_qp(Q: Array, c: Array, M: Array, r: Array, q_name: str) -> float:
    """Check a QP of float arrays whose ``M`` and ``r`` already match the
    vector ``c``: ``Q``'s shape, every entry's finiteness, then ``Q``'s
    symmetry, with ``q_name`` naming ``Q`` in the errors.  Returns the
    tolerance scale ``1 + ||c|| + ||r||``."""
    p = c.size
    if Q.shape != (p, p):
        raise ValueError(f"{q_name} must be ({p}, {p}), got {Q.shape}")
    scale = 1.0 + _norm(c) + _norm(r)
    # a sum is finite only if every term is, and Q·Q only if every entry
    # of Q is (as in _finite: no overflow warning); the loop names the array
    if not math.isfinite(np.vdot(Q, Q) + scale + np.vdot(M, M)):
        for name, a in ((q_name, Q), ("c", c), ("M", M), ("r", r)):
            if not _finite(a):
                raise ValueError(f"{name} must be finite")
    # an exactly symmetric Q (the usual case) needs no reduction: equal
    # bytes mean Q == Q.T entry by entry, and finite bytes that differ
    # between equal values are a ±0 pair, which measures 0.  The bound
    # 1e-12 * max(1, max|Q|) is at least 1e-12, so max|Q| is needed only
    # above that.  Q is finite here, but Q - Q.T may overflow.
    if Q.tobytes() != Q.T.tobytes():
        with np.errstate(over="ignore"):
            asym = np.abs(Q - Q.T).max()
        if asym > 1e-12 and asym > 1e-12 * float(np.abs(Q).max()):
            raise ValueError(f"{q_name} must be symmetric (asymmetry {asym:.3e})")
    return scale


@dataclass(frozen=True)
class QpProblem:
    """Data of one strictly convex inequality-constrained QP.

    ``M`` may have zero rows (unconstrained problem).  All entries must be
    finite and ``Q`` symmetric to within ``1e-12 * max(1, max|Q|)``;
    positive definiteness is checked lazily by :func:`solve_qp` through
    factorization.  The constructor converts, checks and copies every
    array, so the caller may go on changing its own, and keeps its copies
    read-only.
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
        r = np.array(self.r, dtype=float).reshape(-1)
        if r.size != M.shape[0]:
            raise ValueError(f"r must have length {M.shape[0]}, got {r.size}")
        scale = _check_qp(Q, c, M, r, "Q")
        for a in (Q, c, M, r):
            a.setflags(write=False)
        vars(self).update(Q=Q, c=c, M=M, r=r, scale=scale)

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
    which case the multipliers are valid but not unique.
    """

    w: Array
    multipliers: Array
    active: tuple[int, ...]
    iterations: int
    rank_deficient: bool = False


def _finish(M: Array, r: Array, scale: float, w: Array, Mw: Array, mult: Array, work,
            iterations: int, rank_flag: bool, stacklevel: int):
    """:func:`_solve`'s result for the solution ``w`` with ``Mw = M @ w``,
    which the caller has already formed to test feasibility; ``work`` holds
    Python ints."""
    # ``work`` holds independent rows, so only active rows outside it can
    # make the active set rank-deficient
    if r.size:
        act = (np.abs(Mw - r) <= 1e-9 * scale).nonzero()[0]
        if act.size and not set(act.tolist()).issubset(work) \
                and np.linalg.matrix_rank(M[act]) < act.size:
            rank_flag = True
    if rank_flag:
        warnings.warn("active constraint rows are linearly dependent; "
                      "multipliers are not unique", RankDeficientActiveSet,
                      stacklevel=stacklevel + 2)
    return w, mult, tuple(work), iterations, rank_flag


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


def _equality_solve(Q: Array, nc: Array, r: Array, work, N: Array) -> tuple[Array, Array, bool]:
    """Point and full multiplier vector of the QP with linear term ``-nc``
    and the rows ``work`` (sorted), whose block of ``M`` is ``N``, held as
    equalities; the flag marks a singular KKT system."""
    sol, singular = _kkt_solve(Q, N, nc, r[work])
    mult = np.zeros(r.size)
    mult[work] = sol[nc.size:]
    return sol[:nc.size], mult, singular


def _independent(S: Array) -> bool:
    """The loop's independence test ``a' z > 1e-13 a' Q^-1 a`` of
    :func:`solve_qp`, applied to a set of rows ``N`` at once: with
    ``S = N Q^-1 N' = L L'``, ``L_kk^2`` is ``a' z`` of row ``k`` against
    the rows before it.  The diagonals are tested as Python floats: the
    same products and comparisons as on arrays, without their calls."""
    L, info = dpotrf(S, lower=1)
    if info:
        return False
    return all(l * l > 1e-13 * s
               for l, s in zip(L.diagonal().tolist(), S.diagonal().tolist()))


def solve_qp(qp: QpProblem) -> QpSolution:
    """Solve the QP by the dual active-set method of Goldfarb and Idnani.

    Parameters
    ----------
    qp : QpProblem
        Problem data; the quadratic term must be positive definite.

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
        If the working-set loop exceeds its budget of
        ``MAX_ITER_PER_ROW * (m + 2)`` = ``50 * (m + 2)`` working-set
        changes for ``m`` rows.

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
    ``|V| <= dim`` and the rows of ``V`` pass the independence test below
    applied to all of them at once (with ``S = M_V Q^{-1} M_V' = L L'``,
    every ``L_kk^2 > 1e-13 S_kk``; a single row passes unless it is zero,
    which the KKT solve then reports as singular), the equality QP on ``V``
    is solved by one KKT solve; the rows ``M_V`` are sliced from ``M`` once,
    for the test and that solve.  The start needs no budget test:
    ``|V| <= m < 50 * (m + 2)``.  If the system is not singular and its
    multipliers are ``>= 0``, the start is dual feasible:
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
    working set is active.

    The method is the core :func:`_solve`; this packs its result.
    """
    return QpSolution(*_solve(qp.Q, qp.c, qp.M, qp.r, qp.scale, 2))


def _solve(Q: Array, c: Array, M: Array, r: Array, scale: float, stacklevel: int):
    """:func:`solve_qp` on arrays that :func:`_check_qp` checked and scaled:
    ``(w, multipliers, working set, iterations, rank flag)``.  The first
    call binds LAPACK.  The rank warning's ``stacklevel`` counts from the
    caller, as if it called :func:`warnings.warn`."""
    p, m = c.size, r.size
    global dgesv, dgetrs, dpotrf
    if dpotrf is None:  # the first solve binds the LAPACK routines
        from scipy.linalg.lapack import dgesv, dgetrs, dpotrf
    if dpotrf(Q, lower=1)[1] != 0:
        raise NotPositiveDefinite("quadratic term is not positive definite")
    max_iter = MAX_ITER_PER_ROW * (m + 2)

    nc = -c  # the right-hand side of w0 and of every equality solve
    lu, piv, w, info = dgesv(Q, nc)  # lu, piv also give every Q^-1 a_i
    if info:
        raise NotPositiveDefinite("quadratic term is singular to working precision")
    tol = 1e-11 * scale
    r_tol = r + tol
    Mw = M.dot(w)
    V = (Mw > r_tol).nonzero()[0]  # the violated rows
    k = V.size
    if not k:
        return _finish(M, r, scale, w, Mw, np.zeros(m), (), 1, False, stacklevel)
    lam = np.zeros(m)
    work: list[int] = []  # sorted
    # first try the violated rows as the working set: adding them without a
    # drop would take the method below k + 1 iterations.  One row passes the
    # independence test unless it is zero, and then the KKT solve below is
    # singular, so the test runs only on two or more rows.
    if k <= p:
        M_V = M[V]
        if k == 1 or _independent(M_V.dot(dgetrs(lu, piv, M_V.T)[0])):
            ws, mult, singular = _equality_solve(Q, nc, r, V, M_V)
            if not singular and np.count_nonzero(mult >= 0.0) == m:
                Mws = M.dot(ws)
                if np.count_nonzero(Mws <= r_tol) == m:
                    return _finish(M, r, scale, ws, Mws, mult, V.tolist(), k + 1,
                                   False, stacklevel)
                w, lam, work = ws, mult, V.tolist()  # dual feasible: go on from it

    Qinv_Mt = dgetrs(lu, piv, M.T)[0]  # column i is Q^-1 a_i
    curvature = np.einsum("ij,ji->i", M, Qinv_Mt)  # a' Q^-1 a
    add = None  # row being made active
    rank_flag = False

    for it in range(len(work) + 1, max_iter + 1):
        if add is None:
            viol = M.dot(w) - r
            viol[work] = -np.inf
            add = int(viol.argmax())  # lowest index on ties
            if viol[add] <= tol:
                w, mult, singular = _equality_solve(Q, nc, r, work, M[work])
                return _finish(M, r, scale, w, M.dot(w), mult, work, it,
                               rank_flag or singular, stacklevel)

        a = M[add]
        sol, singular = _kkt_solve(Q, M[work], a, np.zeros(len(work)))
        rank_flag = rank_flag or singular
        z, s = sol[:p], sol[p:]
        az = float(a.dot(z))
        # p working rows span every row, so z is zero up to roundoff
        independent = len(work) < p and az > 1e-13 * curvature[add]
        full = max(float(a.dot(w)) - r[add], 0.0) / az if independent else np.inf
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
