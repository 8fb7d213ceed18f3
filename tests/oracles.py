"""Reference answers for the QP ``min 0.5 w'Qw + c'w  s.t.  M w <= r``.

Written over :mod:`numpy.linalg` alone and importing nothing from fbopt, so
that agreement with :func:`fbopt.solve_qp` checks the solver, not code the
two share.  Both functions read the QP's ``Q``, ``c``, ``M`` and ``r``.
"""

import itertools
from typing import NamedTuple

import numpy as np


class OracleSolution(NamedTuple):
    w: np.ndarray
    multipliers: np.ndarray  # zeros off the active set
    active: tuple


def enumerate_oracle(qp) -> OracleSolution:
    """Solve the QP by trying candidate active sets.

    Each set of at most ``dim`` independent rows, by size and then in
    lexicographic order, is held as equalities; the first whose point is
    feasible to ``1e-9 * (1 + ||c|| + ||r||)`` and whose multipliers are
    ``>= -1e-10`` is returned.  A singular KKT system on a nonempty set is
    skipped.  ``LinAlgError`` if ``Q`` fails its Cholesky test or is
    singular, ``ValueError`` if no set qualifies.
    """
    Q, c, M, r = qp.Q, qp.c, qp.M, qp.r
    p, m = c.size, r.size
    np.linalg.cholesky(Q)
    tol = 1e-9 * (1.0 + np.linalg.norm(c) + np.linalg.norm(r))
    for size in range(min(p, m) + 1):
        for subset in itertools.combinations(range(m), size):
            idx = list(subset)
            rows = M[idx]
            if size and np.linalg.matrix_rank(rows) < size:
                continue
            kkt = np.block([[Q, rows.T], [rows, np.zeros((size, size))]])
            try:
                sol = np.linalg.solve(kkt, np.concatenate([-c, r[idx]]))
            except np.linalg.LinAlgError:
                if not size:  # the set with no rows solves Q w = -c
                    raise
                continue
            w, lam = sol[:p], sol[p:]
            if np.any(lam < -1e-10) or np.any(M @ w > r + tol):
                continue
            mult = np.zeros(m)
            mult[idx] = lam
            return OracleSolution(w, mult, subset)
    raise ValueError("no candidate active set is primal and dual feasible")


def kkt_residual(qp, w, multipliers) -> float:
    """First-order optimality defect of ``(w, multipliers)``: the norms of
    the stationarity defect ``Q w + c + M' mult``, the primal infeasibility
    ``max(0, M w - r)``, the dual infeasibility ``max(0, -mult)`` and the
    complementarity products, summed.  Zero exactly at the optimal pair."""
    w = np.asarray(w, dtype=float).reshape(-1)
    mult = np.asarray(multipliers, dtype=float).reshape(-1)
    stat = qp.Q @ w + qp.c
    primal = comp = 0.0
    if qp.M.shape[0]:
        stat = stat + qp.M.T @ mult
        slack = qp.M @ w - qp.r
        primal = float(np.linalg.norm(np.maximum(slack, 0.0)))
        comp = float(np.linalg.norm(mult * slack))
    dual = float(np.linalg.norm(np.maximum(-mult, 0.0)))
    return float(np.linalg.norm(stat)) + primal + dual + comp
