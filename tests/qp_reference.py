"""The plain active-set QP solver, kept as the reference for solve_qp.

solve_qp below is hybridcert.controller.solve_qp as it was before the
box-bound certificate: it enumerates every active set, infeasible QPs
included, and returns None only when no candidate passes
QPProblem.feasible.  The package's solve_qp must return None on the same
QPs and the same bytes on the others; the tests compare the two.
"""

from itertools import combinations

import numpy as np

from hybridcert.controller import QPProblem


def solve_qp(qp: QPProblem):
    """Exact minimizer by active-set enumeration; None if infeasible.

    Every subset of at most dim_u constraints is made active in turn and the
    equality-constrained stationary point solved directly; the cheapest
    candidate satisfying all constraints is the global optimum (the polytope
    is compact once the box is finite, so the minimizer's active set has at
    most dim_u rows in general position).
    """
    n = qp.q.size
    if n > 2:
        raise ValueError("active-set enumeration is limited to dim_u <= 2")
    rows = qp.all_rows()
    A_all = np.array([a for a, _ in rows]).reshape(len(rows), n)
    b_all = np.array([b for _, b in rows])
    best = None
    for k in range(n + 1):
        for combo in combinations(range(len(rows)), k):
            active = list(combo)
            A, b = A_all[active], b_all[active]
            M = np.zeros((n + k, n + k))
            M[:n, :n] = 2.0 * qp.Q
            M[:n, n:] = A.T
            M[n:, :n] = A
            rhs = np.concatenate([-qp.q, b])
            try:
                sol = np.linalg.solve(M, rhs)
            except np.linalg.LinAlgError:
                continue
            # snap roundoff off the box so returned inputs obey it exactly
            u = np.clip(sol[:n], qp.lb, qp.ub)
            if not qp.feasible(u):
                continue
            cu = qp.cost(u)
            if best is None or cu < best[0]:
                best = (cu, u)
    return None if best is None else best[1]
