"""KKT residual of a QP solution, the optimality measure of the QP tests.

It recovers multipliers by scipy's nonnegative least squares, so it lives
with the tests: scipy is a test dependency, not a runtime one.
"""

import numpy as np
from scipy.optimize import nnls

from hybridcert import QPProblem
from hybridcert.geometry import as_vector

# rows within this distance of equality count as active in kkt_residual
ACTIVE_TOL = 1e-8


def kkt_residual(qp: QPProblem, u):
    """Max of primal violation and stationarity residual at u.

    Multipliers for the active rows are recovered by nonnegative least
    squares, so the returned value also penalizes wrong multiplier signs.
    """
    u = as_vector(u)
    rows = qp.all_rows()
    primal = max((float(a @ u) - b for a, b in rows), default=0.0)
    primal = max(0.0, primal)
    grad = 2.0 * qp.Q @ u + qp.q
    active = [a for a, b in rows if abs(float(a @ u) - b) <= ACTIVE_TOL]
    if not active:
        stationarity = float(np.linalg.norm(grad))
    else:
        At = np.array(active).T  # n x m
        _, stationarity = nnls(At, -grad)
    return max(primal, float(stationarity))
