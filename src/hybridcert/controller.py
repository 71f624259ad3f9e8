"""Sample-and-hold CLF-CBF control: timer augmentation and exact small QPs.

The plant x' = f0(x) + g_in(x) u is hybridized by appending the held input
and a timer: flows keep u constant and advance the timer at rate 1, a jump
at the period resets the timer and refreshes u through a policy.  The QP
policy minimizes a quadratic decision cost subject to box, rate and
CLF/CBF admissibility rows; infeasibility walks a fixed relaxation ladder
instead of failing.
"""

import logging
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .geometry import AxisBox, as_vector
from .hybrid import HybridSystem

log = logging.getLogger(__name__)

# D is the half-line {tau >= period - JUMP_SLACK}: event refinement lands a
# hair before the period, and a closed representable set is needed anyway
JUMP_SLACK = 1e-9


@dataclass
class ControlledPlant:
    """Affine-in-input plant dx/dt = drift(x) + input_matrix(x) @ u.

    decision_cost, when present, maps a decision state x to quadratic cost
    data (Q, q, c) meaning u.Q.u + q.u + c; identity cost |u|^2 otherwise.
    operating_box bounds the x-subspace during closed-loop simulation.
    """

    dim_x: int
    dim_u: int
    drift: object
    input_matrix: object
    input_box: AxisBox
    operating_box: AxisBox = None
    decision_cost: object = None

    def __post_init__(self):
        if self.input_box.lo.size != self.dim_u:
            raise ValueError("input_box dimension != dim_u")

    def vector_field(self, x, u):
        return as_vector(self.drift(x)) + np.asarray(self.input_matrix(x)) @ u

    def cost_data(self, x):
        if self.decision_cost is not None:
            Q, q, c = self.decision_cost(x)
            return np.asarray(Q, float), np.asarray(q, float), float(c)
        return np.eye(self.dim_u), np.zeros(self.dim_u), 0.0


@dataclass
class SampleHoldConfig:
    period: float = 0.5
    sigma_margin: float = 0.07
    rate_limits: tuple = None  # per-input rate bound or None entries

    def __post_init__(self):
        if self.period <= 0.0 or self.sigma_margin <= 0.0:
            raise ValueError("period and sigma_margin must be positive")


@dataclass
class QPProblem:
    """min u.Q.u + q.u + c over {lb <= u <= ub} cut by rows a.u <= b."""

    Q: object
    q: object
    c: float
    rows: list
    lb: object
    ub: object

    def __post_init__(self):
        self.Q = np.asarray(self.Q, float)
        self.q = np.asarray(self.q, float)
        self.lb = np.asarray(self.lb, float)
        self.ub = np.asarray(self.ub, float)
        self.rows = [(as_vector(a), float(b)) for a, b in self.rows]
        if np.any(np.linalg.eigvalsh(self.Q) <= 0.0):
            raise ValueError("cost matrix must be positive definite")
        n = self.q.size
        self._box_rows = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            if np.isfinite(self.ub[i]):
                self._box_rows.append((e, float(self.ub[i])))
            if np.isfinite(self.lb[i]):
                self._box_rows.append((-e, float(-self.lb[i])))

    def cost(self, u):
        u = as_vector(u)
        return float(u @ self.Q @ u + self.q @ u + self.c)

    def all_rows(self):
        """Inequality rows including the box faces."""
        return self.rows + self._box_rows

    def feasible(self, u, slack=1e-9):
        return all(float(a @ u) <= b + slack for a, b in self.all_rows())


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


def admissible_constraints(x, V, B, plant: ControlledPlant, sigma,
                           barrier_cap=None):
    """CLF and CBF rows of the admissible input set at x.

    Row 1: L_gV . u <= -sigma - L_fV - V(x)   (decrease of V at rate >= V)
    Row 2: -L_gB . u <= L_fB - sigma          (increase of B by >= sigma)

    With barrier_cap set, row 2 becomes the growth bound
    L_fB + L_gB . u <= barrier_cap instead.  That form suits barriers that
    diverge on the unsafe set: a bounded growth rate keeps B finite along
    the closed loop, so the unsafe set is never reached, while motion away
    from it stays admissible.  The default form would demand B keep rising
    and so would pin the state near the unsafe set once it has to retreat.
    """
    x = as_vector(x)
    f0 = as_vector(plant.drift(x))
    G = np.asarray(plant.input_matrix(x), float)
    gv = V.gradient(x)
    gb = B.gradient(x)
    LfV, LgV = float(gv @ f0), gv @ G
    LfB, LgB = float(gb @ f0), gb @ G
    if barrier_cap is None:
        row_b = (-LgB, LfB - sigma)
    else:
        row_b = (LgB, float(barrier_cap) - LfB)
    return [
        (LgV, -sigma - LfV - float(V(x))),
        row_b,
    ]


def _rate_box(plant, cfg, u_prev, dt):
    lb, ub = plant.input_box.lo.copy(), plant.input_box.hi.copy()
    rates = cfg.rate_limits or (None,) * plant.dim_u
    for i, rate in enumerate(rates):
        if rate is None:
            continue
        lb[i] = max(lb[i], u_prev[i] - rate * dt)
        ub[i] = min(ub[i], u_prev[i] + rate * dt)
    return lb, ub


def qp_policy(x, V, B, plant: ControlledPlant, cfg: SampleHoldConfig,
              u_prev, dt, log_list=None, barrier_cap=None):
    """One sample-and-hold decision: minimize the plant's decision cost over
    the box/rate constraints and the admissible rows.

    Relaxation ladder on infeasibility: halve sigma up to 8 times, then drop
    the V-row keeping the B-row at the most relaxed sigma, finally hold the
    rate-limited inputs and zero the rest.  A barrier_cap is passed through
    unrelaxed (halving it would tighten the growth bound, the opposite of a
    relaxation).  Every decision appends a log entry (level, sigma used,
    chosen u, margins of the unrelaxed rows).
    """
    x = as_vector(x)
    u_prev = as_vector(u_prev)
    lb, ub = _rate_box(plant, cfg, u_prev, dt)
    Q, q, c = plant.cost_data(x)
    sigma0 = cfg.sigma_margin

    attempts = []
    sigma = sigma0
    for level in range(9):  # level 0 unrelaxed, then 8 halvings
        attempts.append((level, sigma, True))
        sigma /= 2.0
    attempts.append((9, sigma0 / 2.0**8, False))  # drop V-row, keep B-row

    u_star = None
    used = None
    for level, sigma, with_V in attempts:
        rows = admissible_constraints(x, V, B, plant, sigma,
                                      barrier_cap=barrier_cap)
        if not with_V:
            rows = rows[1:]
        u_star = solve_qp(QPProblem(Q, q, c, rows, lb, ub))
        if u_star is not None:
            used = (level, sigma)
            break

    if u_star is None:
        rates = cfg.rate_limits or (None,) * plant.dim_u
        u_star = np.array(
            [u_prev[i] if rates[i] is not None else 0.0
             for i in range(plant.dim_u)]
        )
        u_star = np.minimum(np.maximum(u_star, lb), ub)
        used = (10, 0.0)
        log.warning("QP infeasible at every ladder level; holding input")

    if log_list is not None:
        rows0 = admissible_constraints(x, V, B, plant, sigma0,
                                       barrier_cap=barrier_cap)
        log_list.append(
            {
                "level": used[0],
                "sigma": used[1],
                "x": np.array(x),
                "u": np.array(u_star),
                "margin_V": float(rows0[0][1] - rows0[0][0] @ u_star),
                "margin_B": float(rows0[1][1] - rows0[1][0] @ u_star),
            }
        )
    return u_star


def make_sample_hold_policy(plant, V, B, cfg, log_list=None,
                            barrier_cap=None):
    """Policy on the augmented state z = (x, u_held, tau) for the timer jump."""
    nx, nu = plant.dim_x, plant.dim_u

    def policy(z):
        z = as_vector(z)
        return qp_policy(
            z[:nx], V, B, plant, cfg, z[nx:nx + nu], cfg.period,
            log_list=log_list, barrier_cap=barrier_cap,
        )

    return policy


def augment_sample_hold(plant: ControlledPlant, policy, cfg: SampleHoldConfig):
    """Timer-augmented hybrid system z = (x, u, tau) for sample-and-hold.

    Flow set {tau in [0, period]}, jump set {tau >= period - JUMP_SLACK};
    flows hold u and advance tau, jumps reset tau and refresh u = policy(z).
    The x-part of the bounds is the plant's operating box, or +-1e6
    without one.
    """
    nx, nu = plant.dim_x, plant.dim_u
    dim = nx + nu + 1
    inf = np.inf
    free_x = [-inf] * (nx + nu)
    C = AxisBox(free_x + [0.0], [inf] * (nx + nu) + [cfg.period])
    D = AxisBox(
        free_x + [cfg.period - JUMP_SLACK], [inf] * (nx + nu) + [inf]
    )

    drift, input_matrix = plant.drift, plant.input_matrix
    held = np.zeros(dim)  # u' = 0, tau' = 1; x' is filled in per call
    held[-1] = 1.0

    def flow_map(z):
        x, u = z[:nx], z[nx:nx + nu]
        out = held.copy()
        out[:nx] = drift(x) + input_matrix(x) @ u
        return out

    def jump_map(z):
        out = np.array(z, dtype=float)
        out[nx:nx + nu] = as_vector(policy(z))
        out[-1] = 0.0
        return [out]

    if plant.operating_box is not None:
        xlo, xhi = plant.operating_box.lo, plant.operating_box.hi
    else:
        xlo, xhi = np.full(nx, -1e6), np.full(nx, 1e6)
    ulo, uhi = plant.input_box.lo, plant.input_box.hi
    bounds = AxisBox(
        np.concatenate([xlo, ulo, [-0.5]]),
        np.concatenate([xhi, uhi, [cfg.period + 0.5]]),
    )
    return HybridSystem(
        dim=dim,
        flow_set=C,
        flow_map=flow_map,
        jump_set=D,
        jump_map=jump_map,
        bounds=bounds,
    )


def initial_augmented(x0, u0, cfg: SampleHoldConfig):
    """Start on the jump set so the first decision happens at t = 0."""
    return np.concatenate([as_vector(x0), as_vector(u0), [cfg.period]])
