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
from .hybrid import DimensionMismatch, HybridSystem

log = logging.getLogger(__name__)

# the slack by which QPProblem.feasible lets a point violate a row
FEASIBLE_SLACK = 1e-9

# D is the half-line {tau >= period - JUMP_SLACK}: event refinement lands a
# hair before the period, and a closed representable set is needed anyway
JUMP_SLACK = 1e-9


def _entries(seq, n, what):
    """The entries of seq as a list, or a ValueError unless there are n."""
    items = list(seq)
    if len(items) != n:
        raise ValueError("%s has %d entries, wanted %d"
                         % (what, len(items), n))
    return items


def _composed_rate(drift, input_matrix, nx, nu):
    """The closed rate of a plant without its own: the function z ->
    f(x) + G(x) u, as a list of floats, with x and u the leading nx and nu
    floats of z, f = drift(x) and G = input_matrix(x).  Entry i is f[i] +
    G[i][0] * u[0] + ... + G[i][nu-1] * u[nu-1], summed left to right.  An
    f, a row of G or a u of the wrong length, or a G without nx rows,
    raises ValueError."""

    def closed_rate(z):
        x = z[:nx]
        f = _entries(drift(x), nx, "drift")
        G = [_entries(row, nu, "input matrix row")
             for row in _entries(input_matrix(x), nx, "input matrix")]
        u = _entries(z[nx:nx + nu], nu, "u")
        rate = []
        for total, row in zip(f, G):
            for g, uk in zip(row, u):
                total = total + g * uk
            rate.append(total)
        return rate

    return closed_rate


@dataclass
class ControlledPlant:
    """Affine-in-input plant dx/dt = drift(x) + input_matrix(x) u.

    drift and input_matrix take the plant state as a sequence of dim_x
    floats (a list, or a float array) and return a sequence of dim_x floats
    and dim_x rows of dim_u floats; lists will do.  The QP rows read them.

    closed_rate is the closed-loop rate: it takes a list z whose leading
    dim_x + dim_u floats are (x, u), ignores the rest, and returns
    f(x) + G(x) u as a list of dim_x floats.  vector_field and the flow of
    augment_sample_hold both call it, and it is the only rate either
    computes.  Without one, the plant composes drift and input_matrix in
    Python floats, entry i as f_i + G_i1 u_1 + ... + G_im u_m from left to
    right.  Where each row of G has at most one nonzero entry (a diagonal
    G, as in the Moore-Greitzer study), this gives the bits of numpy's
    drift(x) + input_matrix(x) @ u.  For a dense G the two can differ in
    the last bit, since numpy adds f to the finished product G u, summed as
    BLAS sums it: with f, G and u drawn standard normal, 2x2, they differed
    in 113,009 of 200,000 draws (numpy 2.4 with OpenBLAS 0.3.31).  A plant
    that writes its own closed_rate (the Moore-Greitzer study does) saves
    the composition's calls on every flow evaluation; it must give the
    composition's bits.

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
    closed_rate: object = None

    def __post_init__(self):
        if self.input_box.lo.size != self.dim_u:
            raise ValueError("input_box dimension != dim_u")
        if (self.operating_box is not None
                and self.operating_box.lo.size != self.dim_x):
            raise ValueError("operating_box dimension != dim_x")
        # kept apart from the field, so that dataclasses.replace with new
        # maps composes those maps, not the ones this plant was built with
        self._closed_rate = self.closed_rate or _composed_rate(
            self.drift, self.input_matrix, self.dim_x, self.dim_u)

    def vector_field(self, x, u):
        xs, us = as_vector(x).tolist(), as_vector(u).tolist()
        if len(xs) != self.dim_x or len(us) != self.dim_u:
            raise DimensionMismatch(
                "x and u have %d and %d entries, wanted %d and %d"
                % (len(xs), len(us), self.dim_x, self.dim_u))
        fx = np.array(self._closed_rate(xs + us), dtype=float)
        if fx.shape != (self.dim_x,):
            raise DimensionMismatch(
                "closed rate returned shape %s, wanted (%d,)"
                % (fx.shape, self.dim_x))
        return fx

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
        n = self.q.size
        if (self.Q.shape != (n, n) or self.lb.shape != (n,)
                or self.ub.shape != (n,)
                or any(a.shape != (n,) for a, _ in self.rows)):
            raise ValueError("Q, lb, ub and the rows must match q's size")
        if np.any(np.linalg.eigvalsh(self.Q) <= 0.0):
            raise ValueError("cost matrix must be positive definite")
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

    def feasible(self, u, slack=FEASIBLE_SLACK):
        with np.errstate(invalid="ignore"):  # 0 * inf fails its row
            return all(float(a @ u) <= b + slack for a, b in self.all_rows())


def solve_qp(qp: QPProblem):
    """Exact minimizer by active-set enumeration; None if infeasible.

    Every subset of at most dim_u constraints is made active in turn and the
    equality-constrained stationary point solved directly; the cheapest
    candidate satisfying all constraints is the global optimum (the polytope
    is compact once the box is finite, so the minimizer's active set has at
    most dim_u rows in general position).  A candidate is that point clipped
    to the box, and it counts only if it passes QPProblem.feasible.

    Before any enumeration, a box-bound certificate ends most infeasible
    QPs: when for some row a.u <= b (box faces included) the row's minimum
    over the values np.clip can return, sum_i a_i e_i with e_i the end of
    coordinate i that minimizes a_i e_i, exceeds b + FEASIBLE_SLACK by more
    than 1e-12 * (1 + |b| + sum_i |a_i e_i|), no candidate can pass, and
    None is returned at once.  That bound covers every rounding on the way
    (proof at the check), so the certificate fires only on QPs the
    enumeration finds infeasible too; on all others the enumeration runs
    as it did without it and returns the same bytes.
    """
    n = qp.q.size
    if n > 2:
        raise ValueError("active-set enumeration is limited to dim_u <= 2")
    rows = qp.all_rows()
    A_all = np.array([a for a, _ in rows]).reshape(len(rows), n)
    b_all = np.array([b for _, b in rows])
    # Box-bound certificate.  Every candidate is u = np.clip(s, lb, ub):
    # u_i lies in [lb_i, ub_i], is ub_i where lb_i > ub_i (clip returns the
    # upper bound there), or is NaN.  A NaN u_i makes a.u NaN, which fails
    # the row, and so does an infinite u_i where a_i = 0 (0 * inf is NaN).
    # So every u that passes the row has u_i in [lo_i, ub_i] (infinite ends
    # included), p_i = a_i u_i >= m_i = a_i e_i for each a_i != 0, and
    # p_i = +-0 for each a_i = 0, whose term is 0 here, never 0 * inf.
    # Rounding: a.u sums at most two products (n <= 2), so in any order, or
    # fused, fl(a.u) >= sum p_i - g sum |p_i| - eta with g = 2u/(1 - 2u),
    # u = 2^-53, and eta < 1e-300 for underflow.  As p_i >= m_i,
    # |p_i| <= (p_i - m_i) + |m_i|, so fl(a.u) >= sum m_i - g sum |m_i|
    # - eta.  The computed minimum `low` is at most sum m_i + g sum |m_i|
    # + eta.  Hence low > fl(b + slack) + margin, as computed, gives
    # fl(a.u) > fl(b + slack), which is what feasible tests, because the
    # margin 1e-12 * (1 + |b| + sum |m_i|) exceeds 2 g sum |m_i| + 2 eta
    # plus the rounding of the threshold (about u |b|) more than a
    # thousandfold.  An infinite end e_i gives low = -inf or NaN, and
    # overflow a margin of inf; NaN anywhere (a, b or a bound) makes low or
    # the threshold NaN.  None of these compares greater, so none certifies.
    lo = np.where(qp.lb > qp.ub, qp.ub, qp.lb)
    with np.errstate(invalid="ignore", over="ignore"):
        terms = np.where(A_all == 0.0, 0.0,
                         A_all * np.where(A_all > 0.0, lo, qp.ub))
        low = terms.sum(axis=1)
        margin = 1e-12 * (1.0 + np.abs(b_all) + np.abs(terms).sum(axis=1))
        if (low > b_all + FEASIBLE_SLACK + margin).any():
            return None
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
    return _rows(_lie_terms(x, V, B, plant), sigma, barrier_cap)


def _lie_terms(x, V, B, plant):
    """What the admissible rows at x take from the plant and the
    certificates, none of it depending on sigma: (L_gV, L_fV, V(x), L_gB,
    L_fB)."""
    x = as_vector(x)
    f0 = as_vector(plant.drift(x))
    G = np.asarray(plant.input_matrix(x), float)
    gv = V.gradient(x)
    gb = B.gradient(x)
    return gv @ G, float(gv @ f0), float(V(x)), gb @ G, float(gb @ f0)


def _rows(lie, sigma, barrier_cap):
    """The admissible rows (see admissible_constraints) at level sigma,
    from the _lie_terms of a state."""
    LgV, LfV, Vx, LgB, LfB = lie
    if barrier_cap is None:
        row_b = (-LgB, LfB - sigma)
    else:
        row_b = (LgB, float(barrier_cap) - LfB)
    return [
        (LgV, -sigma - LfV - Vx),
        row_b,
    ]


def _rate_box(plant, cfg, u_prev):
    """The input box cut to the inputs a rate limit lets u_prev reach in
    one period."""
    lb, ub = plant.input_box.lo.copy(), plant.input_box.hi.copy()
    rates = cfg.rate_limits or (None,) * plant.dim_u
    for i, rate in enumerate(rates):
        if rate is None:
            continue
        lb[i] = max(lb[i], u_prev[i] - rate * cfg.period)
        ub[i] = min(ub[i], u_prev[i] + rate * cfg.period)
    return lb, ub


def qp_policy(x, V, B, plant: ControlledPlant, cfg: SampleHoldConfig,
              u_prev, log_list=None, barrier_cap=None):
    """One sample-and-hold decision: minimize the plant's decision cost over
    the input box, cut by the rate limits over one cfg.period from u_prev,
    and the admissible rows.

    Relaxation ladder on infeasibility: halve sigma up to 8 times, then drop
    the V-row keeping the B-row at the most relaxed sigma, finally hold the
    rate-limited inputs and zero the rest.  A barrier_cap is passed through
    unrelaxed (halving it would tighten the growth bound, the opposite of a
    relaxation).  Every decision appends a log entry (level, sigma used,
    chosen u, margins of the unrelaxed rows).
    """
    x = as_vector(x)
    u_prev = as_vector(u_prev)
    lb, ub = _rate_box(plant, cfg, u_prev)
    Q, q, c = plant.cost_data(x)
    sigma0 = cfg.sigma_margin

    # the rows' sigma-free terms, once per decision; each level only
    # rebuilds the right-hand sides
    lie = _lie_terms(x, V, B, plant)
    for level in range(10):
        # level 0 unrelaxed, then 8 halvings; level 9 keeps the last sigma
        # and drops the V-row, keeping the B-row
        sigma = sigma0 / 2.0 ** min(level, 8)
        rows = _rows(lie, sigma, barrier_cap)
        if level == 0:
            rows0 = rows  # unrelaxed: the log reports their margins
        u_star = solve_qp(QPProblem(Q, q, c, rows[level // 9:], lb, ub))
        if u_star is not None:
            break
    else:
        rates = cfg.rate_limits or (None,) * plant.dim_u
        u_star = np.array(
            [u_prev[i] if rates[i] is not None else 0.0
             for i in range(plant.dim_u)]
        )
        u_star = np.minimum(np.maximum(u_star, lb), ub)
        level, sigma = 10, 0.0
        log.warning("QP infeasible at every ladder level; holding input")

    if log_list is not None:
        log_list.append(
            {
                "level": level,
                "sigma": sigma,
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
        return qp_policy(z[:nx], V, B, plant, cfg, z[nx:nx + nu],
                         log_list=log_list, barrier_cap=barrier_cap)

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

    closed_rate = plant._closed_rate
    held = [0.0] * nu + [1.0]  # u' = 0, tau' = 1

    def flow_map(zs):
        return closed_rate(zs) + held

    def jump_map(z):
        u = as_vector(policy(z))
        if u.shape != (nu,):
            # a scalar or a length-1 value would broadcast to every input
            raise DimensionMismatch(
                "policy returned shape %s, wanted (%d,)" % (u.shape, nu))
        out = np.array(z, dtype=float)
        out[nx:nx + nu] = u
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
