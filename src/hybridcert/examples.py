"""Built-in case studies: a bouncing ball and a Moore-Greitzer surge model.

Both come fully parameterized with their certificates (analytic gradients)
and behavioral specifications, ready for the simulator, the checkers and
the CLI.
"""

import math
from dataclasses import dataclass

import numpy as np

from .certificates import CertificatePair, ScalarField
from .controller import (
    ControlledPlant,
    SampleHoldConfig,
    augment_sample_hold,
    initial_augmented,
    make_sample_hold_policy,
)
from .expressions import expit
from .geometry import (
    AxisBox,
    Ball,
    Implicit,
    make_proper_indicator,
)
from .hybrid import HybridSystem
from .monitor import RASSpec
from .simulate import SimConfig, solve

# barrier sentinel inside the singular region {h <= 0}
B_SENTINEL = float("-inf")


class NoConvergence(RuntimeError):
    pass


class DomainViolation(ValueError):
    """Dynamics evaluated where they are undefined (negative pressure)."""


def _each(fn, t):
    """fn at each element of the 1-D float array t, as a float array.  The
    row forms of the ball's fields take math.atan, expit and a float64's
    ** 2 this way: np.arctan and np.exp differ from math.atan and math.exp
    in the last bit, and an array's ** 2 is a square where a float64's
    calls pow.

    fn runs once per distinct bit pattern in t (a grid's column holds a
    few dozen), on a numpy float64 as the element would give it, and its
    results are gathered back to every element.  Patterns, not values:
    0.0 and -0.0 stay apart, and so do NaNs with different payloads.
    """
    # sorted distinct patterns by hand: np.unique imports numpy.ma (a
    # megabyte) on its first call, or with return_inverse makes four
    # arrays as long as t, where the binary search below makes one
    bits = t.view(np.uint64)
    keys = np.sort(bits)
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    once = np.fromiter(map(fn, keys.view(np.float64)), dtype=float,
                       count=len(keys))
    return once[np.searchsorted(keys, bits)]


def _square(t):
    return t ** 2


# ---------------------------------------------------------------------------
# Bouncing ball (state x = (horizontal position, height y, velocity z))

@dataclass
class BouncingBallParams:
    a: float = 9.8            # downward acceleration
    restitution: float = 0.8  # impact velocity retention
    x0: tuple = (0.0, 9.0, 0.8)

    def __post_init__(self):
        if not 0.0 < self.restitution < 1.0:
            raise ValueError("restitution must lie in (0, 1)")
        if self.a <= 0.0:
            raise ValueError("a must be positive")


def bouncing_ball(params: BouncingBallParams = None):
    """Ball system, its (V, B) certificates and its reach-avoid-stay spec.

    The flow set is the closed half-space {y >= 0}; impacts live on
    {y <= 1e-9, z < 0} and rely on jump priority, which realizes the
    usual open-condition phrasing with closed, event-detectable sets.  A
    snap-to-rest map resolves the Zeno accumulation.
    """
    p = params or BouncingBallParams()
    a, lam = p.a, p.restitution
    inf = np.inf
    impact_tol = 1e-9

    flow_set = AxisBox([-inf, 0.0, -inf], [inf, inf, inf])

    def jump_pred(s):
        return s[1] <= impact_tol and s[2] < 0.0

    def jump_pred_rows(S):
        # exact comparisons, False at NaN, as in the one-point form
        return (S[:, 1] <= impact_tol) & (S[:, 2] < 0.0)

    def jump_sdf(s):
        # distance to the closure {y <= impact_tol, z <= 0}
        dy = max(0.0, s[1] - impact_tol)
        dz = max(0.0, s[2])
        return math.hypot(dy, dz)

    # the jump set's array forms test the rows by the predicate's row form
    # wherever the sdf cannot change the answer
    jump_pred.rows = jump_pred_rows
    jump_set = Implicit(
        jump_pred,
        AxisBox([-50.0, -1.0, -20.0], [50.0, impact_tol, 0.0]),
        sdf=jump_sdf,
    )

    def flow_map(s):
        _, y, z = s
        if y <= impact_tol and abs(z) <= impact_tol:
            # at rest on the floor: only horizontal drift remains, otherwise
            # gravity would push y negative and re-trigger impacts forever
            return [1.0, 0.0, 0.0]
        return [1.0, z, -a]

    def jump_map(s):
        return [np.array([s[0], 0.0, -lam * s[2]])]

    def flow_rows(S):
        rest = (S[:, 1] <= impact_tol) & (np.abs(S[:, 2]) <= impact_tol)
        out = np.empty_like(S)
        out[:, 0] = 1.0
        out[:, 1] = np.where(rest, 0.0, S[:, 2])
        out[:, 2] = np.where(rest, 0.0, -a)
        return out

    def zeno_map(s):
        return np.array([s[0], 0.0, 0.0])

    system = HybridSystem(
        dim=3,
        flow_set=flow_set,
        flow_map=flow_map,
        jump_set=jump_set,
        jump_map=jump_map,
        bounds=AxisBox([-10.0, -1.0, -20.0], [60.0, 15.0, 20.0]),
        zeno_map=zeno_map,
        flow_map_rows=flow_rows,
    )

    c_lam = (1.0 - lam**2) / (math.pi * (1.0 + lam**2))

    def V(S):
        z = S[:, 2]
        return ((1.0 + c_lam * _each(math.atan, z))
                * (0.5 * _each(_square, z) + a * S[:, 1]))

    def V_grad(S):
        z = S[:, 2]
        sq = _each(_square, z)
        energy = 0.5 * sq + a * S[:, 1]
        weight = 1.0 + c_lam * _each(math.atan, z)
        return np.stack([np.zeros(len(S)), a * weight,
                         c_lam * energy / (1.0 + sq) + weight * z], axis=1)

    def B(S):
        z = S[:, 2]
        return (0.5 * _each(expit, 5.0 * S[:, 0]) - S[:, 1]
                - _each(_square, z) / (2.0 * a) + 9.5)

    def B_grad(S):
        sig = _each(expit, 5.0 * S[:, 0])
        return np.stack([2.5 * sig * (1.0 - sig), np.full(len(S), -1.0),
                         -S[:, 2] / a], axis=1)

    region_O = AxisBox([-inf, -inf, -inf], [inf, 10.0, inf])  # {y < 10}
    cert = CertificatePair(
        V=ScalarField(V, V_grad),
        B=ScalarField(B, B_grad),
        omega=make_proper_indicator(ball_attractor(), region_O),
        region=region_O,
    )

    unsafe = AxisBox([-10.0, 10.0 + 1e-9, -15.0], [60.0, 15.0, 15.0])
    target = AxisBox([-inf, 0.0, -inf], [inf, 0.1, inf])
    spec = RASSpec(x0=[np.array(p.x0, dtype=float)], unsafe=unsafe,
                   target=target, t_spec=30.0)
    return system, cert, spec


def ball_attractor():
    """{y = 0, z = 0}, the rest set of the ball."""
    inf = np.inf
    return AxisBox([-inf, 0.0, 0.0], [inf, 0.0, 0.0])


def ball_operating_box():
    """Grid box covering the reachable tube from the default start."""
    return AxisBox([-1.0, 0.0, -14.0], [21.0, 10.0, 14.0])


def first_impact_time(params: BouncingBallParams = None):
    """Closed-form ballistic root of y(t) = y0 + z0 t - a t^2 / 2."""
    p = params or BouncingBallParams()
    _, y0, z0 = p.x0
    return (z0 + math.sqrt(z0**2 + 2.0 * p.a * y0)) / p.a


# ---------------------------------------------------------------------------
# Moore-Greitzer axial compressor (state x = (mass flow, pressure rise))

@dataclass
class MooreGreitzerParams:
    l_c: float = 8.0
    iota: float = 0.18
    theta: float = 0.25
    a_coef: float = None          # defaults to 1.67 * iota = 0.3006
    zeta: tuple = (0.4519, 0.6513)
    protect_center: tuple = (0.500, 0.653)
    protect_radius: float = 0.003
    unsafe_lo: tuple = (0.497, 0.650)
    unsafe_hi: tuple = (0.503, 0.656)
    sigma: float = 0.07
    barrier_rate_cap: float = 4.0
    period: float = 0.5
    gamma0: float = 0.64
    gamma_box: tuple = (0.5, 1.0)
    gamma_rate: float = 0.01
    v_max: float = 0.05
    box_lo: tuple = (0.2, 0.2)
    box_hi: tuple = (0.9, 1.2)
    t_spec: float = 100.0

    def __post_init__(self):
        if self.a_coef is None:
            self.a_coef = 1.67 * self.iota
        if min(self.l_c, self.iota, self.theta, self.a_coef) <= 0.0:
            raise ValueError("model constants must be positive")
        if self.box_lo[1] <= 0.0:
            raise ValueError("operating box must keep pressure positive")


def psi_c(phi, params: MooreGreitzerParams = None):
    """Cubic compressor characteristic."""
    p = params or MooreGreitzerParams()
    w = phi / p.theta - 1.0
    return p.a_coef + p.iota * (1.0 + 1.5 * w - 0.5 * w**3)


def _psi_c_deriv(phi, p):
    w = phi / p.theta - 1.0
    return p.iota * (1.5 - 1.5 * w**2) / p.theta


def moore_greitzer(params: MooreGreitzerParams = None):
    """Plant, certificates, spec and sample-hold config of the surge model.

    Dynamics follow the equation of motion
        d/dt (Phi, Psi) = ((psi_c(Phi) - Psi) / l_c, Phi / (16 l_c))
                          + (v, -gamma sqrt(Psi) / (16 l_c)),
    i.e. the 1/(16 l_c) factor multiplies the throttle term; the affine
    split g(x) = [[1, 0], [0, -sqrt(Psi)]] sometimes quoted for this model
    is notation only and does not carry the factor.
    """
    p = params or MooreGreitzerParams()
    lc = p.l_c
    scale = 16.0 * lc

    # the plant maps read the state as floats and return lists; the QP rows
    # read drift and input_matrix
    def drift(x):
        phi, psi = float(x[0]), float(x[1])
        if psi < 0.0:
            raise DomainViolation("negative pressure %g" % psi)
        return [(psi_c(phi, p) - psi) / lc, phi / scale]

    def input_matrix(x):
        psi = float(x[1])
        if psi < 0.0:
            raise DomainViolation("negative pressure %g" % psi)
        return [[1.0, 0.0], [0.0, -math.sqrt(psi) / scale]]

    a_coef, iota, theta = p.a_coef, p.iota, p.theta

    def closed_rate(z):
        # drift(x) + input_matrix(x) u in one call, for the flow: the IEEE
        # operations of the plant's composition in the same order, so the
        # same bits and the same exceptions.  The products by G's constant
        # 1.0 and 0.0 stay: without 0.0 * gamma, -0.0 + 0.0 * gamma would
        # be -0.0 rather than 0.0, and an infinite gamma no NaN.
        phi, psi, v, gamma = z[0], z[1], z[2], z[3]
        if psi < 0.0:
            raise DomainViolation("negative pressure %g" % psi)
        w = phi / theta - 1.0
        pc = a_coef + iota * (1.0 + 1.5 * w - 0.5 * w**3)
        g = -math.sqrt(psi) / scale
        return [(pc - psi) / lc + 1.0 * v + 0.0 * gamma,
                phi / scale + 0.0 * v + g * gamma]

    def decision_cost(x):
        # v^2 + (2v/l_c)(psi_c - Psi) + ((Phi - gamma sqrt(Psi))/(4 l_c))^2:
        # the squared state velocity Phidot^2 + 16 Psidot^2 up to a constant,
        # so the unconstrained minimizer parks the state.  A gamma^2 effort
        # term would instead drag gamma to its floor and push Psi off target.
        phi, psi = float(x[0]), float(x[1])
        pc = psi_c(phi, p)
        sq = math.sqrt(psi)
        denom = 16.0 * lc * lc
        Q = np.array([[1.0, 0.0], [0.0, psi / denom]])
        q = np.array([2.0 * (pc - psi) / lc, -2.0 * phi * sq / denom])
        c = phi * phi / denom
        return Q, q, c

    plant = ControlledPlant(
        dim_x=2,
        dim_u=2,
        drift=drift,
        input_matrix=input_matrix,
        input_box=AxisBox([-p.v_max, p.gamma_box[0]], [p.v_max, p.gamma_box[1]]),
        operating_box=AxisBox(p.box_lo, p.box_hi),
        decision_cost=decision_cost,
        closed_rate=closed_rate,
    )

    zeta = np.array(p.zeta)
    center = np.array(p.protect_center)
    r = p.protect_radius

    def V(X):
        D = X - zeta
        return np.vecdot(D, D)

    def V_grad(X):
        return 2.0 * (X - zeta)

    def faces(X):
        # X - center, its two distances d0 and d1, and h = max(d0, d1) - r,
        # where max keeps d0 unless d1 is larger
        D = X - center
        d0, d1 = np.abs(D[:, 0]), np.abs(D[:, 1])
        return D, d0, d1, np.where(d1 > d0, d1, d0) - r

    def B(X):
        h = faces(X)[3]
        out = np.full(len(X), B_SENTINEL)
        live = ~(h <= 0.0)
        # math.log, whose last bit np.log does not always give; h mixes
        # both coordinates, so its values are distinct per point, and
        # _each's sort would find nothing to share
        out[live] = np.fromiter(
            (math.log1p(t) - math.log(t) for t in h[live]), dtype=float)
        return out

    def B_grad(X):
        D, d0, d1, h = faces(X)
        if np.any(h <= 0.0):
            raise DomainViolation("barrier gradient inside the singular box")
        # along the axis of the larger distance, which sets h; axis 0 on
        # the face switch d0 == d1
        rows, i = np.arange(len(X)), np.where(d0 >= d1, 0, 1)
        G = np.zeros(X.shape)
        G[rows, i] = np.copysign(1.0, D[rows, i])
        return -G / (h * (1.0 + h))[:, None]

    def B_domain(X):
        # keep FD stencils off the singular locus and the face switch
        _, d0, d1, h = faces(X)
        return (h >= 0.01) & (np.abs(d0 - d1) >= 0.01)

    region_O = AxisBox(p.box_lo, p.box_hi)
    cert = CertificatePair(
        V=ScalarField(V, V_grad),
        B=ScalarField(B, B_grad, domain=B_domain),
        omega=make_proper_indicator(Ball(zeta, 1e-6), region_O),
        region=region_O,
    )

    unsafe = AxisBox(p.unsafe_lo, p.unsafe_hi)
    spec = RASSpec(
        x0=[mg_equilibrium(p.gamma0, p)],
        unsafe=unsafe,
        target=Ball(zeta, r),
        t_spec=p.t_spec,
    )
    shc = SampleHoldConfig(
        period=p.period,
        sigma_margin=p.sigma,
        rate_limits=(None, p.gamma_rate),
    )
    return plant, cert, spec, shc


def mg_equilibrium(gamma, params: MooreGreitzerParams = None):
    """Solve psi_c(Phi) = Psi, Phi = gamma sqrt(Psi) by damped Newton."""
    p = params or MooreGreitzerParams()
    if not p.gamma_box[0] <= gamma <= p.gamma_box[1]:
        raise ValueError("gamma outside its admissible box")
    phi = p.theta
    psi = psi_c(phi, p)

    def residual(phi, psi):
        return np.array([psi_c(phi, p) - psi, phi - gamma * math.sqrt(psi)])

    res = residual(phi, psi)
    for _ in range(100):
        if float(np.max(np.abs(res))) <= 1e-12:
            return np.array([phi, psi])
        J = np.array(
            [
                [_psi_c_deriv(phi, p), -1.0],
                [1.0, -gamma / (2.0 * math.sqrt(psi))],
            ]
        )
        step = np.linalg.solve(J, -res)
        damping = 1.0
        while damping > 1e-6:
            cand_phi = phi + damping * step[0]
            cand_psi = psi + damping * step[1]
            if cand_psi > 0.0:
                cand_res = residual(cand_phi, cand_psi)
                if np.max(np.abs(cand_res)) < np.max(np.abs(res)):
                    phi, psi, res = cand_phi, cand_psi, cand_res
                    break
            damping /= 2.0
        else:
            raise NoConvergence("Newton stalled at residual %g" % np.max(np.abs(res)))
    raise NoConvergence("no equilibrium after 100 iterations")


def mg_closed_loop(params: MooreGreitzerParams = None, horizon=100.0,
                   h=1e-3):
    """Assemble and run the sample-and-hold loop from the equilibrium.

    Returns (solve report, decision log, augmented system, plant, cert).
    The held input starts at (0, params.gamma0) and the timer at the
    period, so the first QP decision lands at t = 0.  Jumps are capped at
    50 more than the horizon's sampling instants.
    """
    p = params or MooreGreitzerParams()
    gamma0 = p.gamma0
    plant, cert, spec, shc = moore_greitzer(p)
    decisions = []
    # B diverges on the protected box, so the barrier row is used as a
    # growth bound: B stays finite over the horizon, hence the box is never
    # entered.  The cap clears the worst nominal rate v_max/h(x_eq) ~ 3, so
    # the brake binds only within ~1e-3 of the box and leaves the descent
    # toward zeta free; demanding B to keep rising instead would pin the
    # state on the far side of the box once it has to move away.
    policy = make_sample_hold_policy(plant, cert.V, cert.B, shc, decisions,
                                     barrier_cap=p.barrier_rate_cap)
    system = augment_sample_hold(plant, policy, shc)
    x_eq = mg_equilibrium(gamma0, p)
    z0 = initial_augmented(x_eq, [0.0, gamma0], shc)
    j_max = int(horizon / shc.period) + 50
    cfg = SimConfig(h=h, T_max=horizon, J_max=j_max)
    report = solve(system, z0, cfg)
    return report, decisions, system, plant, cert
