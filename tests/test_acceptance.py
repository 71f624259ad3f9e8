"""Ten end-to-end checks covering the shipped studies and solvers.

Each test prints one summary line; run with -v for a pass/fail line per
criterion.  Tolerances and runtime budgets are asserted where stated.
"""

import math
import time

import numpy as np
import pytest

from hybridcert import (
    AxisBox,
    CertificatePair,
    GridSpec,
    Implicit,
    Inflated,
    SimConfig,
    StabSafeSpec,
    Verdict,
    ball_attractor,
    ball_operating_box,
    bouncing_ball,
    check_pair_VB,
    check_single_V,
    construct_perturbed,
    contains,
    estimate_invariant_core,
    estimate_lipschitz,
    first_impact_time,
    grad_check,
    make_system,
    mg_closed_loop,
    moore_greitzer,
    perturb,
    solve,
    solve_qp,
    verify_solution,
)
from hybridcert.controller import QPProblem
from hybridcert.geometry import EmptySet
from field_reference import point_field
from kkt import kkt_residual


def test_c01_ball_reach_avoid_stay():
    t0 = time.perf_counter()
    system, _, spec = bouncing_ball()
    x0 = np.asarray(spec.x0[0])
    rep = solve(system, x0, SimConfig(h=2e-3, T_max=20.0, J_max=400))
    assert rep.termination.name == "HORIZON_REACHED"

    slack = 2e-9
    worst_y = -np.inf
    last_exit = None
    samples = list(rep.arc.samples())
    for k, (j, t, x) in enumerate(samples):
        worst_y = max(worst_y, x[1])
        if not -slack <= x[1] <= 0.1 + slack:
            last_exit = k
    assert worst_y < 10.0                  # never unsafe
    assert last_exit is not None           # starts outside the band
    assert last_exit < len(samples) - 1    # then enters and remains
    settle_total = samples[last_exit + 1][0] + samples[last_exit + 1][1]

    t1 = float(rep.arc.phases[1][0][0])
    root = first_impact_time()
    assert abs(t1 - root) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print("[C01] PASS settle at t+j=%.4f, first impact err %.2e, %.2fs"
          % (settle_total, abs(t1 - root), elapsed))


def test_c02_barrier_jump_identity():
    system, cert, _ = bouncing_ball()
    lam, a = 0.8, 9.8
    zs = np.linspace(-5.0, -0.01, 1000)
    worst = 0.0
    for z in zs:
        p = np.array([0.0, 0.0, z])
        g = system.jump_candidates(p)[0]
        gain = cert.B(g) - cert.B(p)
        worst = max(worst, abs(gain - (1.0 - lam**2) * z * z / (2.0 * a)))
    assert worst <= 1e-12
    print("[C02] PASS jump identity deviation %.2e over 1000 points" % worst)


def test_c03_barrier_flow_sign():
    system, cert, _ = bouncing_ball()
    box = ball_operating_box()
    axes = [np.linspace(box.lo[k], box.hi[k], 50) for k in range(3)]
    worst_dot = np.inf
    worst_cancel = 0.0
    for x in axes[0]:
        for y in axes[1]:
            for z in axes[2]:
                p = np.array([x, y, z])
                g = cert.B.gradient(p)
                f = system.flow(p)
                worst_dot = min(worst_dot, float(g @ f))
                worst_cancel = max(
                    worst_cancel, abs(g[1] * f[1] + g[2] * f[2])
                )
    assert worst_dot >= -1e-12
    assert worst_cancel <= 1e-12
    print("[C03] PASS min grad B . f = %.2e, height/speed cancellation %.2e"
          % (worst_dot, worst_cancel))


def test_c04_pair_check_ball():
    t0 = time.perf_counter()
    system, cert, spec = bouncing_ball()
    ss = StabSafeSpec(x0=spec.x0, unsafe=spec.unsafe,
                      attractor=ball_attractor())
    box = ball_operating_box()
    rep = check_pair_VB(perturb(system, 0.0), cert, ss,
                        GridSpec(box.lo, box.hi, 21),
                        tol=1e-7, exclude_radius=0.05)
    assert rep.verdict == Verdict.PASS
    w = rep.stats["worst_margins"]
    for cond in ("i-flow-decrease", "i-jump-decrease", "ii-X0-in-S",
                 "iii-unsafe-negative", "iv-barrier-flow", "iv-barrier-jump"):
        assert cond in w
    assert rep.stats["fitted_c"] > 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print("[C04] PASS fitted c %.4g, margins %s, %.2fs"
          % (rep.stats["fitted_c"],
             {k: float("%.3g" % v) for k, v in w.items()}, elapsed))


def test_c05_gradient_validation():
    rng = np.random.default_rng(0)
    _, ball_cert, _ = bouncing_ball()
    bb = ball_operating_box()
    ball_probes = rng.uniform(bb.lo, bb.hi, size=(1000, 3))

    plant, mg_cert, _, _ = moore_greitzer()
    mb = plant.operating_box
    mg_probes = rng.uniform(mb.lo, mb.hi, size=(1000, 2))

    errs = {
        "ball V": grad_check(ball_cert.V, ball_probes),
        "ball B": grad_check(ball_cert.B, ball_probes),
        "mg V": grad_check(mg_cert.V, mg_probes),
        "mg B": grad_check(mg_cert.B, mg_probes),
    }
    for name, err in errs.items():
        assert err <= 1e-6, name
    print("[C05] PASS gradient errors %s"
          % {k: float("%.2g" % v) for k, v in errs.items()})


def test_c06_qp_against_grid_search():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    lb, ub = -np.ones(2), np.ones(2)
    grid = np.linspace(-1.0, 1.0, 201)
    U1, U2 = np.meshgrid(grid, grid, indexing="ij")
    solved = 0
    worst_gap = -np.inf
    worst_kkt = 0.0
    while solved < 100:
        A = rng.normal(size=(2, 2))
        Q = A @ A.T + 0.5 * np.eye(2)
        q = rng.normal(size=2)
        c = float(rng.normal())
        rows = [(rng.normal(size=2), float(rng.normal()))
                for _ in range(int(rng.integers(0, 3)))]
        qp = QPProblem(Q, q, c, rows, lb, ub)
        u = solve_qp(qp)
        if u is None:
            continue
        solved += 1
        cost_grid = (
            Q[0, 0] * U1**2 + (Q[0, 1] + Q[1, 0]) * U1 * U2 + Q[1, 1] * U2**2
            + q[0] * U1 + q[1] * U2 + c
        )
        mask = np.ones_like(U1, dtype=bool)
        for a, b in rows:
            mask &= a[0] * U1 + a[1] * U2 <= b
        assert mask.any()
        best_grid = float(cost_grid[mask].min())
        worst_gap = max(worst_gap, qp.cost(u) - best_grid)
        worst_kkt = max(worst_kkt, kkt_residual(qp, u))
        assert qp.cost(u) <= best_grid + 1e-3
        assert kkt_residual(qp, u) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print("[C06] PASS 100 instances, worst gap %.2e, worst KKT %.2e, %.2fs"
          % (worst_gap, worst_kkt, elapsed))


def test_c07_compressor_closed_loop():
    t0 = time.perf_counter()
    _, _, spec, _ = moore_greitzer()
    report, decisions, _, plant, _ = mg_closed_loop(horizon=100.0, h=1e-3)
    zeta = np.array([0.4519, 0.6513])

    hits = sum(
        1 for _, _, x in report.arc.samples()
        if contains(spec.unsafe, x[:2], 0.0)
    )
    assert hits == 0

    final = report.arc.phases[-1][1][-1][:2]
    dist = float(np.linalg.norm(final - zeta))
    assert dist <= 0.01

    gammas = [0.64] + [float(d["u"][1]) for d in decisions]
    for d in decisions:
        assert -0.05 <= d["u"][0] <= 0.05
        assert 0.5 <= d["u"][1] <= 1.0
    worst_step = max(abs(b - a) for a, b in zip(gammas, gammas[1:]))
    assert worst_step <= 0.005 + 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print("[C07] PASS final dist %.4g, %d decisions, max gamma step %.4g, "
          "%.2fs" % (dist, len(decisions), worst_step, elapsed))


def test_c08_companion_construction():
    system, _, spec = bouncing_ball()
    x0 = np.asarray(spec.x0[0])
    arc = solve(system, x0, SimConfig(h=1e-3, T_max=3.0, J_max=5)).arc
    box = ball_operating_box()
    L_C = estimate_lipschitz(system.flow, box)
    L_D = estimate_lipschitz(lambda x: system.jump_candidates(x)[0], box)
    T = 2.0
    factor = max(1.0, 1.0 / T + L_C, 1.0 + L_D)

    def first_at_or_after(a, total):
        for j, t, x in a.samples():
            if t + j >= total:
                return j, t, x
        raise AssertionError("arc too short")

    direction = np.array([1.0, 1.0, -1.0]) / math.sqrt(3.0)
    for r in (1e-3, 1e-2):
        psi = construct_perturbed(arc, x0 + r * direction, T)
        ja, ta, xa = first_at_or_after(arc, T)
        jp, tp, xp = first_at_or_after(psi, T)
        assert (ja, ta) == (jp, tp)
        assert np.array_equal(xa, xp)  # exact rejoin at total time T
        delta = r * factor
        res = verify_solution(perturb(system, delta), psi)
        assert res.passed, "r=%g delta=%g" % (r, delta)
    print("[C08] PASS rejoin exact for r in {1e-3, 1e-2}; L_C=%.4f L_D=%.4f "
          "factor %.4f" % (L_C, L_D, factor))


def test_c09_invariant_core_peak_height():
    system, _, _ = bouncing_ball()
    a, lam = 9.8, 0.8

    def pred(s):
        return 0.0 <= s[1] <= 0.1 and abs(s[2]) <= 2.0

    def sdf(s):
        dy = max(0.0 - s[1], s[1] - 0.1, 0.0)
        dz = max(0.0, abs(s[2]) - 2.0)
        return math.hypot(dy, dz)

    I = Implicit(pred, AxisBox([0.0, 0.0, -2.0], [0.0, 0.1, 2.0]), sdf=sdf)
    cfg = SimConfig(h=2e-3, T_max=4.0, J_max=120)
    survivors = estimate_invariant_core(system, I, (1, 17, 17), 1, cfg)

    # ballistic peak-height oracle; a falling state bounces first and so
    # peaks at the restitution-discounted height
    def forward_peak(p):
        peak = p[1] + p[2] ** 2 / (2.0 * a)
        return peak if p[2] >= 0.0 else lam**2 * peak

    for p in survivors:
        assert forward_peak(p) <= 0.1 + 1e-3

    lo, hi = I.bounding_box().lo, I.bounding_box().hi
    axes = [np.linspace(lo[k], hi[k], n) for k, n in enumerate((1, 17, 17))]
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                    axis=-1)
    # one grid point (y=0, z=-1.75) grazes the band exactly: its bounce
    # peaks at 1.4^2/(2a) = 0.1, so the event tolerance keeps it; every
    # other point clears the threshold by at least 2.5e-4
    expected = sorted(tuple(p) for p in mesh if forward_peak(p) <= 0.1 + 1e-6)
    assert sorted(map(tuple, survivors)) == expected

    shell = Inflated(I, 2e-9)
    kept = 0
    for p in survivors:
        rep = solve(system, np.asarray(p),
                    SimConfig(h=2e-3, T_max=4.0, J_max=120))
        if all(contains(shell, x, 0.0) for _, _, x in rep.arc.samples()):
            kept += 1
    assert kept >= 0.99 * len(survivors)
    print("[C09] PASS %d survivors match the oracle set, %d/%d stay in the "
          "inflated band on re-simulation" % (len(survivors), kept,
                                              len(survivors)))


def test_c10_single_v_sanity():
    def flow_sys(rate):
        sys1 = make_system(
            1, AxisBox([-2.0], [2.0]), lambda x: np.array([rate * x[0]]),
            EmptySet(), lambda x: [], AxisBox([-5.0], [5.0]),
        )
        return perturb(sys1, 0.0)

    V = point_field(lambda x: float(x[0] ** 2),
                    lambda x: np.array([2.0 * x[0]]))
    cert = CertificatePair(V=V, omega=lambda x: abs(float(x[0])))
    grid = GridSpec([-1.0], [1.0], 21)

    good = check_single_V(flow_sys(-1.0), cert, grid)
    assert good.verdict == Verdict.PASS

    bad = check_single_V(flow_sys(-0.25), cert, grid)
    assert bad.verdict == Verdict.FAIL
    assert bad.counterexamples
    worst = max(bad.counterexamples, key=lambda ce: ce.margin)
    assert abs(worst.margin - worst.point[0] ** 2 / 2.0) <= 1e-9
    print("[C10] PASS contraction accepted; slowed system rejected with "
          "margin %.4g at x=%.3g" % (worst.margin, worst.point[0]))
