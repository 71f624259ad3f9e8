"""Certificate fields, grid checks, falsification, arc decrement."""

import collections
import dataclasses
import math

import numpy as np
import pytest

from hybridcert import (
    AxisBox,
    Ball,
    CertificatePair,
    EmptySet,
    GridSpec,
    MissingBarrier,
    MissingIndicator,
    ScalarField,
    SimConfig,
    StabSafeSpec,
    Verdict,
    ball_attractor,
    ball_operating_box,
    bouncing_ball,
    check_pair_VB,
    check_single_V,
    condition_margin_fn,
    decrement_along_arc,
    falsify,
    grad_check,
    make_proper_indicator,
    make_system,
    perturb,
    solve,
)
from hybridcert.certificates import _pair_jump

BALL_B_AT_START = 0.7173469387755102


def quadratic_V():
    return ScalarField(lambda x: float(np.dot(x, x)),
                       lambda x: 2.0 * np.asarray(x), name="V")


def flow_only(rate):
    sys1 = make_system(
        1, AxisBox([-2.0], [2.0]), lambda x: np.array([rate * x[0]]),
        EmptySet(), lambda x: [], AxisBox([-5.0], [5.0]),
    )
    return perturb(sys1, 0.0)


def indicator_1d():
    return make_proper_indicator(Ball([0.0], 0.0), AxisBox([-2.0], [2.0]))


def test_fd_gradient_fallback():
    f = ScalarField(lambda x: float(x[0] ** 2))
    assert f.gradient([1.5])[0] == pytest.approx(3.0, abs=1e-9)


def test_grad_check_quadratic():
    probes = [np.array([x, y]) for x in (-1.0, 0.3, 2.0) for y in (-0.7, 1.1)]
    assert grad_check(quadratic_V(), probes) <= 1e-9


def test_grad_check_constant_field_is_exact():
    f = ScalarField(lambda x: 2.5, lambda x: np.zeros(len(x)))
    assert grad_check(f, [np.array([0.1, -0.4])]) == 0.0


def test_grad_check_ball_certificates():
    _, cert, _ = bouncing_ball()
    box = ball_operating_box()
    probes = GridSpec(box.lo, box.hi, (3, 5, 5)).points()
    assert grad_check(cert.V, probes) <= 1e-6
    assert grad_check(cert.B, probes) <= 1e-6


def test_grad_check_requires_analytic_gradient():
    with pytest.raises(ValueError):
        grad_check(ScalarField(lambda x: float(x[0])), [np.zeros(1)])


def test_grad_check_requires_admissible_probe():
    f = ScalarField(lambda x: float(x[0]), lambda x: np.ones(1),
                    domain=lambda x: False)
    with pytest.raises(ValueError):
        grad_check(f, [np.zeros(1)])


def test_single_v_flow_decrease_passes():
    cert = CertificatePair(V=quadratic_V(), omega=indicator_1d())
    rep = check_single_V(flow_only(-1.0), cert, GridSpec([-1.0], [1.0], 21))
    assert rep.verdict == Verdict.PASS
    assert rep.stats["worst_flow_margin"] <= 0.0
    assert rep.stats["jump_points"] == 0


def test_single_v_slow_decay_fails_with_exact_margin():
    # dV.f + V = x^2/2 for xdot = -x/4, worst at the grid edge
    cert = CertificatePair(V=quadratic_V(), omega=indicator_1d())
    rep = check_single_V(flow_only(-0.25), cert, GridSpec([-1.0], [1.0], 21))
    assert rep.verdict == Verdict.FAIL
    assert rep.stats["worst_flow_margin"] == pytest.approx(0.5, abs=1e-12)
    for ce in rep.counterexamples:
        assert ce.condition == "flow-decrease"
        assert ce.margin == pytest.approx(ce.point[0] ** 2 / 2.0, abs=1e-12)


def test_single_v_pure_jump_contraction():
    sys1 = make_system(
        1, EmptySet(), lambda x: np.zeros(1),
        AxisBox([-2.0], [2.0]), lambda x: [np.asarray(x) / 2.0],
        AxisBox([-5.0], [5.0]),
    )
    cert = CertificatePair(V=quadratic_V(), omega=indicator_1d())
    rep = check_single_V(perturb(sys1, 0.0), cert, GridSpec([-1.0], [1.0], 21))
    assert rep.verdict == Verdict.PASS
    assert rep.stats["flow_points"] == 0
    assert rep.stats["worst_flow_margin"] is None
    assert rep.stats["worst_jump_margin"] <= 0.0


def test_single_v_requires_indicator():
    cert = CertificatePair(V=quadratic_V())
    with pytest.raises(MissingIndicator):
        check_single_V(flow_only(-1.0), cert, GridSpec([-1.0], [1.0], 3))


def test_pair_check_ball_certificates():
    system, cert, spec = bouncing_ball()
    ss = StabSafeSpec(x0=spec.x0, unsafe=spec.unsafe, attractor=ball_attractor())
    box = ball_operating_box()
    rep = check_pair_VB(perturb(system, 0.0), cert, ss,
                        GridSpec(box.lo, box.hi, (3, 9, 9)))
    assert rep.verdict == Verdict.PASS
    w = rep.stats["worst_margins"]
    # X0 sits inside {B >= 0} with the barrier's value at the drop point
    assert w["ii-X0-in-S"] == pytest.approx(-BALL_B_AT_START, abs=1e-12)
    assert w["iii-unsafe-negative"] < 0.0
    assert rep.stats["fitted_c"] > 0.0


def test_pair_check_requires_barrier():
    system, cert, spec = bouncing_ball()
    ss = StabSafeSpec(x0=spec.x0, unsafe=spec.unsafe, attractor=ball_attractor())
    bare = CertificatePair(V=cert.V, omega=cert.omega, region=cert.region)
    with pytest.raises(MissingBarrier):
        check_pair_VB(perturb(system, 0.0), bare, ss, GridSpec([0.0], [1.0], 3))


def ball_condition_layer(delta, condition, grid):
    """Perturbed ball, its pair report over grid, the named falsify
    condition's margin function, and the points where that applies among
    the pair check's grid points: grid and, for (iii), the grid over U's
    bounding box."""
    system, cert, spec = bouncing_ball()
    sys_delta = perturb(system, delta)
    ss = StabSafeSpec(x0=spec.x0, unsafe=spec.unsafe, attractor=ball_attractor())
    rep = check_pair_VB(sys_delta, cert, ss, grid)
    margin = condition_margin_fn(sys_delta, cert, condition, spec=ss)
    ubox = ss.unsafe.bounding_box()
    probes = np.concatenate(
        [grid.points(), GridSpec(ubox.lo, ubox.hi, grid.counts).points()]
    )
    points = [p for p in probes if margin(p) is not None]
    return sys_delta, cert, rep, margin, points


def ball_jump_layer(delta):
    """ball_condition_layer for barrier-jump over jump points on y = 0
    through x = 0, where grad B is steepest in x."""
    grid = GridSpec([-1.0, 0.0, -1.0], [1.0, 0.0, 0.0], (3, 1, 5))
    return ball_condition_layer(delta, "barrier-jump", grid)


def test_pair_check_evaluates_V_once_per_jump_point():
    system, cert, spec = bouncing_ball()
    calls = collections.Counter()

    def value(x):
        calls[tuple(x)] += 1
        return cert.V.value(x)

    counting = dataclasses.replace(
        cert, V=dataclasses.replace(cert.V, value=value)
    )
    ss = StabSafeSpec(x0=spec.x0, unsafe=spec.unsafe, attractor=ball_attractor())
    grid = GridSpec([-1.0, 0.0, -1.0], [1.0, 0.0, 0.0], (3, 1, 5))
    rep = check_pair_VB(perturb(system, 0.0), counting, ss, grid)
    n_jump = rep.stats["counts"]["i-jump-decrease"]
    assert n_jump == 12
    # one call at each grid point, plus one at each jump image
    assert [calls[tuple(p)] for p in grid.points()] == [1] * 15
    assert sum(calls.values()) == 15 + n_jump


class CountingField:
    """A scalar field that counts value and gradient evaluations."""

    def __init__(self, field):
        self.field = field
        self.calls = 0
        self.gradients = 0

    def __call__(self, x):
        self.calls += 1
        return self.field(x)

    def gradient(self, x):
        self.gradients += 1
        return self.field.gradient(x)

    def admissible(self, x):
        return self.field.admissible(x)


@pytest.mark.parametrize("delta", [0.0, 0.05])
def test_barrier_jump_margin_evaluates_no_V(delta):
    sys_delta, cert, _, _, points = ball_jump_layer(delta)
    V = CountingField(cert.V)
    margin = condition_margin_fn(sys_delta, dataclasses.replace(cert, V=V),
                                 "barrier-jump")
    # D inflated by delta reaches the grid's three z = 0 points
    assert len(points) == (15 if delta > 0.0 else 12)
    for p in points:
        full = _pair_jump(sys_delta, cert, p, cert.V(p), cert.B(p))[1]
        assert margin(p).hex() == full.hex()
    assert V.calls == 0
    # grad V still picks the disturbances tried at each jump image
    assert V.gradients == (len(points) if delta > 0.0 else 0)


def test_barrier_jump_tries_the_worst_disturbance():
    delta = 0.05
    sys_delta, cert, rep, margin, points = ball_jump_layer(delta)
    assert len(points) == 15
    B = cert.B
    for p in points:
        (g,) = sys_delta.jump_candidates(p)
        gb = B.gradient(g)
        along_grad_B = B(p) - B(g - delta * gb / np.linalg.norm(gb))
        assert margin(p) >= along_grad_B
    # at (0, 0, 0) the barrier drops by delta |grad B| to first order
    worst = max(margin(p) for p in points)
    assert worst == pytest.approx(delta * math.hypot(1.0, 0.625), rel=1e-3)
    # the pair check and falsification score the same margin
    assert rep.stats["worst_margins"]["iv-barrier-jump"] == worst


def test_barrier_jump_undisturbed_margin_is_the_plain_drop():
    sys_delta, cert, rep, margin, points = ball_jump_layer(0.0)
    drops = []
    for p in points:
        (g,) = sys_delta.jump_candidates(p)
        drops.append(cert.B(p) - cert.B(g))
        assert margin(p) == drops[-1]
    assert rep.stats["worst_margins"]["iv-barrier-jump"] == max(drops)


@pytest.mark.parametrize("delta", [0.0, 0.05])
@pytest.mark.parametrize("condition, pair_id", [
    ("barrier-flow", "iv-barrier-flow"),
    ("barrier-jump", "iv-barrier-jump"),
    ("unsafe-negative", "iii-unsafe-negative"),
])
def test_falsify_conditions_score_the_pair_check_margins(delta, condition,
                                                         pair_id):
    # the ball's U = {y > 10} lies outside O = {y < 10}, so (iii) is scored
    # only on the grid over U's box, in the pair check and in falsify alike
    box = ball_operating_box()
    grid = GridSpec(box.lo, box.hi, (3, 5, 7))
    _, _, rep, margin, points = ball_condition_layer(delta, condition, grid)
    assert len(points) == rep.stats["counts"][pair_id]
    assert rep.stats["worst_margins"][pair_id] == max(margin(p) for p in points)


def test_condition_margin_fn_rejects_unknown_id():
    cert = CertificatePair(V=quadratic_V())
    with pytest.raises(ValueError):
        condition_margin_fn(flow_only(-1.0), cert, "no-such-condition")


def test_unsafe_condition_needs_spec():
    _, cert, _ = bouncing_ball()
    sys_delta = flow_only(-1.0)
    with pytest.raises(ValueError):
        condition_margin_fn(sys_delta, cert, "unsafe-negative")


def test_falsify_finds_slow_decay():
    cert = CertificatePair(V=quadratic_V())
    found = falsify(flow_only(-0.25), cert, "flow-decrease",
                    AxisBox([-1.0], [1.0]), budget=200, seed=3)
    assert found is not None
    p, margin = found
    assert margin == pytest.approx(p[0] ** 2 / 2.0, abs=1e-12)
    assert margin > 0.3  # descent pushes toward the box edge


def test_falsify_clean_system_returns_none():
    cert = CertificatePair(V=quadratic_V())
    assert falsify(flow_only(-1.0), cert, "flow-decrease",
                   AxisBox([-1.0], [1.0]), budget=200) is None


def test_falsify_tiny_budget():
    cert = CertificatePair(V=quadratic_V())
    assert falsify(flow_only(-1.0), cert, "flow-decrease",
                   AxisBox([-1.0], [1.0]), budget=1) is None
    with pytest.raises(ValueError):
        falsify(flow_only(-1.0), cert, "flow-decrease",
                AxisBox([-1.0], [1.0]), budget=0)


def test_decrement_along_contracting_arc():
    sys1 = make_system(
        1, AxisBox([-2.0], [2.0]), lambda x: np.array([-x[0]]),
        EmptySet(), lambda x: [], AxisBox([-5.0], [5.0]),
    )
    arc = solve(sys1, np.array([1.0]), SimConfig(h=0.05, T_max=4.0)).arc
    cert = CertificatePair(V=quadratic_V())
    series, ok = decrement_along_arc(cert, arc)
    assert ok
    assert series[0] == (0.0, 1.0)
    # e^{-2t} sits under the e^{-t/3} envelope with room to spare
    assert series[-1][1] < 1e-3


def test_decrement_flags_non_decreasing_arc():
    sys1 = make_system(
        1, AxisBox([-2.0], [2.0]), lambda x: np.zeros(1),
        EmptySet(), lambda x: [], AxisBox([-5.0], [5.0]),
    )
    arc = solve(sys1, np.array([1.0]), SimConfig(h=0.05, T_max=4.0)).arc
    _, ok = decrement_along_arc(CertificatePair(V=quadratic_V()), arc)
    assert not ok


def test_decrement_with_zero_start_value():
    sys1 = make_system(
        1, AxisBox([-2.0], [2.0]), lambda x: np.zeros(1),
        EmptySet(), lambda x: [], AxisBox([-5.0], [5.0]),
    )
    arc = solve(sys1, np.array([0.0]), SimConfig(h=0.05, T_max=1.0)).arc
    series, ok = decrement_along_arc(CertificatePair(V=quadratic_V()), arc)
    assert ok
    assert all(v == 0.0 for _, v in series)


def test_grid_spec_scalar_counts_broadcast():
    g = GridSpec([-1.0, -1.0], [1.0, 1.0], 3)
    assert g.counts == (3, 3)
    assert g.points().shape == (9, 2)


def test_grid_spec_rejects_bad_boxes():
    with pytest.raises(ValueError):
        GridSpec([1.0], [0.0], 3)
    with pytest.raises(ValueError):
        GridSpec([0.0], [1.0], 0)


def test_grid_spec_single_point_axis_has_zero_cell():
    g = GridSpec([0.0, -1.0], [0.0, 1.0], (1, 5))
    assert g.cell()[0] == 0.0
    assert g.cell()[1] == pytest.approx(0.5)


def test_grid_refinement_stays_inside_parent_box():
    g = GridSpec([-1.0], [1.0], 11)
    sub = g.refined_around(np.array([1.0]), level=1)
    assert sub.lo[0] >= -1.0 and sub.hi[0] <= 1.0


def test_refinement_never_flips_fail_to_pass():
    cert = CertificatePair(V=quadratic_V(), omega=indicator_1d())
    coarse = check_single_V(flow_only(-0.25), cert, GridSpec([-1.0], [1.0], 21))
    refined = check_single_V(
        flow_only(-0.25), cert,
        GridSpec([-1.0], [1.0], 21, refinement_depth=2),
    )
    assert coarse.verdict == refined.verdict == Verdict.FAIL
    assert len(refined.counterexamples) >= len(coarse.counterexamples)
