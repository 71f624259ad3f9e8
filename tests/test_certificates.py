"""Certificate fields, grid checks, falsification, arc decrement."""

import collections
import dataclasses
import functools
import json
import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import field_reference
import grid_reference
from field_reference import point_field
from test_cli import run_python

from hybridcert import (
    AxisBox,
    Ball,
    CertificatePair,
    EmptySet,
    GridSpec,
    HybridSystem,
    Implicit,
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
from hybridcert import certificates, cli, geometry
from hybridcert.expressions import scalar_fn

BALL_B_AT_START = 0.7173469387755102


def quadratic_V():
    return point_field(lambda x: float(np.dot(x, x)),
                       lambda x: 2.0 * np.asarray(x))


def flow_only(rate):
    sys1 = make_system(
        1, AxisBox([-2.0], [2.0]), lambda x: np.array([rate * x[0]]),
        EmptySet(), lambda x: [], AxisBox([-5.0], [5.0]),
    )
    return perturb(sys1, 0.0)


def indicator_1d():
    return make_proper_indicator(Ball([0.0], 0.0), AxisBox([-2.0], [2.0]))


def test_fd_gradient_fallback():
    f = point_field(lambda x: float(x[0] ** 2))
    assert f.gradient([1.5])[0] == pytest.approx(3.0, abs=1e-9)


def test_grad_check_quadratic():
    probes = [np.array([x, y]) for x in (-1.0, 0.3, 2.0) for y in (-0.7, 1.1)]
    assert grad_check(quadratic_V(), probes) <= 1e-9


def test_grad_check_constant_field_is_exact():
    f = point_field(lambda x: 2.5, lambda x: np.zeros(len(x)))
    assert grad_check(f, [np.array([0.1, -0.4])]) == 0.0


def test_grad_check_ball_certificates():
    _, cert, _ = bouncing_ball()
    box = ball_operating_box()
    probes = GridSpec(box.lo, box.hi, (3, 5, 5)).points()
    assert grad_check(cert.V, probes) <= 1e-6
    assert grad_check(cert.B, probes) <= 1e-6


def test_grad_check_reports_a_nan_gradient_as_the_worst():
    probes = [np.array([x]) for x in (-1.0, 0.5, 2.0)]
    f = point_field(lambda x: float(x[0] ** 2), lambda x: np.array([math.nan]))
    assert math.isnan(grad_check(f, probes))
    # NaN at one probe of several still wins
    g = point_field(lambda x: float(x[0] ** 2),
                    lambda x: np.array([math.nan if x[0] > 1.0 else 2.0 * x[0]]))
    assert math.isnan(grad_check(g, probes))


def test_grad_check_requires_analytic_gradient():
    with pytest.raises(ValueError):
        grad_check(point_field(lambda x: float(x[0])), [np.zeros(1)])


def test_grad_check_requires_admissible_probe():
    f = point_field(lambda x: float(x[0]), lambda x: np.ones(1),
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


@pytest.mark.parametrize("n", [25, 26, 47, 48, 49, 100, 1000, 35937])
def test_envelope_knots_are_strictly_increasing(n):
    # past 24 points the knots are a linspace with a step over 1, so their
    # integer parts never repeat: 24 distinct knots, no dedup needed
    w = np.arange(n, dtype=float)
    kw, lower, upper = certificates._fit_envelopes(w, np.sqrt(w))
    assert kw.size == lower.size == upper.size == 24
    assert np.all(np.diff(kw) > 0.0)
    assert (kw[0], kw[-1]) == (0.0, n - 1.0)


def test_pair_check_leaves_numpy_ma_unimported(tmp_path):
    # in a fresh process, so no other test has loaded it
    code, stdout, stderr = run_python(["-c", """if True:
        import sys
        from hybridcert import certificates, examples, hybrid, monitor
        system, cert, spec = examples.bouncing_ball()
        box = examples.ball_operating_box()
        rep = certificates.check_pair_VB(
            hybrid.perturb(system, 0.0), cert,
            monitor.StabSafeSpec(x0=spec.x0, unsafe=spec.unsafe,
                                 attractor=examples.ball_attractor()),
            certificates.GridSpec(box.lo, box.hi, 9))
        assert rep.stats["envelope"] is not None
        print("numpy.ma" in sys.modules)
        """], tmp_path)
    assert code == 0, stderr
    assert stdout.strip() == "False"


def test_pair_check_requires_barrier():
    system, cert, spec = bouncing_ball()
    ss = StabSafeSpec(x0=spec.x0, unsafe=spec.unsafe, attractor=ball_attractor())
    bare = CertificatePair(V=cert.V, omega=cert.omega, region=cert.region)
    with pytest.raises(MissingBarrier):
        check_pair_VB(perturb(system, 0.0), bare, ss, GridSpec([0.0], [1.0], 3))


def test_single_v_grid_outside_the_region_is_inconclusive():
    # the whole grid lies above y = 10, outside O = {y < 10}
    system, cert, _ = bouncing_ball()
    rep = check_single_V(perturb(system, 0.0), cert,
                         GridSpec([0.0, 11.0, 0.0], [1.0, 12.0, 1.0], 3))
    assert rep.verdict == Verdict.INCONCLUSIVE
    assert rep.counterexamples == []
    assert rep.stats["region_points"] == 0
    assert rep.stats["flow_points"] == rep.stats["jump_points"] == 0
    assert rep.stats["worst_flow_margin"] is None
    assert rep.stats["worst_jump_margin"] is None


def test_pair_check_without_a_tested_condition_is_inconclusive():
    # below the floor and rising: in O, but in neither C nor D, and with
    # no X0 and no U nothing else is tested; V < 0 there breaks the
    # sandwich, yet no evidence beats counterexamples
    system, cert, _ = bouncing_ball()
    ss = StabSafeSpec(x0=[], unsafe=EmptySet(), attractor=ball_attractor())
    rep = check_pair_VB(perturb(system, 0.0), cert, ss,
                        GridSpec([0.0, -0.9, 0.5], [1.0, -0.5, 1.0], 3))
    assert rep.verdict == Verdict.INCONCLUSIVE
    assert rep.stats["counts"] == {}
    assert rep.stats["worst_margins"] == {}
    assert rep.stats["fitted_c"] is None
    assert rep.counterexamples
    assert {ce.condition for ce in rep.counterexamples} <= {
        "sandwich-nonneg", "sandwich-upper", "sandwich-lower"}


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
    # counted row by row through the row form, which every value of V,
    # one-point calls included, goes through
    system, cert, spec = bouncing_ball()
    calls = collections.Counter()

    def value(X):
        calls.update(tuple(x) for x in X)
        return cert.V.value(X)

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


@pytest.mark.parametrize("lo_y, hi_y", [(0.0, 10.0), (-2.0, 12.0)],
                         ids=["operating-box", "past-C-and-O"])
def test_pair_check_asks_the_jump_predicate_where_the_sweep_did(lo_y, hi_y):
    # one call at each point in O, and at each point outside O that is
    # also outside C (where "in C or in D" reaches D); the operating box
    # lies in O, the wider box has rows below C and above O
    system, cert, spec = bouncing_ball()
    D = system.jump_set
    seen = []

    def pred(x):
        seen.append(tuple(x))
        return D.pred(x)

    counted = dataclasses.replace(
        system, jump_set=Implicit(pred, D.bbox, sdf=D.sdf))
    ss = StabSafeSpec(x0=spec.x0, unsafe=spec.unsafe, attractor=ball_attractor())
    grid = GridSpec([-1.0, lo_y, -14.0], [21.0, hi_y, 14.0], (3, 5, 7))
    check_pair_VB(perturb(counted, 0.0), cert, ss, grid)
    O, C = cert.region, system.flow_set
    want = [tuple(p) for p in grid.points()
            if O.contains(p, 0.0) or not C.contains(p, 0.0)]
    assert sorted(seen) == sorted(want)
    assert len(want) == (105 if hi_y <= 10.0 else 84)


def test_pair_check_makes_no_one_point_geometry_call(monkeypatch):
    # every membership and distance of the sweeps is an array pass; a
    # one-point call is a sweep that went back to testing point by point
    calls = collections.Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for module in (certificates, geometry):
        for name in ("contains", "dist_to_set"):
            monkeypatch.setattr(module, name,
                                counting(name, getattr(geometry, name)),
                                raising=False)
    for name in ("contains", "distance"):
        monkeypatch.setattr(AxisBox, name,
                            counting("AxisBox." + name, vars(AxisBox)[name]))
    system, cert, spec = bouncing_ball()
    ss = StabSafeSpec(x0=spec.x0, unsafe=spec.unsafe, attractor=ball_attractor())
    box = ball_operating_box()
    rep = check_pair_VB(perturb(system, 0.0), cert, ss,
                        GridSpec(box.lo, box.hi, (3, 5, 7)))
    assert rep.verdict == Verdict.PASS
    assert sum(rep.stats["counts"].values()) > 0
    assert calls == {}


class CountingField:
    """A scalar field that counts value and gradient evaluations, a row of
    a row form as one."""

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

    def value_many(self, X):
        self.calls += len(X)
        return self.field.value_many(X)

    def gradient_many(self, X):
        self.gradients += len(X)
        return self.field.gradient_many(X)

    def admissible_many(self, X):
        return self.field.admissible_many(X)


@pytest.mark.parametrize("delta", [0.0, 0.05])
def test_barrier_jump_margin_evaluates_no_V(delta):
    sys_delta, cert, _, _, points = ball_jump_layer(delta)
    V = CountingField(cert.V)
    margin = condition_margin_fn(sys_delta, dataclasses.replace(cert, V=V),
                                 "barrier-jump")
    # D inflated by delta reaches the grid's three z = 0 points
    assert len(points) == (15 if delta > 0.0 else 12)
    for p in points:
        full = grid_reference.pair_jump(sys_delta, cert, p, cert.V(p),
                                        cert.B(p))[1]
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


def test_falsify_draws_starts_from_a_band_that_no_probe_meets():
    # jumps double x on a slab of width 2e-6 that the LHS and grid probes
    # of [-1, 1] all miss; V(2x) - V(x)/e is positive there
    slab = Implicit(lambda x: abs(x[0] - 0.3) <= 1e-6,
                    AxisBox([0.3 - 1e-6], [0.3 + 1e-6]))
    sys1 = make_system(
        1, AxisBox([-2.0], [2.0]), lambda x: np.array([-x[0]]),
        slab, lambda x: [[2.0 * x[0]]], AxisBox([-5.0], [5.0]),
    )
    cert = CertificatePair(V=quadratic_V())
    found = falsify(perturb(sys1, 0.0), cert, "jump-decrease",
                    AxisBox([-1.0], [1.0]), budget=60, seed=0)
    assert found is not None
    p, margin = found
    assert abs(p[0] - 0.3) <= 1e-6
    assert margin == pytest.approx((4.0 - 1.0 / math.e) * p[0] ** 2)


def test_falsify_spends_its_budget_on_new_points(monkeypatch):
    # the ball's barrier-jump search at delta 0.05, budget 300, seed 5 used
    # to evaluate the margin 300 times at 249 distinct points and found
    # 0.058916615286292995; repeated probes cost no budget, so the same
    # search only goes further
    condition = certificates._condition
    probed = []

    def counted(*args, **kwargs):
        where, margin = condition(*args, **kwargs)
        return where, lambda p: probed.append(tuple(p)) or margin(p)

    monkeypatch.setattr(certificates, "_condition", counted)
    system, cert, _ = bouncing_ball()
    found = falsify(perturb(system, 0.05), cert, "barrier-jump",
                    AxisBox([-1.0, 0.0, -14.0], [21.0, 10.0, 14.0]),
                    budget=300, seed=5)
    assert len(probed) == 300
    assert len(set(probed)) == 300
    assert found[1] >= 0.058916615286292995


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


def test_decrement_fails_where_v_is_nan():
    sys1 = make_system(
        1, AxisBox([-2.0], [2.0]), lambda x: np.array([-x[0]]),
        EmptySet(), lambda x: [], AxisBox([-5.0], [5.0]),
    )
    arc = solve(sys1, np.array([1.0]), SimConfig(h=0.05, T_max=1.0)).arc
    _, ok = decrement_along_arc(CertificatePair(V=nan_everywhere()), arc)
    assert not ok


def test_grid_spec_scalar_counts_broadcast():
    g = GridSpec([-1.0, -1.0], [1.0, 1.0], 3)
    assert g.counts == (3, 3)
    assert g.points().shape == (9, 2)
    assert GridSpec([-1.0, -1.0], [1.0, 1.0], 3.0).counts == (3, 3)


def test_grid_spec_rejects_bad_boxes():
    with pytest.raises(ValueError):
        GridSpec([1.0], [0.0], 3)
    with pytest.raises(ValueError):
        GridSpec([0.0], [1.0], 0)


@pytest.mark.parametrize("counts", [4.9, (3, 2.5), -1.0, "4"])
def test_grid_spec_rejects_counts_that_are_not_whole_numbers(counts):
    with pytest.raises(ValueError, match="whole number >= 1"):
        GridSpec([0.0, 0.0], [1.0, 1.0], counts)


@pytest.mark.parametrize("lo, hi", [
    ([0.0, 0.0, 0.0], [1.0]),
    ([0.0], [1.0, 1.0]),
])
def test_grid_spec_rejects_lo_and_hi_of_different_lengths(lo, hi):
    msg = "grid lo has %d entries and hi has %d" % (len(lo), len(hi))
    with pytest.raises(ValueError, match=msg):
        GridSpec(lo, hi, 3)


@pytest.mark.parametrize("lo, hi, axis", [
    ([-1e308, -1.0, -1e308], [1e308, 12.0, 1e308], 0),  # hi - lo overflows
    ([0.0, 0.0], [1.0, math.inf], 1),
    ([0.0, -math.inf], [1.0, 1.0], 1),
    ([math.nan, 0.0], [1.0, 1.0], 0),
    ([0.0, 0.0, 0.0], [1.0, 1.0, math.nan], 2),
])
def test_grid_spec_rejects_axes_without_a_finite_span(lo, hi, axis):
    with pytest.raises(ValueError, match="grid axis %d:" % axis):
        GridSpec(lo, hi, 5)


# ---------------------------------------------------------------------------
# The array checks against the per-point reference (tests/grid_reference.py)

def ball_pair_case(delta, grid, cert=None):
    system, ball_cert, spec = bouncing_ball()
    ss = StabSafeSpec(x0=spec.x0, unsafe=spec.unsafe,
                      attractor=ball_attractor())
    return perturb(system, delta), cert or ball_cert, ss, grid


def same_reports(got, want):
    """The two reports as JSON strings, key order included; a mismatch
    shows where it starts (a diff of the long lines takes too long)."""
    got, want = (json.dumps(r.to_json_obj()) for r in (got, want))
    if got != want:
        at = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        pytest.fail("reports differ at character %d: %r != %r"
                    % (at, got[at - 60:at + 60], want[at - 60:at + 60]))


def failing_ball_certificate():
    """-V and -B: V grows and is negative, B is positive on U and falls
    along flows, so several conditions fail at the same grid points."""
    _, cert, _ = bouncing_ball()
    V, B = cert.V, cert.B
    return dataclasses.replace(
        cert,
        V=point_field(lambda s: -V(s), lambda s: -V.gradient(s)),
        B=point_field(lambda s: -B(s), lambda s: -B.gradient(s)),
    )


def partly_nan_ball_certificate():
    """V NaN above y = 5 and B NaN where z > 0, both finite elsewhere, so
    NaN and finite margins meet in the running extremes."""
    _, cert, _ = bouncing_ball()

    def cut(f, nan_at):
        return point_field(
            lambda s: math.nan if nan_at(s) else f(s),
            lambda s: np.full(len(s), math.nan) if nan_at(s)
            else f.gradient(s))

    return dataclasses.replace(cert, V=cut(cert.V, lambda s: s[1] > 5.0),
                               B=cut(cert.B, lambda s: s[2] > 0.0))


BOX = ball_operating_box()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("delta, grid, cert, verdict", [
    (0.0, GridSpec(BOX.lo, BOX.hi, 21), None, "PASS"),
    (0.05, GridSpec(BOX.lo, BOX.hi, 21), None, "FAIL"),
    (0.0, GridSpec([-1.0, 0.0, -1e200], [21.0, 10.0, 1e200], 3), None,
     "FAIL"),
    (0.05, GridSpec(BOX.lo - 1.0, BOX.hi + 1.0, 9),
     failing_ball_certificate(), "FAIL"),
    (0.05, GridSpec(BOX.lo - 1.0, BOX.hi + 1.0, 9),
     partly_nan_ball_certificate(), "FAIL"),
], ids=["c04-delta-0", "c04-delta-0.05", "z-1e200", "failing-pair",
        "partly-nan-pair"])
def test_pair_check_matches_the_per_point_reference(delta, grid, cert,
                                                    verdict):
    case = ball_pair_case(delta, grid, cert)
    got = check_pair_VB(*case, tol=1e-7, exclude_radius=0.05)
    assert got.verdict.value == verdict
    same_reports(got, grid_reference.check_pair_VB(*case, tol=1e-7,
                                                   exclude_radius=0.05))


def test_pair_check_without_initial_points_matches_the_per_point_reference():
    # X0 is scored as an array of rows; with no rows it has no columns
    sys_delta, cert, ss, grid = ball_pair_case(0.05, GridSpec(BOX.lo, BOX.hi,
                                                              7))
    ss = dataclasses.replace(ss, x0=[])
    got = check_pair_VB(sys_delta, cert, ss, grid)
    assert "ii-X0-in-S" not in got.stats["counts"]
    same_reports(got, grid_reference.check_pair_VB(sys_delta, cert, ss, grid))


@pytest.mark.parametrize("delta", [0.0, 0.05])
@pytest.mark.parametrize("cert", [None, failing_ball_certificate(),
                                  partly_nan_ball_certificate()],
                         ids=["ball", "failing", "partly-nan"])
def test_single_v_matches_the_per_point_reference(delta, cert):
    sys_delta, cert, _, grid = ball_pair_case(
        delta, GridSpec(BOX.lo - 1.0, BOX.hi + 1.0, 9), cert)
    same_reports(check_single_V(sys_delta, cert, grid),
                 grid_reference.check_single_V(sys_delta, cert, grid))


# compiled expressions are evaluated row by row, and the flow map has no
# row form: the checks loop over the rows
SCENARIO_PAIR = """\
system:
  variables: [y, z]
  flow_map: ["z", "-9.8"]
  flow_set: {kind: axis_box, lo: [0.0, -50.0], hi: [100.0, 50.0]}
  jump_set:
    kind: implicit
    predicate: "y <= 0 and z < 0"
    bbox: {lo: [-1.0, -50.0], hi: [0.0, 0.0]}
  jump_map: ["y", "-0.8*z"]
  bounds: {kind: axis_box, lo: [-1.0, -50.0], hi: [100.0, 50.0]}
certificates:
  V: "z**2/2 + 9.8*y"
  B: "60 - y - z*z/19.6"
  region: {kind: axis_box, lo: [-1.0, -40.0], hi: [70.0, 40.0]}
  attractor: {kind: axis_box, lo: [0.0, 0.0], hi: [0.0, 0.0]}
spec:
  kind: stability-safety
  x0: [[10.0, 0.0], [75.0, 0.0]]
  unsafe: {kind: axis_box, lo: [50.0, -50.0], hi: [100.0, 50.0]}
  attractor: {kind: axis_box, lo: [0.0, 0.0], hi: [0.0, 0.0]}
check: {grid: {lo: [-1.0, -45.0], hi: [90.0, 45.0], counts: [15, 15]}}
"""


@pytest.mark.parametrize("source", ["z**2/2 + 9.8*y", "60 - y - z*z/19.6",
                                    "sin(y*z) + exp(-y) / (1 + z*z)"])
def test_fd_gradient_on_rows_is_the_per_point_stencil(source):
    # rows one axis at a time give the bits of the stencil taken point by
    # point, on a field compiled from a scenario expression
    doc = yaml.safe_load(SCENARIO_PAIR)
    doc["certificates"]["V"] = source
    V = cli.scenario_from(doc, []).cert.V
    point = scalar_fn(source, ["y", "z"])
    rng = np.random.default_rng(7)
    P = np.concatenate([
        rng.uniform(-50.0, 50.0, size=(200, 2)),
        rng.normal(0.0, 1e-3, size=(50, 2)),
        [[0.0, -0.0], [-0.0, 0.0], [math.nan, 1.0], [1.0, math.nan]],
    ])
    want = np.array([field_reference.fd_gradient(point, p) for p in P])
    assert V.grad is None
    assert V.fd_gradient(P).tobytes() == want.tobytes()
    assert V.gradient_many(P).tobytes() == want.tobytes()
    assert V.gradient(P[3]).tobytes() == want[3].tobytes()


@pytest.mark.parametrize("delta", [0.0, 0.05])
def test_scenario_checks_match_the_per_point_reference(delta):
    scenario = cli.scenario_from(yaml.safe_load(SCENARIO_PAIR),
                                 ["delta=%r" % delta])
    sys_delta = cli._perturbed(scenario)
    cert, spec = scenario.cert, scenario.spec
    grid = scenario.check["grid"]
    assert sys_delta.flow_map_rows is None
    got = check_pair_VB(sys_delta, cert, spec, grid)
    assert got.verdict == Verdict.FAIL
    same_reports(got, grid_reference.check_pair_VB(sys_delta, cert, spec,
                                                   grid))
    same_reports(check_single_V(sys_delta, cert, grid),
                 grid_reference.check_single_V(sys_delta, cert, grid))


# ---------------------------------------------------------------------------
# A margin is satisfied only where it compares as satisfied: a V that is NaN
# everywhere violates every condition it enters

NAN_V = "certificates.V=0*inf + y"


def run_scenario_pair(tmp_path, args):
    """Exit code and --out directory of one CLI run on SCENARIO_PAIR."""
    scen = tmp_path / "pair.yaml"
    scen.write_text(SCENARIO_PAIR)
    out = tmp_path / ("out%d" % len(list(tmp_path.iterdir())))
    return cli.main(args + ["--scenario", str(scen), "--out", str(out)]), out


def reported_conditions(out):
    report = json.loads((out / "check_report.json").read_text())
    return {ce["condition"] for ce in report["counterexamples"]}


def test_single_v_cli_fails_on_its_own_and_on_a_nan_v(tmp_path):
    check = ["check", "--mode", "single-v"]
    assert run_scenario_pair(tmp_path, check)[0] == 1
    code, out = run_scenario_pair(tmp_path, check + ["--override", NAN_V])
    assert code == 1
    assert "flow-decrease" in reported_conditions(out)


def test_pair_cli_reports_the_decrease_of_a_nan_v(tmp_path):
    code, out = run_scenario_pair(
        tmp_path, ["check", "--mode", "pair-vb", "--override", NAN_V])
    assert code == 1
    assert {"i-flow-decrease", "i-jump-decrease"} <= reported_conditions(out)


def test_falsify_cli_finds_a_nan_v_and_writes_strict_json(tmp_path):
    code, out = run_scenario_pair(
        tmp_path, ["falsify", "--mode", "flow-decrease", "--seed", "1",
                   "--override", NAN_V])
    assert code == 1

    def refuse(token):
        raise ValueError("non-JSON constant %s" % token)

    found = json.loads((out / "falsify.json").read_text(),
                       parse_constant=refuse)
    assert found["found"] is True
    assert found["counterexample"]["margin"] is None


def nan_everywhere():
    return point_field(lambda x: math.nan)


def test_single_v_fails_with_a_nan_v():
    sys_delta, cert, _, grid = ball_pair_case(
        0.0, GridSpec(BOX.lo, BOX.hi, 5))
    rep = check_single_V(sys_delta, dataclasses.replace(
        cert, V=nan_everywhere()), grid)
    assert rep.verdict == Verdict.FAIL
    assert {"flow-decrease", "jump-decrease"} <= {
        ce.condition for ce in rep.counterexamples}


@pytest.mark.parametrize("field, conditions", [
    ("V", {"i-flow-decrease", "i-jump-decrease", "i-fitted-c"}),
    ("B", {"ii-S-in-O", "ii-X0-in-S", "iii-unsafe-negative",
           "iv-barrier-flow", "iv-barrier-jump"}),
])
def test_pair_check_fails_with_a_nan_v_or_b(field, conditions):
    sys_delta, cert, ss, grid = ball_pair_case(
        0.0, GridSpec(BOX.lo - 1.0, BOX.hi + 1.0, 5))
    rep = check_pair_VB(sys_delta, dataclasses.replace(
        cert, **{field: nan_everywhere()}), ss, grid)
    assert rep.verdict == Verdict.FAIL
    assert conditions <= {ce.condition for ce in rep.counterexamples}


@pytest.mark.parametrize("condition", ["flow-decrease", "barrier-flow"])
def test_falsify_ranks_a_nan_margin_above_every_finite_one(condition):
    # flow-decrease also fails by finite margins where V is finite;
    # barrier-flow holds where B is finite
    sys_delta, cert, ss, _ = ball_pair_case(0.0, None,
                                            partly_nan_ball_certificate())
    found = falsify(sys_delta, cert, condition, AxisBox(BOX.lo, BOX.hi),
                    200, seed=1, spec=ss)
    assert found is not None and math.isnan(found[1])


@pytest.mark.parametrize("delta", [0.0, 0.05])
def test_falsify_margins_match_the_per_point_reference(delta):
    # the flow conditions run the row functions on a one-row array
    grid = GridSpec(BOX.lo - 1.0, BOX.hi + 1.0, 7)
    for cert in (None, failing_ball_certificate()):
        sys_delta, cert, _, _ = ball_pair_case(delta, grid, cert)
        scalar = {
            "flow-decrease": lambda p: grid_reference.flow_margin_single(
                sys_delta, cert.V, p, delta),
            "jump-decrease": lambda p: grid_reference.jump_margin_single(
                sys_delta, cert.V, p, delta),
            "barrier-flow": lambda p: grid_reference.pair_flow(
                sys_delta, cert, p)[1],
        }
        for condition, want in scalar.items():
            margin = condition_margin_fn(sys_delta, cert, condition)
            scored = 0
            for p in grid.points():
                m = margin(p)
                if m is not None:
                    scored += 1
                    assert type(m) is float
                    assert m.hex() == want(p).hex(), (condition, p)
            assert scored > 0


def test_pair_check_makes_no_one_point_call(monkeypatch):
    # V, B, their gradients and the flow map go through the row forms, at
    # grid points and jump images alike; a check that fell back to the row
    # loop would call the one-point forms
    calls = collections.defaultdict(list)

    def counting(name, fn):
        def counted(self, x):
            calls[name].append(tuple(x))
            return fn(self, x)
        return counted

    for owner, name in ((ScalarField, "__call__"), (ScalarField, "gradient"),
                        (HybridSystem, "flow")):
        monkeypatch.setattr(owner, name, counting(name, vars(owner)[name]))
    sys_delta, cert, ss, grid = ball_pair_case(
        0.0, GridSpec(BOX.lo, BOX.hi, (3, 5, 7)))
    rep = check_pair_VB(sys_delta, cert, ss, grid)
    assert rep.verdict == Verdict.PASS
    assert rep.stats["counts"]["i-jump-decrease"] > 0
    assert rep.stats["counts"]["ii-X0-in-S"] > 0
    assert calls == {}


# +-0, infinities and NaN make the margins of the disturbance directions tie
# at +-0 and break at NaN
TIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, math.inf, -math.inf,
                        math.nan])


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(m=st.lists(TIES, min_size=1, max_size=8),
       start=st.sampled_from([-math.inf, 0.0, -0.0, 1.0]))
def test_array_extremes_are_the_ones_the_reference_keeps(m, start):
    # a NaN wins, and otherwise the first of equal values stays
    want = start
    for x in m:
        want = grid_reference.nan_max(want, x)
    assert float(certificates._first_max(start, np.array(m))).hex() \
        == float(want).hex()
    assert certificates._first_min(np.array(m)) == functools.reduce(
        lambda i, k: grid_reference.nan_min(i, k, key=m.__getitem__),
        range(len(m)))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(P=st.lists(st.tuples(TIES, TIES), min_size=1, max_size=6),
       delta=st.sampled_from([0.0, 0.5]))
def test_row_margins_are_the_per_point_margins(P, delta):
    # row by row, each direction's margin replaces the running one where
    # the reference's nan_min or nan_max would, so ties and NaN come out as
    # in the loop
    def jump_map(x):
        # two candidates, but one at x[0] = 0.5 and none at x[0] = 1, so
        # each candidate rank has its own rows
        cands = [np.array([x[1], x[0]]), np.array([x[0] * x[1], -x[1]])]
        return [] if x[0] == 1.0 else cands[:1] if x[0] == 0.5 else cands

    everywhere = AxisBox([-np.inf] * 2, [np.inf] * 2)
    system = perturb(make_system(
        2, everywhere, lambda x: np.array([-x[1], x[0] * x[1]]), everywhere,
        jump_map, AxisBox([-2.0, -2.0], [2.0, 2.0]),
    ), delta)
    V = point_field(lambda x: x[0] * x[1], lambda x: np.array([x[1], -x[0]]))
    B = point_field(lambda x: -x[0], lambda x: np.array([-0.0 * x[0], x[1]]),
                    domain=lambda x: x[0] != 1.0)
    cert = CertificatePair(V=V, B=B)
    P = np.array(P + [(1.0, -0.0)], dtype=float)
    with np.errstate(all="ignore"):
        v, b = V.value_many(P), B.value_many(P)
        dec, ok, m_b = certificates._pair_flow(system, cert, P)
        m_flow = certificates._flow_margins(system, V, P, v, delta)
        m_jump = certificates._jump_margins(system, V, P, v, delta)
        dec_jump, m_bjump = certificates._pair_jumps(system, cert, P, v, b)
        no_v, m_bjump_no_v = certificates._pair_jumps(system, cert, P, None,
                                                      b)
        assert no_v is None
        for k, p in enumerate(P):
            want_dec, want_b = grid_reference.pair_flow(system, cert, p)
            assert dec[k].hex() == want_dec.hex()
            assert ok[k] == (want_b is not None)
            assert not ok[k] or m_b[k].hex() == want_b.hex()
            assert m_flow[k].hex() == grid_reference.flow_margin_single(
                system, V, p, delta).hex()
            assert m_jump[k].hex() == grid_reference.jump_margin_single(
                system, V, p, delta).hex()
            want_dec, want_b = grid_reference.pair_jump(system, cert, p,
                                                        V(p), B(p))
            assert dec_jump[k].hex() == want_dec.hex()
            assert m_bjump[k].hex() == want_b.hex()
            assert m_bjump_no_v[k].hex() == grid_reference.pair_jump(
                system, cert, p, None, B(p))[1].hex()


def test_gradient_directions_survive_squares_that_overflow_or_underflow():
    # the squares of the first two rows overflow and underflow; their
    # norms are still 5e200 and 5e-200, so the worst-case disturbance
    # along them is tried, as the per-point reference tries it
    delta = 0.1
    G = np.array([[3e200, 4e200], [3e-200, 4e-200], [3.0, 4.0], [0.0, 0.0]])
    with np.errstate(over="raise"):
        dirs = list(certificates._row_directions(delta, G.shape, [G]))
    for (d, used), sign in zip(dirs[-2:], (1.0, -1.0)):
        assert used.tolist() == [True, True, True, False]
        for k, g in enumerate(G[:3]):
            assert np.hypot(*d[k]) == pytest.approx(delta, rel=1e-15)
            assert np.sign(d[k]).tolist() == [sign, sign]
            want = grid_reference.ball_directions(delta, 2, [g])
            assert d[k].tobytes() == want[-2 if sign > 0 else -1].tobytes()
