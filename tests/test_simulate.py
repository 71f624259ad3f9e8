"""Solver behavior: events, Zeno handling, batches, companions, verification."""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import solver_reference

from hybridcert import (
    AxisBox,
    BadInitialCondition,
    Ball,
    DimensionMismatch,
    Disturbance,
    EmptySet,
    GridSpec,
    HorizonTooShort,
    HybridArc,
    HybridSystem,
    Inflated,
    RASSpec,
    SetRegion,
    SimConfig,
    SolveReport,
    StabSafeSpec,
    Termination,
    Union,
    bouncing_ball,
    ball_operating_box,
    check_pair_VB,
    check_single_V,
    closeness,
    companion_radius_bound,
    construct_perturbed,
    estimate_lipschitz,
    from_floats,
    make_system,
    perturb,
    reachable_sample,
    solve,
    solve_many,
    verify_solution,
)

from hybridcert import cli, controller, examples, simulate, vector_fn
from hybridcert.examples import mg_closed_loop
from hybridcert.monitor import _first_hit
from hybridcert.simulate import _one_sided_close, _rk4_step, _window_dist

# closed-form first impact of the ballistic fall from (y, z) = (9, 0.8)
FIRST_IMPACT = 1.4393508064065221


def linear_decay(rate=-1.0):
    return make_system(
        1,
        AxisBox([-10.0], [10.0]),
        lambda x: np.array([rate * x[0]]),
        EmptySet(),
        lambda x: [],
        AxisBox([-50.0], [50.0]),
    )


def raw_ball(zeno_map=None):
    """Ball without the shipped example's settle logic, to expose Zeno."""
    a, res = 9.8, 0.8
    return HybridSystem(
        dim=3,
        flow_set=AxisBox([-np.inf, 0.0, -np.inf], [np.inf, np.inf, np.inf]),
        flow_map=lambda x: np.array([1.0, x[2], -a]),
        jump_set=AxisBox([-np.inf, -np.inf, -np.inf], [np.inf, 0.0, 0.0]),
        jump_map=lambda x: [np.array([x[0], 0.0, -res * x[2]])],
        bounds=AxisBox([-5.0, -1.0, -50.0], [100.0, 20.0, 50.0]),
        zeno_map=zeno_map,
    )


class CountingRegion(SetRegion):
    """A region that counts the membership questions asked of it."""

    def __init__(self, base):
        self.base = base
        self.calls = 0

    def distance(self, x):
        return self.base.distance(x)

    def contains(self, x, tol=1e-9):
        self.calls += 1
        return self.base.contains(x, tol)

    def bounding_box(self):
        return self.base.bounding_box()


def counted(system):
    """system with a counting jump set and a flow map that counts RK4
    stages; returns (system, jump set, list of flow evaluations)."""
    flows = []

    def flow_map(x):
        flows.append(1)
        return system.flow_map(x)

    jump_set = CountingRegion(system.jump_set)
    return (dataclasses.replace(system, jump_set=jump_set, flow_map=flow_map),
            jump_set, flows)


def test_solve_asks_the_jump_set_once_per_plain_step():
    # no events: one question at the loop top at t = 0, then one per step
    system, jump_set, _ = counted(linear_decay())
    rep = solve(system, np.array([1.0]), SimConfig(h=0.01, T_max=1.0))
    steps = rep.arc.phases[0][0].size - 1
    assert steps == 100
    assert jump_set.calls == steps + 1


def test_solve_asks_the_jump_set_once_per_rk4_step_with_events(monkeypatch):
    system, jump_set, flows = counted(raw_ball())
    # the first stage of every RK4 evaluation: a bisection probe shares the
    # k1 list of the step it refines, a step computes its own
    stages = []
    rk4_step = simulate._rk4_step

    def counted_rk4_step(f, x, k1, dt, d):
        stages.append(k1)
        return rk4_step(f, x, k1, dt, d)

    monkeypatch.setattr(simulate, "_rk4_step", counted_rk4_step)
    rep = solve(system, np.array([0.0, 9.0, 0.8]),
                SimConfig(h=1e-3, T_max=4.0))
    assert rep.jump_count >= 2
    rk4_steps = len(stages)  # plain steps and bisection probes
    steps = 1 + sum(b is not a for a, b in zip(stages, stages[1:]))
    probes = rk4_steps - steps
    assert probes > 0
    # four flow calls per step, three per probe (k1 is the step's)
    assert len(flows) == 4 * steps + 3 * probes
    # beyond one question per RK4 step: the loop top at t = 0, after each
    # jump and at each located jump-set entry
    assert jump_set.calls <= rk4_steps + 1 + 2 * rep.jump_count


def textbook_rk4(f, x, dt, d):
    k1 = f(x) + d
    k2 = f(x + 0.5 * dt * k1) + d
    k3 = f(x + 0.5 * dt * k2) + d
    k4 = f(x + dt * k3) + d
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def float_rk4(f, x, dt, d):
    """The solver's RK4 step from the array x under the list form f."""
    xs, d = x.tolist(), d.tolist()
    return _rk4_step(f, xs, simulate._slope(f, xs, d), dt, d)


def list_form_of(f, dim):
    """What the solver calls for a flow map f without a list form."""
    return simulate._list_form(HybridSystem(dim, None, f, None, None, None))


def test_rk4_step_is_the_textbook_combination_bitwise():
    def f(x):
        return np.array([x[1], -math.sin(x[0]) - 0.1 * x[1]])

    def f_floats(xs):
        return [xs[1], -math.sin(xs[0]) - 0.1 * xs[1]]

    x, d = np.array([0.7, -0.3]), np.array([1e-3, -2e-3])
    for dt in (1e-3, 0.05, 0.3):
        want = textbook_rk4(f, x, dt, d).tobytes()
        assert float_rk4(f_floats, x, dt, d).tobytes() == want
        assert float_rk4(list_form_of(f, 2), x, dt, d).tobytes() == want
    assert x.tolist() == [0.7, -0.3]
    # a step never writes into the map's own result, which may be shared
    shared = [1.0, 2.0]
    float_rk4(lambda ys: shared, x, 0.1, d)
    assert shared == [1.0, 2.0]
    shared = np.array([1.0, 2.0])
    float_rk4(list_form_of(lambda y: shared, 2), x, 0.1, d)
    assert shared.tolist() == [1.0, 2.0]


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
               1e308, -1e308, math.inf, -math.inf, math.nan]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(data=st.data(), dim=st.integers(1, 6),
       dt=st.one_of(st.floats(1e-9, 1.0), st.sampled_from([1e-300, 1e300])))
def test_rk4_step_matches_the_array_form_bitwise(data, dim, dt):
    # +-0.0, subnormals, overflow to inf and NaN included; the map mixes
    # the components, so every stage reaches every component
    value = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(EDGE_FLOATS),
                      st.floats(allow_nan=True, allow_infinity=True))
    vector = st.lists(value, min_size=dim, max_size=dim).map(np.array)
    x, d, scale, shift = (data.draw(vector) for _ in range(4))

    def f(y):
        return y[::-1] * scale + shift

    # f entry by entry on floats: the same IEEE operations
    pairs = list(zip(scale.tolist(), shift.tolist()))

    def f_floats(ys):
        return [b * s + h for b, (s, h) in zip(reversed(ys), pairs)]

    with np.errstate(all="ignore"):
        want = textbook_rk4(f, x, dt, d)
        got = float_rk4(f_floats, x, dt, d)
        adapted = float_rk4(list_form_of(f, dim), x, dt, d)
    for form in (got, adapted):
        assert form.dtype == want.dtype and form.shape == want.shape
        # NaN bits too: the same operations on the same operands
        assert form.tobytes() == want.tobytes()


def test_a_replaced_flow_map_is_never_bypassed(monkeypatch):
    # the ball's map has a list form; a map put in its place has none and
    # is called at every stage, with the same arc as a result
    system, _, spec = bouncing_ball()
    assert system.flow_map.floats is not None
    replaced, _, flows = counted(system)
    stages = []
    rk4_step = simulate._rk4_step

    def counted_rk4_step(f, x, k1, dt, d):
        stages.append(k1)
        return rk4_step(f, x, k1, dt, d)

    monkeypatch.setattr(simulate, "_rk4_step", counted_rk4_step)
    cfg = SimConfig(h=1e-3, T_max=4.0)
    got = solve(replaced, np.asarray(spec.x0[0]), cfg)
    steps = 1 + sum(b is not a for a, b in zip(stages, stages[1:]))
    probes = len(stages) - steps
    assert got.jump_count >= 2 and probes > 0
    assert len(flows) == 4 * steps + 3 * probes
    assert same_arcs(got.arc, solve(system, np.asarray(spec.x0[0]), cfg).arc)


def bits(values):
    """The float64 bits of a sequence of Python floats, which they must be."""
    values = list(values)
    assert all(type(v) is float for v in values), values
    return struct.pack("<%dd" % len(values), *values)


def mg_augmented_flow():
    plant, _, _, shc = examples.moore_greitzer()
    return controller.augment_sample_hold(plant, None, shc).flow_map


# compiled maps whose entries are ints, bools and conditionals as parsed
COMPILED_FLOW = vector_fn(["1", "y > 0", "z", "(y <= 0) + 2", "not z",
                           "y * z - 3", "7 if z < 0 else y"], ("x", "y", "z"))

edge = st.one_of(st.floats(-20.0, 20.0), st.sampled_from(EDGE_FLOATS),
                 st.sampled_from([1e-9, -1e-9, 5e-10, -5e-10, 2e-9]))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(x=st.tuples(edge, edge, edge),
       mg=st.tuples(st.floats(0.2, 0.9), st.floats(0.0, 1.2),
                    st.floats(-0.05, 0.05), st.floats(0.5, 1.0),
                    st.floats(0.0, 0.5)))
def test_list_form_is_the_array_form_bit_for_bit(x, mg):
    # the ball at rest on the floor too: y and z within 1e-9 of 0
    cases = [(bouncing_ball()[0].flow_map, x), (COMPILED_FLOW, x),
             (mg_augmented_flow(), mg)]
    for m, point in cases:
        point = np.array(point)
        assert bits(m.floats(point.tolist())) == m(point).tobytes()


def test_first_impact_matches_quadratic_root():
    system, _, spec = bouncing_ball()
    rep = solve(system, np.asarray(spec.x0[0]),
                SimConfig(h=1e-3, T_max=2.0, J_max=5))
    t1 = float(rep.arc.phases[1][0][0])
    assert abs(t1 - FIRST_IMPACT) <= 1e-6
    z0, a, y0 = 0.8, 9.8, 9.0
    assert FIRST_IMPACT == (z0 + math.sqrt(z0 * z0 + 2 * a * y0)) / a


def test_linear_flow_matches_exponential():
    arc = solve(linear_decay(), np.array([1.0]), SimConfig(h=1e-3, T_max=2.0)).arc
    assert abs(float(arc.eval(1.0, 0)[0]) - math.exp(-1.0)) <= 1e-8


def test_rk4_error_scales_as_fourth_order():
    errs = []
    for h in (0.2, 0.1, 0.05):
        arc = solve(linear_decay(), np.array([1.0]), SimConfig(h=h, T_max=1.0)).arc
        errs.append(abs(float(arc.eval(1.0, 0)[0]) - math.exp(-1.0)))
    for a, b in zip(errs, errs[1:]):
        assert 10.0 <= a / b <= 25.0


def test_jump_first_priority_jumps_at_time_zero():
    system = raw_ball()
    rep = solve(system, np.array([0.0, 0.0, -1.0]),
                SimConfig(h=1e-3, T_max=1.0, J_max=3))
    assert rep.jump_count >= 1
    times0, _ = rep.arc.phases[0]
    assert times0.size == 1 and times0[0] == 0.0
    assert float(rep.arc.phases[1][0][0]) == 0.0


def test_bad_initial_condition_raises():
    system, _, _ = bouncing_ball()
    with pytest.raises(BadInitialCondition):
        solve(system, np.array([0.0, -1.0, 0.5]), SimConfig(h=1e-3, T_max=1.0))


def _ball_grid_check(check, tol):
    system, cert, spec = bouncing_ball()
    grid = GridSpec([0.0, 0.0, -1.0], [0.0, 1.0, 1.0], 3)
    if check is check_single_V:
        return check(system, cert, grid, tol=tol)
    pair = StabSafeSpec(spec.x0, spec.unsafe, examples.ball_attractor())
    return check(system, cert, pair, grid, tol=tol)


OUT_OF_RANGE = [
    ("SimConfig.T_max", lambda v: SimConfig(T_max=v),
     (math.nan, math.inf, 0.0)),
    ("SimConfig.h", lambda v: SimConfig(h=v), (math.nan, 0.0)),
    ("perturb.delta", lambda v: perturb(linear_decay(), v),
     (math.nan, math.inf, -1.0)),
    ("RASSpec.t_spec",
     lambda v: RASSpec([[0.0]], Ball([5.0], 1.0), Ball([0.0], 1.0), v),
     (math.nan, 0.0)),
    ("StabSafeSpec.eps_levels",
     lambda v: StabSafeSpec([[0.0]], Ball([5.0], 1.0), Ball([0.0], 1.0),
                            (0.1, v)),
     (math.nan, 0.0)),
    ("Ball.radius", lambda v: Ball([0.0], v), (math.nan, -1.0)),
    ("Inflated.r", lambda v: Inflated(Ball([0.0], 1.0), v), (math.nan, -1.0)),
    ("check_single_V.tol", lambda v: _ball_grid_check(check_single_V, v),
     (math.nan, -1.0)),
    ("check_pair_VB.tol", lambda v: _ball_grid_check(check_pair_VB, v),
     (math.nan, -1.0)),
]


# NaN compares false with everything, so each range is stated as a
# condition that a NaN fails, `not x >= 0`, rather than `x < 0`
@pytest.mark.parametrize("build, value", [
    pytest.param(build, value, id="%s=%r" % (name, value))
    for name, build, values in OUT_OF_RANGE for value in values
])
def test_library_validators_reject_nan_and_out_of_range_values(build, value):
    with pytest.raises(ValueError):
        build(value)


def test_escaped_bounds_termination():
    sys1 = make_system(
        1, AxisBox([-100.0], [100.0]), lambda x: np.array([x[0]]),
        EmptySet(), lambda x: [], AxisBox([-2.0], [2.0]),
    )
    rep = solve(sys1, np.array([1.0]), SimConfig(h=1e-3, T_max=10.0))
    assert rep.termination == Termination.ESCAPED_BOUNDS


def test_left_flow_and_jump_sets_termination():
    sys1 = make_system(
        1, AxisBox([0.0], [1.0]), lambda x: np.array([1.0]),
        EmptySet(), lambda x: [], AxisBox([-5.0], [5.0]),
    )
    rep = solve(sys1, np.array([0.5]), SimConfig(h=1e-2, T_max=10.0))
    assert rep.termination == Termination.LEFT_FLOW_AND_JUMP_SETS
    assert rep.flow_time == pytest.approx(0.5, abs=1e-6)


def test_zeno_accumulation_without_completion():
    system = raw_ball()
    rep = solve(system, np.array([0.0, 9.0, 0.8]),
                SimConfig(h=1e-3, T_max=20.0, J_max=1000))
    assert rep.termination == Termination.ZENO_ACCUMULATION
    v1 = math.sqrt(0.8**2 + 2 * 9.8 * 9.0)
    t_acc = FIRST_IMPACT + (2 * 0.8 * v1 / 9.8) / (1 - 0.8)
    end = float(rep.arc.phases[-1][0][-1])
    assert abs(end - t_acc) <= 0.01


def test_zeno_map_completes_the_solution():
    # t_min above the rest-freeze scale so accumulation is met head on
    system, _, spec = bouncing_ball()
    rep = solve(system, np.asarray(spec.x0[0]),
                SimConfig(h=1e-3, T_max=20.0, J_max=1000, t_min=1e-3))
    assert rep.zeno_snapped
    assert rep.termination == Termination.HORIZON_REACHED
    # horizontal motion continues after the snap to rest
    final = rep.arc.phases[-1][1][-1]
    assert final[0] == pytest.approx(20.0, abs=1e-6)
    assert abs(final[1]) <= 1e-9 and abs(final[2]) <= 1e-9


def test_jump_localization_within_event_tol():
    system, _, spec = bouncing_ball()
    rep = solve(system, np.asarray(spec.x0[0]),
                SimConfig(h=1e-3, T_max=10.0, J_max=50))
    for j in range(1, len(rep.arc.phases)):
        pre = rep.arc.phases[j - 1][1][-1]
        assert abs(pre[1]) <= 1e-9


def test_solve_is_deterministic():
    system, _, spec = bouncing_ball()
    cfg = SimConfig(h=1e-3, T_max=5.0, J_max=10)
    report = solve(system, np.asarray(spec.x0[0]), cfg)
    assert isinstance(report, SolveReport)
    a = report.arc
    b = solve(system, np.asarray(spec.x0[0]), cfg).arc
    for (ta, xa), (tb, xb) in zip(a.phases, b.phases):
        assert np.array_equal(ta, tb) and np.array_equal(xa, xb)


def same_arcs(a, b):
    return (a.termination == b.termination
            and len(a.phases) == len(b.phases)
            and all(np.array_equal(ta, tb) and np.array_equal(xa, xb)
                    for (ta, xa), (tb, xb) in zip(a.phases, b.phases)))


def test_solve_many_singleton_matches_solve():
    system, _, spec = bouncing_ball()
    cfg = SimConfig(h=1e-3, T_max=3.0, J_max=10)
    x0 = np.asarray(spec.x0[0])
    single = solve(system, x0, cfg).arc
    batch = list(solve_many(system, [x0], cfg, [[7, 0]]))
    assert len(batch) == 1
    assert same_arcs(single, batch[0].arc)


def test_solve_many_empty():
    system, _, _ = bouncing_ball()
    assert list(solve_many(system, [], SimConfig(h=1e-3, T_max=1.0), [])) == []


def test_solve_many_seeded_rerun_is_bitwise():
    system, _, spec = bouncing_ball()
    sysd = perturb(system, 0.01)
    cfg = SimConfig(h=1e-3, T_max=2.0, J_max=10,
                    disturbance=Disturbance.random_uniform_ball(42))
    starts = [np.asarray(spec.x0[0]) + np.array([0.0, k * 0.1, 0.0])
              for k in range(3)]
    keys = [[7, i] for i in range(len(starts))]
    runs1 = list(solve_many(sysd, starts, cfg, keys))
    runs2 = list(solve_many(sysd, starts, cfg, keys))
    assert len(runs1) == len(runs2) == 3
    for r1, r2 in zip(runs1, runs2):
        assert same_arcs(r1.arc, r2.arc)


def test_solve_many_item_is_solve_under_its_reseeded_disturbance():
    system, _, spec = bouncing_ball()
    sysd = perturb(system, 0.02)
    cfg = SimConfig(h=1e-3, T_max=1.5, J_max=10,
                    disturbance=Disturbance.random_uniform_ball(5))
    x0 = np.asarray(spec.x0[0])
    outside = np.array([0.0, -1.0, 0.5])  # below the simulation bounds
    starts = [x0, outside, x0, x0 + np.array([0.0, 0.5, 0.0])]
    keys = [[3, 0], [3, 1], [3, 2], [3, 3]]
    got = list(solve_many(sysd, starts, cfg, keys))
    assert len(got) == len(starts)
    assert isinstance(got[1], BadInitialCondition)
    for i in (0, 2, 3):
        direct = solve(sysd, starts[i], dataclasses.replace(
            cfg, disturbance=cfg.disturbance.reseed(keys[i])))
        assert same_arcs(got[i].arc, direct.arc)
        assert got[i].flow_time == direct.flow_time
        assert got[i].jump_count == direct.jump_count
    # same start, different keys: the draws differ
    assert not same_arcs(got[0].arc, got[2].arc)


def test_solve_many_is_lazy():
    system, _, spec = bouncing_ball()
    cfg = SimConfig(h=1e-3, T_max=1.0, J_max=10)
    x0 = np.asarray(spec.x0[0])
    # the second start is never reached unless the generator is advanced
    reports = solve_many(system, [x0, None], cfg, [[0, 0], [0, 1]])
    assert next(reports).arc.num_phases >= 1


def first_outside(arc, watch):
    return _first_hit(arc, lambda x: not watch.contains(x, 0.0),
                      lambda X: ~watch.contains_many(X, 0.0),
                      watch.runs_user_code)


def sample_count(arc):
    return sum(times.size for times, _ in arc.phases)


def watched_and_full(system, x0, cfg, watch):
    """Solve x0 with and without the watch and check that the watched arc
    is a bitwise prefix of the full one that ends at the full arc's first
    sample outside the watch, where _first_hit agrees on both arcs."""
    (cut,) = solve_many(system, [x0], cfg, [[0]], watch=watch)
    full = solve(system, x0, cfg)
    a, b = cut.arc, full.arc
    last = a.num_phases - 1
    assert last < b.num_phases
    for j, (times, states) in enumerate(a.phases):
        full_times, full_states = b.phases[j]
        if j < last:
            assert times.size == full_times.size
        assert times.tobytes() == full_times[:times.size].tobytes()
        assert states.tobytes() == full_states[:times.size].tobytes()
    hit_a, n_a = first_outside(a, watch)
    hit_b, n_b = first_outside(b, watch)
    assert n_a == n_b
    if hit_b is None:
        assert hit_a is None
    else:
        (ja, ta, xa), (jb, tb, xb) = hit_a, hit_b
        assert (ja, ta, xa.tobytes()) == (jb, tb, xb.tobytes())
        assert n_a == sample_count(a)  # the watched arc ends there
    if sample_count(a) < sample_count(b):
        assert a.termination == Termination.LEFT_WATCH_REGION
        assert hit_b is not None
    else:
        assert same_arcs(a, b)
    assert cut.jump_count == a.num_phases - 1
    assert cut.zeno_snapped <= full.zeno_snapped
    return cut, full


WATCH_CFG = SimConfig(h=5e-3, T_max=3.0, J_max=200, t_min=1e-2)


def box(x_hi=100.0, y=(-1.0, 15.0), z=(-20.0, 20.0)):
    return AxisBox([-10.0, y[0], z[0]], [x_hi, y[1], z[1]])


@pytest.mark.parametrize("x0, watch, what", [
    ((0.0, 1.0, 0.0), box(x_hi=1.5), "after impacts"),
    ((0.0, 1.0, 0.0), box(y=(1e-6, 15.0)), "at the first impact"),
    ((0.0, 0.05, 0.0), box(x_hi=2.0), "after a Zeno snap"),
    ((0.0, 5.0, 19.0), box(y=(-1.0, 14.0)), "before a bounds exit"),
    ((0.0, 5.0, 19.0), box(z=(-20.0, 18.0)), "at the start"),
])
def test_watched_run_stops_at_its_first_sample_outside(x0, watch, what):
    cut, full = watched_and_full(bouncing_ball()[0], np.array(x0),
                                 WATCH_CFG, watch)
    assert cut.termination == Termination.LEFT_WATCH_REGION
    n = sample_count(cut.arc)
    if what == "after impacts":
        assert cut.jump_count >= 2
    elif what == "at the first impact":
        # the pre-impact sample is outside; the jump is not taken
        assert cut.jump_count == 0 and full.jump_count >= 2
        assert abs(cut.arc.last()[2][1]) <= 1e-9
    elif what == "after a Zeno snap":
        assert cut.zeno_snapped
    elif what == "before a bounds exit":
        assert full.termination == Termination.ESCAPED_BOUNDS
    else:
        assert n == 1
    assert n < sample_count(full.arc)


def test_watch_tests_a_sample_only_once_it_is_final():
    # x' = 1 from -2**60 in steps of 2**58 reaches x = 0 at t = 2**60; the
    # jump set x >= 1e-3 is entered 1e-3 later, which rounds to the same t,
    # so the event sample replaces x = 0 (outside the watch) by x = 1e-3
    # (inside).  The jump then sends x far below 0.
    big = 2.0**60
    system = make_system(
        1, AxisBox([-np.inf], [np.inf]), lambda x: np.array([1.0]),
        AxisBox([1e-3], [np.inf]), lambda x: [np.array([-4.0 * big])],
        AxisBox([-8.0 * big], [8.0 * big]),
    )
    cfg = SimConfig(h=big / 4.0, T_max=1.5 * big)
    watch = Union([AxisBox([-np.inf], [-1.0]), AxisBox([1e-4], [np.inf])])
    cut, full = watched_and_full(system, np.array([-big]), cfg, watch)
    assert full.jump_count == 1
    assert full.arc.phases[0][1][-1][0] >= 1e-3
    assert same_arcs(cut.arc, full.arc)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    y=st.one_of(st.floats(0.0, 0.3), st.floats(0.0, 14.0)),
    z=st.one_of(st.floats(-1.0, 1.0), st.floats(-19.0, 19.0)),
    x_hi=st.floats(0.0, 4.0),
    y_box=st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 16.0)),
    z_box=st.tuples(st.floats(-21.0, 0.0), st.floats(0.0, 21.0)),
)
def test_watched_arc_is_a_prefix_of_the_full_arc(y, z, x_hi, y_box, z_box):
    watch = box(x_hi=x_hi, y=(min(y_box), max(y_box)), z=z_box)
    watched_and_full(bouncing_ball()[0], np.array([0.0, y, z]), WATCH_CFG,
                     watch)


def test_random_disturbance_actually_moves_the_state():
    system, _, spec = bouncing_ball()
    sysd = perturb(system, 0.05)
    cfg0 = SimConfig(h=1e-3, T_max=1.0)
    cfgd = SimConfig(h=1e-3, T_max=1.0,
                     disturbance=Disturbance.random_uniform_ball(3))
    nominal = solve(system, np.asarray(spec.x0[0]), cfg0).arc
    noisy = solve(sysd, np.asarray(spec.x0[0]), cfgd).arc
    assert not np.array_equal(nominal.phases[0][1], noisy.phases[0][1])


def test_fixed_disturbance_is_norm_clamped():
    sys1 = make_system(
        1, AxisBox([-10.0], [10.0]), lambda x: np.array([0.0]),
        EmptySet(), lambda x: [], AxisBox([-20.0], [20.0]),
    )
    sig = lambda t, j: np.array([0.2])  # over the 0.05 budget, must clamp
    cfg = SimConfig(h=1e-2, T_max=1.0, disturbance=Disturbance.fixed(sig))
    arc = solve(perturb(sys1, 0.05), np.array([0.0]), cfg).arc
    assert float(arc.phases[0][1][-1][0]) == pytest.approx(0.05, rel=1e-9)


# The float-state solver against the array solver it replaced
# (tests/solver_reference.py): same arcs, byte for byte, and the same
# termination, jump count and Zeno flag.

def same_solves(got, want):
    assert got.termination == want.termination
    assert (got.jump_count, got.zeno_snapped) == (want.jump_count,
                                                  want.zeno_snapped)
    assert got.flow_time == want.flow_time
    assert got.arc.num_phases == want.arc.num_phases
    for (ta, xa), (tb, xb) in zip(got.arc.phases, want.arc.phases):
        assert ta.tobytes() == tb.tobytes()
        assert xa.tobytes() == xb.tobytes()


def falling_mass(delta=0.0):
    doc = {
        "system": {
            "variables": ["y", "z"],
            "flow_map": ["z", "-9.8 + 0.01*sin(y)"],
            "flow_set": {"kind": "axis_box", "lo": [0.0, -50.0],
                         "hi": [100.0, 50.0]},
            "jump_set": {"kind": "implicit", "predicate": "y <= 0 and z < 0",
                         "bbox": {"lo": [-1.0, -50.0], "hi": [0.0, 0.0]}},
            "jump_map": ["y", "-0.8*z"],
            "bounds": {"kind": "axis_box", "lo": [-1.0, -50.0],
                       "hi": [100.0, 50.0]},
        },
    }
    system = cli.scenario_from(doc).system
    return perturb(system, delta) if delta else system


def leaving_interval():
    return make_system(
        1, AxisBox([0.0], [1.0]), lambda x: np.array([1.0]),
        EmptySet(), lambda x: [], AxisBox([-5.0], [5.0]),
    )


def escaping_growth():
    return make_system(
        1, AxisBox([-100.0], [100.0]), lambda x: np.array([x[0]]),
        EmptySet(), lambda x: [], AxisBox([-2.0], [2.0]),
    )


def wobble(t, j):
    return np.array([0.0, 0.1 * math.sin(7.0 * t), 0.2 * math.cos(3.0 * t)])


BALL_X0 = (0.0, 9.0, 0.8)
REFERENCE_CASES = {
    # name: (system, x0, config, watch, termination)
    "ball-impacts": (lambda: bouncing_ball()[0], BALL_X0,
                     SimConfig(h=1e-3, T_max=5.0, J_max=50), None,
                     Termination.HORIZON_REACHED),
    "ball-zeno-snap": (lambda: bouncing_ball()[0], (0.0, 1.0, 0.0),
                       SimConfig(h=1e-3, T_max=6.0, J_max=1000, t_min=1e-3),
                       None, Termination.HORIZON_REACHED),
    "raw-ball-zeno": (raw_ball, BALL_X0,
                      SimConfig(h=1e-3, T_max=20.0, J_max=1000), None,
                      Termination.ZENO_ACCUMULATION),
    "compiled-expressions": (falling_mass, (1.0, 0.0),
                             SimConfig(h=2e-3, T_max=8.0, J_max=100), None,
                             Termination.ZENO_ACCUMULATION),
    "random-disturbance": (
        lambda: perturb(bouncing_ball()[0], 0.05), BALL_X0,
        SimConfig(h=1e-3, T_max=4.0, J_max=50,
                  disturbance=Disturbance.random_uniform_ball(11)),
        None, Termination.HORIZON_REACHED),
    "random-disturbance-compiled": (
        lambda: falling_mass(0.02), (10.0, 0.0),
        SimConfig(h=2e-3, T_max=4.0, J_max=100,
                  disturbance=Disturbance.random_uniform_ball(5)),
        None, Termination.HORIZON_REACHED),
    "fixed-disturbance": (
        lambda: perturb(bouncing_ball()[0], 0.05), BALL_X0,
        SimConfig(h=1e-3, T_max=4.0, J_max=50,
                  disturbance=Disturbance.fixed(wobble)),
        None, Termination.HORIZON_REACHED),
    "watch-exit": (lambda: bouncing_ball()[0], (0.0, 1.0, 0.0), WATCH_CFG,
                   box(x_hi=1.5), Termination.LEFT_WATCH_REGION),
    "bounds-escape-ball": (lambda: bouncing_ball()[0], (0.0, 5.0, 19.0),
                           WATCH_CFG, None, Termination.ESCAPED_BOUNDS),
    "bounds-escape": (escaping_growth, (1.0,),
                      SimConfig(h=1e-3, T_max=10.0), None,
                      Termination.ESCAPED_BOUNDS),
    "left-flow-and-jump-sets": (leaving_interval, (0.5,),
                                SimConfig(h=1e-2, T_max=10.0), None,
                                Termination.LEFT_FLOW_AND_JUMP_SETS),
}


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_solve_matches_the_array_reference(case):
    make, x0, cfg, watch, termination = REFERENCE_CASES[case]
    system = make()
    got = solve(system, np.array(x0), cfg, watch=watch)
    want = solver_reference.solve(system, np.array(x0), cfg, watch=watch)
    same_solves(got, want)
    assert got.termination == termination
    if case == "ball-zeno-snap":
        assert got.zeno_snapped and got.jump_count > 10
    elif case != "left-flow-and-jump-sets" and "escape" not in case:
        assert got.jump_count >= 1


def test_mg_loop_matches_the_array_reference(monkeypatch):
    got, got_log = mg_closed_loop(horizon=3.0)[:2]
    monkeypatch.setattr(examples, "solve", solver_reference.solve)
    want, want_log = mg_closed_loop(horizon=3.0)[:2]
    same_solves(got, want)
    assert got.jump_count >= 6 and len(got_log) == len(want_log)


@pytest.mark.parametrize("mapped", ["flow", "jump", "Zeno", "listed-flow"])
@pytest.mark.parametrize("value", [[1.0], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0]],
                         ids=["length-1", "short", "long"])
def test_map_value_of_the_wrong_length_raises(mapped, value):
    # built without make_system, whose probe would catch a bad flow or jump
    # map first; the ball's first impact jumps, and with t_min past its
    # bounce gaps the second one snaps through the Zeno map
    if mapped == "flow":
        system = dataclasses.replace(raw_ball(),
                                     flow_map=lambda x: np.array(value))
    elif mapped == "listed-flow":
        # the solver calls the list form, the value of which is a list
        system = dataclasses.replace(
            raw_ball(), flow_map=from_floats(lambda xs: value))
        mapped = "flow"
    elif mapped == "jump":
        system = dataclasses.replace(raw_ball(),
                                     jump_map=lambda x: [np.array(value)])
    else:
        system = raw_ball(zeno_map=lambda x: np.array(value))
    cfg = SimConfig(h=1e-3, T_max=5.0, t_min=10.0)
    with pytest.raises(DimensionMismatch, match="%s map returned shape" % mapped):
        solve(system, np.array(BALL_X0), cfg)


@pytest.mark.parametrize("value", [[0.01], [0.01, 0.0]],
                         ids=["length-1", "short"])
def test_disturbance_of_the_wrong_length_raises(value):
    cfg = SimConfig(h=1e-3, T_max=1.0, disturbance=Disturbance.fixed(
        lambda t, j: np.array(value)))
    with pytest.raises(DimensionMismatch, match="disturbance signal"):
        solve(perturb(raw_ball(), 0.05), np.array(BALL_X0), cfg)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(h=-1.0)
    with pytest.raises(ValueError):
        SimConfig(h=1e-3, event_tol=1e-2)


def test_reachable_sample_at_time_zero_returns_initial_points():
    system, _, _ = bouncing_ball()
    X0 = AxisBox([0.0, 8.0, 0.0], [0.0, 9.0, 1.0])
    pts = reachable_sample(system, X0, 0.0, n_init=5, n_dist=2,
                           config=SimConfig(h=1e-3, T_max=1.0))
    assert len(pts) >= 5
    for p in pts:
        assert 8.0 <= p[1] <= 9.0 and 0.0 <= p[2] <= 1.0 and p[0] == 0.0


def test_reachable_sample_no_disturbance_draws_coincide():
    system, _, spec = bouncing_ball()
    X0 = Ball(spec.x0[0], 0.0)
    pts1 = reachable_sample(system, X0, 2.0, n_init=1, n_dist=1,
                            config=SimConfig(h=1e-3, T_max=3.0, J_max=5), seed=1)
    pts3 = reachable_sample(system, X0, 2.0, n_init=1, n_dist=3,
                            config=SimConfig(h=1e-3, T_max=3.0, J_max=5), seed=1)
    assert len(pts3) == 3 * len(pts1)
    stack = np.asarray(pts3).reshape(3, len(pts1), 3)
    assert np.array_equal(stack[0], stack[1]) and np.array_equal(stack[1], stack[2])


def test_reachable_sample_covers_first_impact():
    system, _, spec = bouncing_ball()
    X0 = Ball(spec.x0[0], 0.0)
    pts = reachable_sample(system, X0, 2.0, n_init=1, n_dist=1,
                           config=SimConfig(h=1e-3, T_max=3.0, J_max=5))
    assert min(abs(p[1]) for p in pts) <= 1e-9


def test_closeness_reflexive():
    arc = solve(linear_decay(), np.array([1.0]), SimConfig(h=1e-2, T_max=1.0)).arc
    assert closeness(arc, arc, 5.0, 1e-12)


def test_closeness_constant_offset_threshold():
    sys1 = make_system(
        1, AxisBox([-10.0], [10.0]), lambda x: np.array([0.0]),
        EmptySet(), lambda x: [], AxisBox([-20.0], [20.0]),
    )
    cfg = SimConfig(h=0.1, T_max=1.0)
    a = solve(sys1, np.array([0.0]), cfg).arc
    b = solve(sys1, np.array([0.5]), cfg).arc
    assert closeness(a, b, 2.0, 0.51)
    assert not closeness(a, b, 2.0, 0.49)


def test_closeness_fails_on_shifted_jump_times():
    system = raw_ball()
    cfg = SimConfig(h=1e-3, T_max=2.0, J_max=3)
    a = solve(system, np.array([0.0, 9.0, 0.8]), cfg).arc
    b = solve(system, np.array([0.0, 9.5, 0.8]), cfg).arc
    # first impacts differ by ~0.037 time units, far beyond eps
    assert not closeness(a, b, 3.0, 0.01)


def test_closeness_monotone_in_eps():
    system = raw_ball()
    cfg = SimConfig(h=1e-3, T_max=2.0, J_max=3)
    a = solve(system, np.array([0.0, 9.0, 0.8]), cfg).arc
    b = solve(system, np.array([0.0, 9.01, 0.8]), cfg).arc
    results = [closeness(a, b, 3.0, eps) for eps in (1e-4, 1e-2, 0.5)]
    for earlier, later in zip(results, results[1:]):
        assert later or not earlier


# Scalar reference for closeness: one Python call per polyline segment.
# The array form in simulate must return the same booleans; its distances
# may differ from these in the last bits, since np.dot may sum in another
# order or fuse multiply-adds.

def ref_point_segment_dist(p, a, b):
    ab = b - a
    denom = float(np.dot(ab, ab))
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    s = float(np.dot(p - a, ab)) / denom
    s = min(1.0, max(0.0, s))
    return float(np.linalg.norm(p - (a + s * ab)))


def ref_window_dist(x, times, states, s0, s1):
    t_lo, t_hi = times[0], times[-1]
    s0 = max(s0, t_lo)
    s1 = min(s1, t_hi)
    if s0 > s1:
        return None

    def interp(s):
        k = int(np.searchsorted(times, s, side="right")) - 1
        k = min(max(k, 0), len(times) - 2) if len(times) > 1 else 0
        if len(times) == 1:
            return states[0]
        t0, t1 = times[k], times[k + 1]
        w = 0.0 if t1 == t0 else (s - t0) / (t1 - t0)
        return states[k] + w * (states[k + 1] - states[k])

    pa = interp(s0)
    if s1 == s0:
        return float(np.linalg.norm(x - pa))
    best = np.inf
    prev = pa
    inside = (times > s0) & (times < s1)
    for idx in np.nonzero(inside)[0]:
        best = min(best, ref_point_segment_dist(x, prev, states[idx]))
        prev = states[idx]
    best = min(best, ref_point_segment_dist(x, prev, interp(s1)))
    return best


def ref_one_sided_close(src, dst, tau, eps):
    for j, t, x in src.samples():
        if t + j > tau:
            continue
        if j >= dst.num_phases:
            return False
        times, states = dst.phases[j]
        d = ref_window_dist(x, times, states, t - eps, t + eps)
        if d is None or d >= eps:
            return False
    return True


def ref_closeness(arc_a, arc_b, tau, eps):
    return ref_one_sided_close(arc_a, arc_b, tau, eps) and ref_one_sided_close(
        arc_b, arc_a, tau, eps
    )


def assert_same_window_dist(x, times, states, s0, s1):
    got = _window_dist(x, times, states, s0, s1)
    want = ref_window_dist(x, times, states, s0, s1)
    if want is None:
        assert got is None
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("times, s0, s1", [
    ([0.0], -0.5, 0.5),  # single-sample phase
    ([0.0, 1.0, 2.0], 2.5, 3.0),  # window past the phase: None
    ([0.0, 1.0, 2.0], -3.0, -0.5),  # window before the phase: None
    ([0.0, 1.0, 2.0], 1.5, 1.5),  # s0 == s1 inside a segment
    ([0.0, 1.0, 2.0], 1.0, 1.0),  # s0 == s1 on a sample
    ([0.0, 1.0, 2.0], 2.0, 3.0),  # window touching the last sample
    ([0.0, 1.0, 2.0], 0.25, 0.75),  # no sample strictly inside
    ([0.0, 0.5, 1.0, 1.5, 2.0], -1.0, 3.0),  # whole phase
    ([0.0, 0.5, 1.0, 1.5, 2.0], 0.5, 1.5),  # ends on samples
], ids=["single-sample", "after", "before", "point-in-segment",
        "point-on-sample", "touch-end", "inside-one-segment", "whole",
        "ends-on-samples"])
def test_window_dist_matches_scalar_reference(times, s0, s1):
    rng = np.random.default_rng(len(times))
    times = np.asarray(times)
    states = rng.standard_normal((times.size, 3))
    if times.size > 2:
        states[2] = states[1]  # a zero-length segment
    for x in rng.standard_normal((8, 3)):
        assert_same_window_dist(x, times, states, s0, s1)


def test_closeness_fails_where_destination_lacks_the_phase():
    two = HybridArc([([0.0, 1.0], [[0.0], [0.0]]),
                     ([1.0, 2.0], [[0.0], [0.0]])],
                    termination=Termination.HORIZON_REACHED)
    one = HybridArc([([0.0, 2.0], [[0.0], [0.0]])],
                    termination=Termination.HORIZON_REACHED)
    assert not closeness(two, one, 5.0, 0.5)
    assert not ref_closeness(two, one, 5.0, 0.5)
    # the extra phase lies past tau, so no sample asks for it
    assert closeness(two, one, 1.5, 0.5) and ref_closeness(two, one, 1.5, 0.5)


@st.composite
def arc_pairs(draw):
    """Two arcs of 1-3 phases with 1-40 samples each, states on random walks
    whose zero steps repeat a state; the second arc is either a noisy copy
    of the first, possibly missing its last phase, or independent."""
    dim = draw(st.integers(1, 3))

    def arc(phase_sizes):
        phases, t_prev, x = [], 0.0, np.zeros(dim)
        for m in phase_sizes:
            steps = draw(st.lists(st.floats(0.01, 0.5),
                                  min_size=m - 1, max_size=m - 1))
            times = np.concatenate([[t_prev], t_prev + np.cumsum(steps)])
            moves = draw(st.lists(
                st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim),
                min_size=m, max_size=m))
            states = x + np.cumsum(np.asarray(moves).reshape(m, dim), axis=0)
            phases.append((times, states))
            t_prev, x = times[-1], states[-1]
        return HybridArc(phases, termination=Termination.HORIZON_REACHED)

    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
    a = arc(sizes)
    if draw(st.booleans()):
        return a, arc(draw(st.lists(st.integers(1, 40), min_size=1,
                                    max_size=3)))
    noise = draw(st.floats(0.0, 0.2))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    keep = a.num_phases - draw(st.integers(0, a.num_phases - 1))
    b = HybridArc(
        [(t, x + noise * rng.standard_normal(x.shape))
         for t, x in a.phases[:keep]],
        termination=Termination.HORIZON_REACHED,
    )
    return a, b


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(pair=arc_pairs(), tau=st.floats(0.0, 30.0), eps=st.floats(0.0, 2.0))
def test_closeness_matches_scalar_reference(pair, tau, eps):
    a, b = pair
    assert closeness(a, b, tau, eps) == ref_closeness(a, b, tau, eps)


def c08_arc_and_companion(seed=1):
    """The c08 arc and a companion started 1e-2 away in a seeded direction,
    rejoining at total time 2."""
    system, _, spec = bouncing_ball()
    x0 = np.asarray(spec.x0[0])
    arc = solve(system, x0, SimConfig(h=1e-3, T_max=3.0, J_max=5)).arc
    v = np.random.default_rng([seed, 2]).standard_normal(3)
    x_new = x0 + 1e-2 * v / np.linalg.norm(v)
    return arc, construct_perturbed(arc, x_new, 2.0)


@pytest.mark.parametrize("eps, close", [(0.05, True), (1e-3, False)])
def test_closeness_of_c08_companion_matches_reference(eps, close):
    arc, psi = c08_arc_and_companion()
    assert closeness(arc, psi, 2.0, eps) is close
    assert ref_closeness(arc, psi, 2.0, eps) is close


class PhaseLog(list):
    """Phases of a probed arc: records which phases were handed out."""

    def __init__(self, phases):
        super().__init__(phases)
        self.read = set()

    def __getitem__(self, j):
        self.read.add(j)
        return super().__getitem__(j)

    def __iter__(self):
        return (self[j] for j in range(len(self)))


def test_closeness_reads_no_source_sample_past_tau():
    arc, psi = c08_arc_and_companion()
    tau = 1.0  # inside phase 0; phase 1 starts at t + j ~ 2.44
    times, states = arc.phases[0]
    past = times > tau
    # past tau the source runs far from the companion, so any sample there
    # that is scanned fails
    poisoned = states.copy()
    poisoned[past] += 100.0
    probe = HybridArc([(times, poisoned)] + arc.phases[1:],
                      termination=arc.termination)
    assert not _one_sided_close(probe, psi, times[past][0], 0.05)
    probe.phases = PhaseLog(probe.phases)
    assert _one_sided_close(probe, psi, tau, 0.05)
    assert probe.phases.read == {0}


def test_construct_perturbed_zero_offset_reproduces_truncation():
    system, _, spec = bouncing_ball()
    arc = solve(system, np.asarray(spec.x0[0]),
                SimConfig(h=1e-3, T_max=3.0, J_max=5)).arc
    psi = construct_perturbed(arc, arc.phases[0][1][0].copy(), 2.0)
    for (tp, xp), (ta, xa) in zip(psi.phases, arc.phases):
        n = len(tp)
        assert np.array_equal(np.asarray(tp), np.asarray(ta[:n]))
        assert np.array_equal(np.asarray(xp), np.asarray(xa[:n]))


def test_construct_perturbed_linear_decay_schedule():
    system, _, spec = bouncing_ball()
    x0 = np.asarray(spec.x0[0])
    arc = solve(system, x0, SimConfig(h=1e-3, T_max=3.0, J_max=5)).arc
    r = 1e-3
    offs = np.array([1.0, 1.0, -1.0]) / math.sqrt(3.0) * r
    T = 2.0
    psi = construct_perturbed(arc, x0 + offs, T)
    assert np.array_equal(psi.phases[0][1][0], x0 + offs)
    # deviation at a stored sample scales with remaining total time
    times0 = np.asarray(psi.phases[0][0])
    k = int(np.argmin(np.abs(times0 - 1.0)))
    dev = np.linalg.norm(psi.phases[0][1][k] - arc.phases[0][1][k])
    lam = 1.0 - float(times0[k]) / T
    assert dev == pytest.approx(lam * r, rel=1e-9)


def test_construct_perturbed_rejoins_bitwise():
    system, _, spec = bouncing_ball()
    x0 = np.asarray(spec.x0[0])
    arc = solve(system, x0, SimConfig(h=1e-3, T_max=3.0, J_max=5)).arc
    psi = construct_perturbed(arc, x0 + np.array([1e-2, 1e-2, -1e-2]), 2.0)
    # every retained sample at total time >= T matches the original exactly
    matched = 0
    for j, (tp, xp) in enumerate(psi.phases):
        ta, xa = arc.phases[j]
        for t, x in zip(np.asarray(tp), np.asarray(xp)):
            if t + j >= 2.0:
                k = int(np.argmin(np.abs(np.asarray(ta) - t)))
                assert np.array_equal(x, xa[k])
                matched += 1
    assert matched >= 1


def ref_construct_perturbed(arc, x_new, T):
    """construct_perturbed sample by sample, the loop the array form must
    reproduce bit for bit."""
    offset = x_new - arc.phases[0][1][0]
    phases = []
    for j, (times, states) in enumerate(arc.phases):
        keep = times + j < T
        ts = list(times[keep])
        xs = [states[k] for k in np.nonzero(keep)[0]]
        if np.all(keep):
            phases.append((ts, xs, j))
            continue
        t_star = T - j
        if ts:
            ts.append(t_star)
            xs.append(arc.eval(t_star, j))
        else:
            ts.append(float(times[0]))
            xs.append(states[0])
        phases.append((ts, xs, j))
        break
    out = []
    for ts, xs, j in phases:
        shifted = []
        for t, x in zip(ts, xs):
            lam = max(0.0, 1.0 - (t + j) / T)
            if j == 0 and t == 0.0:
                shifted.append(x_new.copy())
            elif lam > 0.0:
                shifted.append(x + lam * offset)
            else:
                shifted.append(np.array(x, dtype=float))
        out.append((np.array(ts), np.vstack(shifted)))
    return out


# T = 2 rejoins before phase 1's first sample (t + j ~ 2.44); T = 3 carries
# a nonzero shift across the jump and rejoins inside phase 1
@pytest.mark.parametrize("T", [2.0, 3.0])
def test_construct_perturbed_matches_the_loop_form_bitwise(T):
    system, _, spec = bouncing_ball()
    x0 = np.asarray(spec.x0[0])
    arc = solve(system, x0, SimConfig(h=1e-3, T_max=3.0, J_max=5)).arc
    x_new = x0 + np.array([3e-2, -2e-2, 1e-2])
    psi = construct_perturbed(arc, x_new, T)
    want = ref_construct_perturbed(arc, x_new, T)
    assert len(psi.phases) == len(want) == 2
    for (tp, xp), (tw, xw) in zip(psi.phases, want):
        assert tp.tobytes() == tw.tobytes()
        assert xp.tobytes() == xw.tobytes()
    if T > 2.5:
        assert not np.array_equal(psi.phases[1][1][0], arc.phases[1][1][0])


def test_construct_perturbed_needs_long_enough_arc():
    arc = solve(linear_decay(), np.array([1.0]), SimConfig(h=1e-2, T_max=1.0)).arc
    with pytest.raises(HorizonTooShort):
        construct_perturbed(arc, np.array([1.1]), 5.0)


def test_verify_solution_accepts_solver_output():
    system, _, spec = bouncing_ball()
    rep = solve(system, np.asarray(spec.x0[0]),
                SimConfig(h=1e-3, T_max=3.0, J_max=5))
    assert verify_solution(system, rep.arc).passed


def test_verify_solution_inclusion_monotone():
    # a nominal solution is also a solution of any inflated system
    system, _, spec = bouncing_ball()
    rep = solve(system, np.asarray(spec.x0[0]),
                SimConfig(h=1e-3, T_max=3.0, J_max=5))
    assert verify_solution(perturb(system, 0.1), rep.arc).passed


def test_verify_solution_flags_displaced_sample():
    system, _, spec = bouncing_ball()
    rep = solve(system, np.asarray(spec.x0[0]),
                SimConfig(h=1e-3, T_max=3.0, J_max=5))
    delta = 0.01
    rep.arc.phases[0][1][100] = rep.arc.phases[0][1][100] + np.array(
        [0.0, 10.0 * delta, 0.0]
    )
    res = verify_solution(perturb(system, delta), rep.arc)
    assert not res.passed
    assert res.counterexamples


def test_slope_defect_scales_quadratically_in_h():
    sys1 = make_system(
        1, AxisBox([-10.0], [10.0]),
        lambda x: np.array([math.sin(x[0]) + 1.2]),
        EmptySet(), lambda x: [], AxisBox([-20.0], [20.0]),
    )

    def minimal_tol(h):
        arc = solve(sys1, np.array([0.0]), SimConfig(h=h, T_max=1.0)).arc
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if verify_solution(sys1, arc, slope_tol=mid).passed:
                hi = mid
            else:
                lo = mid
        return hi

    d_coarse, d_fine = minimal_tol(4e-3), minimal_tol(1e-3)
    assert 8.0 <= d_coarse / d_fine <= 32.0


def test_estimate_lipschitz_on_linear_map():
    box = AxisBox([-2.0], [2.0])
    L = estimate_lipschitz(lambda x: -2.0 * x, box, n_pairs=500, seed=0)
    assert L == pytest.approx(2.0, rel=1e-9)


def test_companion_radius_bound_formula():
    r = companion_radius_bound(0.1, 2.0, 1.0, 1.0)
    assert r == pytest.approx(0.1 / 2.0)
    # the 1/tau term dominates for short rejoin horizons
    r2 = companion_radius_bound(0.1, 0.1, 1.0, 1.0)
    assert r2 == pytest.approx(0.1 / 11.0)
    with pytest.raises(ValueError):
        companion_radius_bound(0.1, 1.0, 1.0, 1.0, delta_prime=0.1)


def test_companion_within_radius_bound_verifies():
    system, _, spec = bouncing_ball()
    x0 = np.asarray(spec.x0[0])
    arc = solve(system, x0, SimConfig(h=1e-3, T_max=3.0, J_max=5)).arc
    box = ball_operating_box()
    L_C = estimate_lipschitz(system.flow, box)
    L_D = estimate_lipschitz(lambda x: system.jump_candidates(x)[0], box)
    delta, T = 0.05, 2.0
    r = companion_radius_bound(delta, T, L_C, L_D)
    psi = construct_perturbed(arc, x0 + np.array([0.0, r, 0.0]), T)
    assert verify_solution(perturb(system, delta), psi).passed
