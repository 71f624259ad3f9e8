"""Solver behavior: events, Zeno handling, batches, companions, verification."""

import dataclasses
import functools
import hashlib
import math
import struct

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import grid_reference
import solver_reference
from test_cli import FALLING_MASS_SCENARIO
from test_expressions import sources_over

from hybridcert import (
    AxisBox,
    BadInitialCondition,
    Ball,
    Complement,
    DimensionMismatch,
    Disturbance,
    EmptySet,
    GridSpec,
    HorizonTooShort,
    HybridArc,
    HybridSystem,
    Implicit,
    Inflated,
    RASSpec,
    SetRegion,
    SimConfig,
    SolveReport,
    StabSafeSpec,
    Termination,
    Union,
    Verdict,
    bouncing_ball,
    ball_operating_box,
    check_pair_VB,
    check_single_V,
    closeness,
    companion_radius_bound,
    construct_perturbed,
    estimate_lipschitz,
    make_proper_indicator,
    make_system,
    perturb,
    predicate_fn,
    reachable_sample,
    solve,
    solve_many,
    verify_solution,
)

from hybridcert import cli, controller, examples, simulate, vector_fn
from hybridcert.examples import mg_closed_loop
from hybridcert.monitor import _first_hit
from hybridcert.simulate import _one_sided_close, _rk4_fns, _window_dist

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


def counted_rk4_steps(monkeypatch):
    """The list to which solve's RK4 work appends "step" for every step of
    the flow stretch of _rk4_fns, which draws its disturbance once, and
    "probe" for every bisection probe, a step of _rk4_fns that shares the
    first stage of the step it refines."""
    work = []
    rk4_fns = simulate._rk4_fns

    def counted_rk4_fns(*shape):
        step, stretch = rk4_fns(*shape)

        def counted_step(f, x, k1, dt, d):
            work.append("probe")
            return step(f, x, k1, dt, d)

        def counted_stretch(f, draw, *args):
            def counted_draw(t, j):
                work.append("step")
                return draw(t, j)

            return stretch(f, counted_draw, *args)

        return counted_step, counted_stretch

    monkeypatch.setattr(simulate, "_rk4_fns", counted_rk4_fns)
    return work


def test_solve_asks_the_jump_set_once_per_rk4_step_with_events(monkeypatch):
    system, jump_set, flows = counted(raw_ball())
    work = counted_rk4_steps(monkeypatch)
    rep = solve(system, np.array([0.0, 9.0, 0.8]),
                SimConfig(h=1e-3, T_max=4.0))
    assert rep.jump_count >= 2
    rk4_steps = len(work)  # plain steps and bisection probes
    steps = work.count("step")
    probes = rk4_steps - steps
    assert probes > 0
    # four flow calls per step, three per probe (k1 is the step's)
    assert len(flows) == 4 * steps + 3 * probes
    # beyond one question per RK4 step: the loop top at t = 0, after each
    # jump and at each located jump-set entry
    assert jump_set.calls <= rk4_steps + 1 + 2 * rep.jump_count


def arc_digest(rep):
    """sha256 of a solve's stop reason and of every phase's bytes."""
    h = hashlib.sha256(rep.termination.name.encode())
    for times, states in rep.arc.phases:
        h.update(times.tobytes())
        h.update(states.tobytes())
    return h.hexdigest()


# (membership tests, flow calls, jumps, arc digest) of two ball runs from
# the spec's first start: the work of the step loop, pinned so that a
# rewrite of it provably asks the same questions in the same number
SOLVER_WORK = {
    "ball": (lambda: bouncing_ball()[0],
             SimConfig(h=1e-3, T_max=20.0, J_max=200),
             (61415, 83915, 51, "2910c5111937cd5a66584f135aec0a15"
                                "fe20913b8180718b2dfa525517c6bbcc")),
    "perturbed-ball": (lambda: perturb(bouncing_ball()[0], 0.05),
                       SimConfig(h=2e-3, T_max=10.0, J_max=200),
                       (15221, 20612, 8, "8be2cfcabfcc4d1fdfa007f103bbcda0"
                                         "5a96e700c9e16630781d47561cc4449b")),
}


@pytest.mark.parametrize("case", list(SOLVER_WORK))
def test_solve_keeps_its_work_and_its_arc(case):
    make, cfg, want = SOLVER_WORK[case]
    system = make()
    # membership is counted at the regions, whichever path asks them
    regions = [CountingRegion(r)
               for r in (system.flow_set, system.jump_set, system.bounds)]
    flows = []

    def counted_flow(xs):
        flows.append(1)
        return system.flow_map(xs)

    counted_system = dataclasses.replace(
        system, flow_set=regions[0], jump_set=regions[1], bounds=regions[2],
        flow_map=counted_flow)
    rep = solve(counted_system, np.asarray(bouncing_ball()[2].x0[0]), cfg)
    assert (sum(r.calls for r in regions), len(flows), rep.jump_count,
            arc_digest(rep)) == want


def test_solve_asks_the_module_contains_only_about_x0(monkeypatch):
    # every later question goes to each set's own bound test; a start
    # below the floor, in D only, needs all three x0 checks
    system = bouncing_ball()[0]
    x0 = np.array([0.0, -0.5, -3.0])
    asked = []
    real_contains = simulate.contains

    def counted_contains(region, x, tol):
        asked.append((region, x, tol))
        return real_contains(region, x, tol)

    monkeypatch.setattr(simulate, "contains", counted_contains)
    cfg = SimConfig(h=1e-3, T_max=20.0, J_max=200)
    rep = solve(system, x0, cfg)
    assert rep.jump_count > 2 and rep.arc.phases[-1][0][-1] == 20.0
    assert [(region, tol) for region, _, tol in asked] == [
        (system.bounds, 0.0), (system.flow_set, cfg.event_tol),
        (system.jump_set, 0.0)]
    assert all(x is x0 for _, x, _ in asked)


def textbook_rk4(f, x, dt, d):
    k1 = f(x) + d
    k2 = f(x + 0.5 * dt * k1) + d
    k3 = f(x + 0.5 * dt * k2) + d
    k4 = f(x + dt * k3) + d
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def float_rk4(f, x, dt, d):
    """The solver's RK4 step from the array x under the flow map f, as an
    array."""
    xs, d = x.tolist(), d.tolist()
    k1 = [y + e for y, e in zip(f(xs), d)]
    return np.array(_rk4_fns(len(xs), f, None, None, None)[0](
        f, xs, k1, dt, d))


def stretch_rk4(f, x, dt, d):
    """One plain step of the solver's flow stretch from the array x under
    the flow map f, as an array: the stretch runs from t = 0 to dt, and
    the sample it stores at dt is the step's."""
    xs, d = x.tolist(), d.tolist()
    times, states = [0.0], [xs]
    tests = (lambda y, tol: False, lambda y, tol: True, lambda y, tol: True)
    fired, *_ = _rk4_fns(len(xs), f, *tests)[1](
        f, lambda t, j: d, 0.0, xs, 0, dt, dt, 0.0, *tests, None, times,
        states)
    assert fired == simulate._HORIZON and times == [0.0, dt]
    return np.array(states[-1])


def on_arrays(f):
    """The flow map that calls the array map f on its state as an array."""
    return lambda ys: f(np.array(ys))


def test_rk4_step_is_the_textbook_combination_bitwise():
    def f(x):
        return np.array([x[1], -math.sin(x[0]) - 0.1 * x[1]])

    def f_floats(xs):
        return [xs[1], -math.sin(xs[0]) - 0.1 * xs[1]]

    x, d = np.array([0.7, -0.3]), np.array([1e-3, -2e-3])
    for dt in (1e-3, 0.05, 0.3):
        want = textbook_rk4(f, x, dt, d).tobytes()
        assert float_rk4(f_floats, x, dt, d).tobytes() == want
        assert float_rk4(on_arrays(f), x, dt, d).tobytes() == want
    assert x.tolist() == [0.7, -0.3]
    # a step never writes into the map's own result, which may be shared
    shared = [1.0, 2.0]
    float_rk4(lambda ys: shared, x, 0.1, d)
    assert shared == [1.0, 2.0]
    shared = np.array([1.0, 2.0])
    float_rk4(lambda ys: shared, x, 0.1, d)
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
        adapted = float_rk4(on_arrays(f), x, dt, d)
        stretched = stretch_rk4(f_floats, x, dt, d)
    nan = np.isnan(want)
    for form in (got, adapted, stretched):
        assert form.dtype == want.dtype and form.shape == want.shape
        # the same operations on the same operands; a NaN's sign is not
        # defined when two NaNs meet: CPython's float add keeps the second
        # operand's, numpy's array add the first's, so (0*inf) + nan is
        # -nan in one and nan in the other
        assert np.array_equal(np.isnan(form), nan)
        assert form[~nan].tobytes() == want[~nan].tobytes()


def compiled_mass():
    """The README's falling mass in the forms the kernel writes in: a
    vector_fn map, AxisBox flow set and bounds, and an Implicit jump set
    with a predicate_fn predicate."""
    variables = ("y", "z")
    return HybridSystem(
        dim=2,
        flow_set=AxisBox([0.0, -50.0], [100.0, 50.0]),
        flow_map=vector_fn(["z", "-9.8"], variables),
        jump_set=Implicit(predicate_fn("y <= 0 and z < 0", variables),
                          AxisBox([-1.0, -50.0], [0.0, 0.0])),
        jump_map=lambda xs: [[xs[0], -0.8 * xs[1]]],
        bounds=AxisBox([-1.0, -50.0], [100.0, 50.0]),
    )


class CountedBox(AxisBox):
    """An AxisBox whose own contains counts the questions asked of it."""

    def __init__(self, box):
        super().__init__(box.lo, box.hi)
        self.calls = 0

    def contains(self, x, tol=1e-9):
        self.calls += 1
        return super().contains(x, tol)


def test_a_replaced_flow_map_is_never_bypassed(monkeypatch):
    # a map put in place of the ball's, or a functools.wraps wrapper of
    # it, is called at every stage, with the same arc as a result
    system, _, spec = bouncing_ball()
    replaced, _, flows = counted(system)
    wrapped_flows = []

    @functools.wraps(system.flow_map)
    def wrapped(xs):
        wrapped_flows.append(1)
        return system.flow_map(xs)

    work = counted_rk4_steps(monkeypatch)
    cfg = SimConfig(h=1e-3, T_max=4.0)
    x0 = np.asarray(spec.x0[0])
    want = solve(system, x0, cfg).arc
    for other, calls in [
            (replaced, flows),
            (dataclasses.replace(system, flow_map=wrapped), wrapped_flows)]:
        work.clear()
        got = solve(other, x0, cfg)
        steps = work.count("step")
        probes = len(work) - steps
        assert got.jump_count >= 2 and probes > 0
        assert len(calls) == 4 * steps + 3 * probes
        assert same_arcs(got.arc, want)

    # the kernel writes in the compiled map, the boxes and the compiled
    # predicate; a functools.wraps wrapper of the map, an AxisBox subclass
    # with its own contains and a CountingRegion are each called as often
    # as they are where no form is written in, with the same arc
    mass = compiled_mass()
    x0 = np.array([5.0, 0.0])
    cfg = SimConfig(h=1e-3, T_max=4.0)
    want = solve(mass, x0, cfg).arc
    # every set a CountingRegion: nothing written in but the map
    sets = [CountingRegion(r)
            for r in (mass.flow_set, mass.jump_set, mass.bounds)]
    solve(dataclasses.replace(mass, flow_set=sets[0], jump_set=sets[1],
                              bounds=sets[2]), x0, cfg)
    flow_asks, jump_asks = sets[0].calls, sets[1].calls
    assert flow_asks > 0 and jump_asks > 0

    flows = []

    @functools.wraps(mass.flow_map)
    def wrapped_map(xs):
        flows.append(1)
        return mass.flow_map(xs)

    work.clear()
    got = solve(dataclasses.replace(mass, flow_map=wrapped_map), x0, cfg)
    steps = work.count("step")
    probes = len(work) - steps
    assert got.jump_count >= 2 and probes > 0
    assert len(flows) == 4 * steps + 3 * probes
    assert same_arcs(got.arc, want)

    box = CountedBox(mass.flow_set)
    got = solve(dataclasses.replace(mass, flow_set=box), x0, cfg)
    assert box.calls == flow_asks and same_arcs(got.arc, want)

    jump_set = CountingRegion(mass.jump_set)
    got = solve(dataclasses.replace(mass, jump_set=jump_set), x0, cfg)
    assert jump_set.calls == jump_asks and same_arcs(got.arc, want)


PARITY_NAMES = ("u", "v", "w")
# the expressions over each pair of the names, one strategy per pair
PARITY_SOURCES = {(a, b): sources_over(a, b)
                  for a in PARITY_NAMES for b in PARITY_NAMES}


@st.composite
def compiled_systems(draw):
    """(system, x0): dim 1 to 3; a vector_fn flow map and a predicate_fn
    jump predicate drawn from test_expressions' strategy, with its raising
    operators; an AxisBox flow set inside AxisBox bounds, some of their
    faces infinite; and a start inside the flow set, on or within
    event_tol past one of its faces, or not finite."""
    dim = draw(st.integers(1, 3))
    names = PARITY_NAMES[:dim]
    pairs = st.sampled_from([p for p in PARITY_SOURCES if p[1] in names
                             and p[0] in names])

    def expression():
        return draw(PARITY_SOURCES[draw(pairs)])

    # an entry 0 holds its coordinate, on a face or off it, without
    # disturbance: every proposal then screens as x0 does
    entries = [draw(st.sampled_from([expression(), "0"]))
               for _ in range(dim)]
    # true on about half the states, where it evaluates
    predicate = "(%s) > 1.0" % expression()
    # faces of 0.0 and -0.0 are equal keys: such boxes share a kernel
    half = st.one_of(st.just(math.inf), st.floats(0.5, 3.0),
                     st.sampled_from([0.0, -0.0]))
    lo = [-draw(half) for _ in range(dim)]
    hi = [draw(half) for _ in range(dim)]
    margin = st.one_of(st.just(math.inf), st.floats(0.0, 2.0))
    bounds_lo = [v - draw(margin) for v in lo]
    bounds_hi = [v + draw(margin) for v in hi]
    x0 = []
    for a, b in zip(lo, hi):
        faces = [v for v in (a, b, a - 5e-10, b + 5e-10) if math.isfinite(v)]
        x0.append(draw(st.one_of(st.floats(-0.5, 0.5),
                                 st.sampled_from(faces or [0.0]))))
    # rarely: a draw near the front of sampled_from's list is the likelier
    special = draw(st.sampled_from([None] * 12
                                   + [math.nan, math.inf, -math.inf]))
    if special is not None:
        x0[draw(st.integers(0, dim - 1))] = special
    system = HybridSystem(
        dim=dim,
        flow_set=AxisBox(lo, hi),
        flow_map=vector_fn(entries, names),
        jump_set=Implicit(predicate_fn(predicate, names),
                          AxisBox([-1.0] * dim, [1.0] * dim)),
        jump_map=lambda xs: [[0.5 * v for v in xs]],
        bounds=AxisBox(bounds_lo, bounds_hi),
        delta=draw(st.sampled_from([0.0, 0.05])),
    )
    return system, np.array(x0)


def solve_result(system, x0, cfg):
    """The solve's stop, jumps and phase bytes, or the type and message of
    the exception it raised."""
    try:
        rep = solve(system, x0, cfg)
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)
    return (rep.termination, rep.stopped_by, rep.jump_count,
            [(t.tobytes(), x.tobytes()) for t, x in rep.arc.phases])


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(case=compiled_systems())
def test_written_in_forms_solve_as_the_calls_they_replace(case):
    # the same system with its map and sets behind plain wrappers, which
    # the kernel calls: the same arc bit for bit, or the same error
    system, x0 = case
    called = dataclasses.replace(
        system, flow_map=lambda xs: system.flow_map(xs),
        flow_set=CountingRegion(system.flow_set),
        jump_set=CountingRegion(system.jump_set),
        bounds=CountingRegion(system.bounds))
    cfg = SimConfig(h=0.05, T_max=0.5, J_max=4,
                    disturbance=Disturbance(seed=7))
    # an event bisection between infinite states subtracts inf from inf
    with np.errstate(invalid="ignore"):
        assert solve_result(system, x0, cfg) == solve_result(called, x0,
                                                             cfg)


def test_a_deeply_nested_map_is_called():
    # too deep to be written out again, and as the compiled map has it
    for source in ["-" * 400 + "y", "y" + " + y" * 400]:
        f = vector_fn([source], ["y"])
        system = HybridSystem(1, AxisBox([-1e9], [1e9]), f, EmptySet(),
                              lambda xs: [], AxisBox([-2e9], [2e9]))
        called = dataclasses.replace(system, flow_map=lambda xs: f(xs))
        cfg = SimConfig(h=0.1, T_max=0.5)
        assert solve_result(system, [0.5], cfg) == solve_result(
            called, [0.5], cfg)


def test_kernels_are_kept_by_their_forms_up_to_their_bound():
    # a map compiled again (a scenario parsed again) is a new function
    # with the old kernel; distinct maps fill the cache to its bound only
    def decay(rate):
        return HybridSystem(1, AxisBox([-1.0], [1.0]),
                            vector_fn(["-%r * y" % rate], ["y"]), EmptySet(),
                            lambda xs: [], AxisBox([-2.0], [2.0]))

    cfg = SimConfig(h=0.1, T_max=0.2)
    solve(decay(0.5), [0.5], cfg)
    misses = simulate._generated.cache_info().misses
    solve(decay(0.5), [0.5], cfg)
    assert simulate._generated.cache_info().misses == misses
    for k in range(2 * simulate._KERNELS):
        solve(decay(k + 0.25), [0.5], cfg)
    info = simulate._generated.cache_info()
    assert info.currsize == info.maxsize == simulate._KERNELS


def test_a_scenario_parsed_again_finds_its_kernel_without_writing_it(
        monkeypatch):
    # its map, its predicate and its boxes are new objects of the old
    # forms: the kept kernel is found by them, and no source is written
    def falling_mass():
        return cli.parse_scenario(yaml.safe_load(FALLING_MASS_SCENARIO))

    first = falling_mass()
    want = solve(first.system, [10.0, 0.0], first.sim)
    misses = simulate._generated.cache_info().misses
    written = []
    real = simulate._written
    monkeypatch.setattr(simulate, "_written",
                        lambda *args: written.append(args) or real(*args))
    again = falling_mass()
    rep = solve(again.system, [10.0, 0.0], again.sim)
    assert simulate._generated.cache_info().misses == misses
    assert written == []
    assert arc_digest(rep) == arc_digest(want)


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
    # each shipped map returns Python floats on a list, and
    # HybridSystem.flow, its entry point for an array, keeps their bits;
    # the ball at rest on the floor too: y and z within 1e-9 of 0
    cases = [(bouncing_ball()[0].flow_map, x), (COMPILED_FLOW, x),
             (mg_augmented_flow(), mg)]
    for m, point in cases:
        value = m(list(point))
        system = HybridSystem(len(value), None, m, None, None, None)
        assert bits(value) == system.flow(np.array(point)).tobytes()


def test_first_impact_matches_quadratic_root():
    system, _, spec = bouncing_ball()
    rep = solve(system, np.asarray(spec.x0[0]),
                SimConfig(h=1e-3, T_max=2.0, J_max=5))
    t1 = float(rep.arc.phases[1][0][0])
    assert abs(t1 - FIRST_IMPACT) <= 1e-6
    z0, a, y0 = 0.8, 9.8, 9.0
    assert FIRST_IMPACT == (z0 + math.sqrt(z0 * z0 + 2 * a * y0)) / a


@pytest.mark.parametrize("J_max, T_max, stopped_by",
                         [(3, 20.0, "J_max"), (200, 2.0, "T_max")])
def test_a_horizon_stop_names_its_bound(J_max, T_max, stopped_by):
    system, _, spec = bouncing_ball()
    rep = solve(system, np.asarray(spec.x0[0]),
                SimConfig(h=1e-3, T_max=T_max, J_max=J_max))
    assert rep.termination == Termination.HORIZON_REACHED
    assert rep.stopped_by == stopped_by
    t_end, j_end, _ = rep.arc.last()
    assert (j_end == 3) if stopped_by == "J_max" else (t_end == 2.0)


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


def decay_arc():
    return solve(linear_decay(), np.array([1.0]),
                 SimConfig(h=0.1, T_max=3.0)).arc


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
    ("Ball.center", lambda v: Ball([0.0, v], 1.0),
     (math.nan, math.inf, -math.inf)),
    # an infinite face is a half-bounded box
    ("AxisBox.lo", lambda v: AxisBox([v, 0.0], [1.0, 1.0]), (math.nan, 2.0)),
    ("AxisBox.hi", lambda v: AxisBox([0.0, 0.0], [1.0, v]),
     (math.nan, -1.0)),
    ("Inflated.r", lambda v: Inflated(Ball([0.0], 1.0), v), (math.nan, -1.0)),
    ("check_single_V.tol", lambda v: _ball_grid_check(check_single_V, v),
     (math.nan, -1.0)),
    ("check_pair_VB.tol", lambda v: _ball_grid_check(check_pair_VB, v),
     (math.nan, -1.0)),
    ("closeness.tau", lambda v: closeness(decay_arc(), decay_arc(), v, 0.05),
     (math.nan, -1.0)),
    ("closeness.eps", lambda v: closeness(decay_arc(), decay_arc(), 2.0, v),
     (math.nan, 0.0, -1.0)),
    ("construct_perturbed.T",
     lambda v: construct_perturbed(decay_arc(), [0.5], v),
     (math.nan, 0.0, -1.0)),
    ("companion_radius_bound.delta",
     lambda v: companion_radius_bound(v, 1.0, 1.0, 1.0),
     (math.nan, math.inf, 0.0)),
    ("companion_radius_bound.delta_prime",
     lambda v: companion_radius_bound(0.1, 1.0, 1.0, 1.0, delta_prime=v),
     (math.nan, -math.inf, 0.1)),
    ("companion_radius_bound.tau",
     lambda v: companion_radius_bound(0.1, v, 1.0, 1.0), (math.nan, 0.0)),
    ("companion_radius_bound.lip_flow",
     lambda v: companion_radius_bound(0.1, 1.0, v, 0.0), (math.nan, -1.0)),
    ("companion_radius_bound.lip_jump",
     lambda v: companion_radius_bound(0.1, 1.0, 0.0, v), (math.nan, -1.0)),
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


@pytest.mark.parametrize("flow_set", [
    AxisBox([-1.0], [1.0]), AxisBox([-np.inf], [np.inf]),
], ids=["finite-faces", "infinite-faces"])
def test_a_flow_that_goes_nan_ends_in_a_termination(flow_set):
    # built without make_system, whose probe would reject the NaN flow
    system = HybridSystem(
        dim=1, flow_set=flow_set, flow_map=lambda x: [math.nan],
        jump_set=EmptySet(), jump_map=lambda x: [], bounds=flow_set,
    )
    rep = solve(system, np.array([0.0]), SimConfig(h=0.1, T_max=1.0))
    # every step of positive length lands on NaN, which no set contains
    assert rep.termination == Termination.LEFT_FLOW_AND_JUMP_SETS
    assert rep.flow_time == 0.0
    assert rep.arc.phases[0][1].tolist() == [[0.0]]


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
                    disturbance=Disturbance(seed=42))
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
                    disturbance=Disturbance(seed=5))
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
                     disturbance=Disturbance(seed=3))
    nominal = solve(system, np.asarray(spec.x0[0]), cfg0).arc
    noisy = solve(sysd, np.asarray(spec.x0[0]), cfgd).arc
    assert not np.array_equal(nominal.phases[0][1], noisy.phases[0][1])


def test_fixed_disturbance_is_norm_clamped():
    sys1 = make_system(
        1, AxisBox([-10.0], [10.0]), lambda x: np.array([0.0]),
        EmptySet(), lambda x: [], AxisBox([-20.0], [20.0]),
    )
    sig = lambda t, j: np.array([0.2])  # over the 0.05 budget, must clamp
    cfg = SimConfig(h=1e-2, T_max=1.0, disturbance=Disturbance(signal=sig))
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


def unit_flow_into(d_lo, jump_to):
    """x' = 1 on C = [0, 1] and D = [d_lo, 1.01], whose jump map goes to
    jump_to.  From 0.05 under UNIT_FLOW_CFG a step goes from 0.95 to 1.05,
    past D, so the event it finds is the C exit at 1, not a D entry."""
    return make_system(
        1, AxisBox([0.0], [1.0]), lambda x: np.array([1.0]),
        AxisBox([d_lo], [1.01]), lambda x: [np.array([jump_to])],
        AxisBox([-10.0], [10.0]),
    )


def first_float_past(hi, tol):
    """The least float v with v - hi > tol: a C exit at hi brackets it with
    x_in short of v and x_out at or past it."""
    v = hi + tol
    while not v - hi > tol:
        v = math.nextafter(v, math.inf)
    while math.nextafter(v, -math.inf) - hi > tol:
        v = math.nextafter(v, -math.inf)
    return v


UNIT_FLOW_CFG = SimConfig(h=0.1, T_max=3.0, J_max=3)


def wobble(t, j):
    return np.array([0.0, 0.1 * math.sin(7.0 * t), 0.2 * math.cos(3.0 * t)])


def c09_band():
    """c09's band of the ball: a native predicate with an sdf."""
    def pred(s):
        return 0.0 <= s[1] <= 0.1 and abs(s[2]) <= 2.0

    def sdf(s):
        dy = max(0.0 - s[1], s[1] - 0.1, 0.0)
        dz = max(0.0, abs(s[2]) - 2.0)
        return math.hypot(dy, dz)

    return Implicit(pred, AxisBox([0.0, 0.0, -2.0], [0.0, 0.1, 2.0]), sdf=sdf)


# a compiled scenario predicate over falling_mass's state, with no sdf
COMPILED_TARGET = Implicit(predicate_fn("z <= 3", ("y", "z")),
                           AxisBox([-1.0, -50.0], [100.0, 3.0]))


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
                  disturbance=Disturbance(seed=11)),
        None, Termination.HORIZON_REACHED),
    "random-disturbance-compiled": (
        lambda: falling_mass(0.02), (10.0, 0.0),
        SimConfig(h=2e-3, T_max=4.0, J_max=100,
                  disturbance=Disturbance(seed=5)),
        None, Termination.HORIZON_REACHED),
    "fixed-disturbance": (
        lambda: perturb(bouncing_ball()[0], 0.05), BALL_X0,
        SimConfig(h=1e-3, T_max=4.0, J_max=50,
                  disturbance=Disturbance(signal=wobble)),
        None, Termination.HORIZON_REACHED),
    "watch-exit": (lambda: bouncing_ball()[0], (0.0, 1.0, 0.0), WATCH_CFG,
                   box(x_hi=1.5), Termination.LEFT_WATCH_REGION),
    # the band under Inflated(band, event_tol), as estimate_invariant_core
    # watches it; the bounce from this start peaks above the band
    "watch-c09-band": (lambda: bouncing_ball()[0], (0.0, 0.02, -1.8),
                       SimConfig(h=2e-3, T_max=4.0, J_max=120),
                       Inflated(c09_band(), 1e-9),
                       Termination.LEFT_WATCH_REGION),
    # a compiled target under Inflated(target, event_tol), as check_ras
    # builds its target slack; the first bounce leaves at z > 3
    "watch-compiled-target": (falling_mass, (1.0, 0.0),
                              SimConfig(h=2e-3, T_max=8.0, J_max=100),
                              Inflated(COMPILED_TARGET, 1e-9),
                              Termination.LEFT_WATCH_REGION),
    "bounds-escape-ball": (lambda: bouncing_ball()[0], (0.0, 5.0, 19.0),
                           WATCH_CFG, None, Termination.ESCAPED_BOUNDS),
    "bounds-escape": (escaping_growth, (1.0,),
                      SimConfig(h=1e-3, T_max=10.0), None,
                      Termination.ESCAPED_BOUNDS),
    "left-flow-and-jump-sets": (leaving_interval, (0.5,),
                                SimConfig(h=1e-2, T_max=10.0), None,
                                Termination.LEFT_FLOW_AND_JUMP_SETS),
    # C exits whose bisection brackets D's face: the last state inside C
    # is in D, or only the first one past C is
    "c-exit-lands-inside-in-d": (lambda: unit_flow_into(0.9999, 0.05),
                                 (0.05,), UNIT_FLOW_CFG, None,
                                 Termination.HORIZON_REACHED),
    "c-exit-lands-outside-in-d": (
        lambda: unit_flow_into(first_float_past(1.0, 1e-9), 0.05), (0.05,),
        UNIT_FLOW_CFG, None, Termination.HORIZON_REACHED),
    # the jump lands outside C and D, and the loop top ends the run
    "jump-out-of-c-and-d": (lambda: unit_flow_into(0.9999, 5.0), (0.05,),
                            UNIT_FLOW_CFG, None,
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
    # only a horizon stop names a bound
    assert (got.stopped_by is None) == (
        termination != Termination.HORIZON_REACHED)
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


@pytest.mark.parametrize("mapped", ["flow", "jump", "Zeno", "listed-flow",
                                    "flow-call-2", "flow-call-3",
                                    "flow-call-4"])
@pytest.mark.parametrize("value", [[1.0], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0]],
                         ids=["length-1", "short", "long"])
def test_map_value_of_the_wrong_length_raises(mapped, value):
    # built without make_system, whose probe would catch a bad flow or jump
    # map first; the ball's first impact jumps, and with t_min past its
    # bounce gaps the second one snaps through the Zeno map
    if mapped.startswith("flow-call-"):
        # wrong only on the k-th call: stage k of the first step, so each
        # stage checks the length of its own value
        k, calls = int(mapped[-1]), []
        ball = raw_ball()

        def flow_map(xs):
            calls.append(1)
            return value if len(calls) == k else ball.flow_map(xs)

        system = dataclasses.replace(ball, flow_map=flow_map)
        mapped = "flow"
    elif mapped == "flow":
        system = dataclasses.replace(raw_ball(),
                                     flow_map=lambda x: np.array(value))
    elif mapped == "listed-flow":
        # a map whose value is a list rather than an array
        system = dataclasses.replace(raw_ball(), flow_map=lambda xs: value)
        mapped = "flow"
    elif mapped == "jump":
        system = dataclasses.replace(raw_ball(),
                                     jump_map=lambda x: [np.array(value)])
    else:
        system = raw_ball(zeno_map=lambda x: np.array(value))
    cfg = SimConfig(h=1e-3, T_max=5.0, t_min=10.0)
    with pytest.raises(DimensionMismatch, match="%s map returned shape" % mapped):
        solve(system, np.array(BALL_X0), cfg)


def _callback_spies():
    """(spy, took_lists): spy(name, fn) wraps fn to log each point it gets;
    took_lists(*names) asserts that exactly those callbacks ran since its
    last call, each time on a list of 3 Python floats."""
    seen = []

    def spy(name, fn):
        def user_code(x):
            seen.append((name, x))
            return fn(x)

        return user_code

    def took_lists(*names):
        assert {name for name, _ in seen} == set(names)
        for name, x in seen:
            assert type(x) is list and len(x) == 3, name
            assert all(type(v) is float for v in x), name
        seen.clear()

    return spy, took_lists


def _spied_ball_jump_set(spy):
    """The ball's jump set with its predicate and sdf spied on and no row
    forms, so that every point goes through the one-point callables."""
    jump = bouncing_ball()[0].jump_set
    return Implicit(spy("jump predicate", jump.pred), jump.bbox,
                    sdf=spy("jump sdf", jump.sdf))


def _spied_user_region(spy):
    return Implicit(
        spy("user predicate", lambda s: s[0] <= 1.5),
        AxisBox([-50.0, -1.0, -20.0], [1.5, 15.0, 20.0]),
        sdf=spy("user sdf", lambda s: max(0.0, s[0] - 1.5)),
        complement_sdf=spy("user complement sdf",
                           lambda s: max(0.0, 1.5 - s[0])))


def test_the_solver_and_checks_hand_every_callback_a_list_of_floats():
    # the flow, jump and Zeno maps, the jump set's predicate and a watch
    # region's predicate and sdf get each state as a list of dim Python
    # floats: from make_system's probe, the solver, verify_solution and the
    # pair check's jump images.  The disturbance signal gets (t, j), a
    # float and an int.
    spy, took_lists = _callback_spies()
    ball = bouncing_ball()[0]
    system = make_system(3, ball.flow_set, spy("flow map", ball.flow_map),
                         _spied_ball_jump_set(spy),
                         spy("jump map", ball.jump_map), ball.bounds)
    took_lists("flow map", "jump predicate", "jump map")
    system = dataclasses.replace(system,
                                 zeno_map=spy("Zeno map", ball.zeno_map))
    times = []

    def signal(t, j):
        times.append((t, j))
        return [0.0, 0.0, 0.0]

    # the second bounce gap (0.72) is below t_min: that jump snaps to rest
    cfg = SimConfig(h=2e-3, T_max=3.0, J_max=50, t_min=0.75,
                    disturbance=Disturbance(signal=signal))
    rep = solve(system, np.array([0.0, 1.0, 0.0]), cfg,
                watch=Inflated(_spied_user_region(spy), 1e-9))
    assert rep.zeno_snapped and rep.jump_count == 2
    assert rep.termination == Termination.LEFT_WATCH_REGION
    assert times and all(type(t) is float and type(j) is int
                         for t, j in times)
    took_lists("flow map", "jump predicate", "jump map", "Zeno map",
               "user predicate", "user sdf")

    check = verify_solution(system, rep.arc, t_min=0.75)
    assert check.verdict.value == "PASS" and check.stats["zeno_snaps"] == 1
    took_lists("flow map", "jump predicate", "jump map", "Zeno map")

    ss = StabSafeSpec(x0=[np.array([0.0, 5.0, 0.0])],
                      unsafe=AxisBox([-1.0, 9.5, -14.0], [21.0, 10.0, 14.0]),
                      attractor=examples.ball_attractor())
    box = ball_operating_box()
    check_pair_VB(perturb(system, 0.0), bouncing_ball()[1], ss,
                  GridSpec(box.lo, box.hi, (2, 3, 3)))
    took_lists("flow map", "jump predicate", "jump map")


def test_region_forms_hand_every_callable_a_list_of_floats():
    # the package's callables (the ball's jump set, a compiled scenario
    # predicate) and user code (an Implicit with a complement_sdf, a
    # Complement over it, a ProperIndicator) get each point the same way,
    # as a list of dim Python floats, from the one-point and array forms
    # of a region and of an inflated one
    spy, took_lists = _callback_spies()
    jump_set = _spied_ball_jump_set(spy)
    user = _spied_user_region(spy)
    compiled = cli.parse_set(
        {"kind": "implicit", "predicate": "y <= 0.1 and z < 0",
         "bbox": {"lo": [-1.0, 0.0, -1.0], "hi": [1.0, 0.1, 0.0]}},
        ["x", "y", "z"])
    scenario_set = Implicit(spy("compiled predicate", compiled.pred),
                            compiled.bbox)
    X = np.array([[0.0, 0.05, -1.0], [2.0, 0.5, 0.5], [0.0, 0.0, 0.0]])
    for region in (jump_set, scenario_set, user, Complement(user)):
        for shell in (region, Inflated(region, 0.25)):
            shell.contains_many(X, 0.25)
            for x in X:
                shell.contains(x, 0.25)
                shell.contains(x.tolist(), 0.25)
    for region in (jump_set, user, Complement(user)):
        region.distance_many(X)
        for x in X:
            region.distance(x)
    took_lists("jump predicate", "jump sdf", "compiled predicate",
               "user predicate", "user sdf", "user complement sdf")

    omega = make_proper_indicator(Ball([0.0, 0.0, 0.0], 0.1), user)
    for x in X:
        omega(x)
    took_lists("user complement sdf")


def test_maps_that_modify_their_argument_leave_the_arc_unchanged():
    # the jump and Zeno maps get a copy of the solver's state: a map that
    # writes to its argument changes nothing the solver keeps
    ball = bouncing_ball()[0]

    def scribbling(fn):
        def user_code(x):
            out = fn(list(x))
            x[:] = [1e300] * len(x)
            return out

        return user_code

    system = dataclasses.replace(ball, jump_map=scribbling(ball.jump_map),
                                 zeno_map=scribbling(ball.zeno_map))
    cfg = SimConfig(h=2e-3, T_max=3.0, J_max=50, t_min=0.75)
    x0 = np.array([0.0, 1.0, 0.0])
    want = solve(ball, x0, cfg)
    got = solve(system, x0, cfg)
    assert got.zeno_snapped and got.jump_count == want.jump_count == 2
    assert got.termination == want.termination
    assert len(got.arc.phases) == len(want.arc.phases)
    for (ta, xa), (tb, xb) in zip(got.arc.phases, want.arc.phases):
        assert ta.tobytes() == tb.tobytes()
        assert xa.tobytes() == xb.tobytes()


@pytest.mark.parametrize("value", [[0.01], [0.01, 0.0]],
                         ids=["length-1", "short"])
def test_disturbance_of_the_wrong_length_raises(value):
    cfg = SimConfig(h=1e-3, T_max=1.0, disturbance=Disturbance(signal=
        lambda t, j: np.array(value)))
    with pytest.raises(DimensionMismatch, match="disturbance signal"):
        solve(perturb(raw_ball(), 0.05), np.array(BALL_X0), cfg)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(h=-1.0)
    with pytest.raises(ValueError):
        SimConfig(h=1e-3, event_tol=1e-2)


@pytest.mark.parametrize("t_min", [math.nan, -1.0])
def test_sim_config_rejects_a_t_min_that_would_turn_off_the_zeno_rule(t_min):
    # such a t_min makes no jump gap short: the raw ball would run its
    # 1000 jumps to the horizon instead of stopping in a Zeno accumulation
    with pytest.raises(ValueError, match="t_min"):
        SimConfig(h=1e-3, T_max=10.0, J_max=1000, t_min=t_min)
    rep = solve(raw_ball(), np.array([0.0, 1.0, 0.0]),
                SimConfig(h=1e-3, T_max=10.0, J_max=1000, t_min=1e-6))
    assert rep.termination == Termination.ZENO_ACCUMULATION
    assert rep.jump_count == 62


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


def test_window_ends_are_the_states_arc_eval_gives():
    # a window [t, t] inside a segment is the single vertex at t, so the
    # state eval(t, j) lies at distance 0 from it exactly when closeness
    # reads the same state there as HybridArc.eval, to the bit; so does a
    # window that starts at t, whose first vertex is that state
    system, _, spec = bouncing_ball()
    arc = solve(system, np.asarray(spec.x0[0]),
                SimConfig(h=1e-3, T_max=3.0, J_max=5)).arc
    rng = np.random.default_rng(0)
    for j, (times, states) in enumerate(arc.phases):
        for t in rng.uniform(times[0], times[-1], 100):
            x = arc.eval(t, j)
            assert _window_dist(x, times, states, t, t) == 0.0
            assert _window_dist(x, times, states, t, t + 0.01) == 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_segment_dist_is_the_scalar_reference_to_the_bit(dim):
    rng = np.random.default_rng(dim)
    n = 5000
    scale = 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
    x, a, b = (scale * rng.standard_normal((n, dim)) for _ in range(3))
    b[::10] = a[::10]  # zero-length segments
    got = np.sqrt(simulate._segment_dist2(x, a, b))
    want = np.array([ref_point_segment_dist(*row) for row in zip(x, a, b)])
    assert got.tobytes() == want.tobytes()


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
@given(pair=arc_pairs(), tau=st.floats(0.0, 30.0),
       eps=st.floats(0.0, 2.0, exclude_min=True))
def test_closeness_matches_scalar_reference(pair, tau, eps):
    a, b = pair
    assert closeness(a, b, tau, eps) == ref_closeness(a, b, tau, eps)


def c08_arc():
    """The ball's system and its 3 s arc from its first initial point."""
    system, _, spec = bouncing_ball()
    x0 = np.asarray(spec.x0[0])
    return system, solve(system, x0, SimConfig(h=1e-3, T_max=3.0,
                                               J_max=5)).arc


def c08_arc_and_companion(seed=1):
    """The c08 arc and a companion started 1e-2 away in a seeded direction,
    rejoining at total time 2."""
    _, arc = c08_arc()
    x0 = arc.phases[0][1][0]
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


# a map that cannot be evaluated matches no arc: a NaN slope or landing
# margin is a violation
def nan_flow(system):
    return dataclasses.replace(
        system, flow_map=lambda x: [math.nan] * len(x),
        flow_map_rows=lambda X: np.full(np.shape(X), math.nan))


def nan_jump(system):
    return dataclasses.replace(system,
                               jump_map=lambda x: [[math.nan] * len(x)])


@pytest.mark.parametrize("broken, condition", [
    (nan_flow, "flow-slope"), (nan_jump, "jump-landing")])
def test_verify_solution_fails_against_a_nan_map(broken, condition):
    system, arc = c08_arc()
    res = verify_solution(broken(system), arc)
    assert res.verdict == Verdict.FAIL
    assert condition in {ce.condition for ce in res.counterexamples}


def unit_flow_arc():
    """One jump of unit_flow_into(0.9999, 0.05): phase 0 climbs from 0.05
    to D at 1, phase 1 starts at the jump image 0.05."""
    system = unit_flow_into(0.9999, 0.05)
    rep = solve(system, np.array([0.05]),
                SimConfig(h=0.1, T_max=1.5, J_max=1))
    assert rep.arc.num_phases == 2
    assert verify_solution(system, rep.arc).passed
    return system, rep.arc


def tampered(arc, j, k, value, termination=None):
    """arc with sample k of phase j set to value."""
    phases = [(times.copy(), states.copy()) for times, states in arc.phases]
    phases[j][1][k] = value
    return HybridArc(phases, termination or arc.termination)


def only(res, condition):
    [ce] = [ce for ce in res.counterexamples if ce.condition == condition]
    return ce


def test_verify_solution_flags_a_flow_sample_outside_c_and_d():
    system, arc = unit_flow_arc()
    t = float(arc.phases[0][0][3])
    res = verify_solution(system, tampered(arc, 0, 3, 1.5))
    ce = only(res, "flow-membership")
    assert ce.point.tolist() == [1.5]
    assert ce.margin == pytest.approx(0.5 - 1e-9)
    assert ce.witness == (0, t)
    # a sample in D is no flow-membership defect
    inside_d = verify_solution(system, tampered(arc, 0, 3, 1.005))
    assert "flow-membership" not in {c.condition
                                     for c in inside_d.counterexamples}


def test_verify_solution_flags_a_jump_off_d():
    system, arc = unit_flow_arc()
    t_jump = float(arc.phases[0][0][-1])
    res = verify_solution(system, tampered(arc, 0, -1, 0.5))
    ce = only(res, "jump-departure")
    assert ce.point.tolist() == [0.5]
    assert ce.margin == pytest.approx(0.9999 - 0.5 - 1e-9)
    assert ce.witness == (0, t_jump)
    assert res.stats["jumps"] == 1


def test_verify_solution_flags_a_jump_landing_off_the_jump_map():
    system, arc = unit_flow_arc()
    t_jump = float(arc.phases[0][0][-1])
    res = verify_solution(system, tampered(arc, 1, 0, 0.5))
    ce = only(res, "jump-landing")
    assert ce.point.tolist() == [0.5]
    assert ce.margin == pytest.approx(0.45 - 1e-3)
    assert ce.witness == (1, t_jump)


def test_verify_solution_skips_the_sample_past_the_bounds():
    # only on an EscapedBounds arc, and only its last sample: the one the
    # bounds-exit bisection puts past the bounds
    system = escaping_growth()
    arc = solve(system, np.array([1.0]), SimConfig(h=1e-3, T_max=10.0)).arc
    assert arc.termination == Termination.ESCAPED_BOUNDS
    m = arc.phases[0][0].size
    assert verify_solution(system, arc).stats["samples"] == m - 1
    far = tampered(arc, 0, -1, 500.0)
    res = verify_solution(system, far)
    assert "flow-membership" not in {ce.condition
                                     for ce in res.counterexamples}
    stopped = verify_solution(
        system, tampered(arc, 0, -1, 500.0, Termination.HORIZON_REACHED))
    assert only(stopped, "flow-membership").margin == pytest.approx(400.0)
    assert stopped.stats["samples"] == m


def test_verify_solution_skips_zero_length_segments():
    # a segment shorter than 1e-12 has no chord slope to check, however
    # far apart its ends are
    system = leaving_interval()
    arc = HybridArc([([0.0, 0.1, 0.1 + 1e-13, 0.2], [[0.0], [0.1], [0.5],
                                                     [0.6]])],
                    Termination.HORIZON_REACHED)
    res = verify_solution(system, arc)
    assert res.passed
    assert res.stats["segments"] == 2


def ref_verify_solution(system, arc, slope_tol):
    """verify_solution as one loop per segment and one per jump, with a flow
    call per segment: the reference for its row form.  Returns what
    report_key reads of a report."""
    delta, set_tol = system.delta, 1e-9
    ces, n_samples, n_segments = [], 0, 0
    for j, (times, states) in enumerate(arc.phases):
        m = len(times)
        if (arc.termination == Termination.ESCAPED_BOUNDS
                and j == arc.num_phases - 1):
            m -= 1
        n_samples += m
        for k in range(m):
            if not (simulate.contains(system.flow_set, states[k], set_tol)
                    or simulate.contains(system.jump_set, states[k], set_tol)):
                margin = simulate._membership_margin(system.flow_set,
                                                     states[k], set_tol)
                ces.append(("flow-membership", states[k], margin,
                            (j, float(times[k]))))
        for k in range(len(times) - 1):
            dt = float(times[k + 1] - times[k])
            if dt <= 1e-12:
                continue
            n_segments += 1
            slope = (states[k + 1] - states[k]) / dt
            f_mid = system.flow(0.5 * (states[k] + states[k + 1]))
            margin = float(np.linalg.norm(slope - f_mid)) - (delta + slope_tol)
            if not margin <= 0.0:
                ces.append(("flow-slope", 0.5 * (states[k] + states[k + 1]),
                            margin, (j, float(times[k]))))
    for j in range(arc.num_phases - 1):
        x_minus = arc.phases[j][1][-1]
        x_plus = arc.phases[j + 1][1][0]
        t_jump = float(arc.phases[j][0][-1])
        if not simulate.contains(system.jump_set, x_minus, set_tol):
            margin = simulate._membership_margin(system.jump_set, x_minus,
                                                 set_tol)
            ces.append(("jump-departure", x_minus, margin, (j, t_jump)))
        gap = functools.reduce(grid_reference.nan_min, (
            float(np.linalg.norm(x_plus - g))
            for g in system.jump_candidates(x_minus)))
        margin = gap - (delta + slope_tol)
        if not margin <= 0.0:
            ces.append(("jump-landing", x_plus, margin, (j + 1, t_jump)))
    verdict = "FAIL" if ces else "PASS"
    stats = {"samples": n_samples, "segments": n_segments,
             "jumps": arc.num_phases - 1, "delta": delta,
             "slope_tol": slope_tol}
    return verdict, stats, [(c, x.tobytes(), float(m).hex(), w)
                            for c, x, m, w in ces]


def report_key(res):
    """A report's verdict, stats but zeno_snaps (the reference has no Zeno
    rule), and each counterexample's condition, point bytes, margin bits
    and witness, in order."""
    stats = {k: v for k, v in res.stats.items() if k != "zeno_snaps"}
    return res.verdict.value, stats, [
        (ce.condition, ce.point.tobytes(), float(ce.margin).hex(), ce.witness)
        for ce in res.counterexamples
    ]


def ball_arc_20s():
    system = bouncing_ball()[0]
    return system, solve(system, np.array([0.0, 10.0, 0.0]),
                         SimConfig(h=1e-3, T_max=20.0, J_max=1000)).arc


def noised(arc, scale, seed):
    rng = np.random.default_rng(seed)
    return HybridArc([(times, states + rng.normal(scale=scale,
                                                  size=states.shape))
                      for times, states in arc.phases], arc.termination)


@functools.cache
def verified_arc(name):
    """(system, arc) of the arcs the row form is checked on."""
    if name == "ball":
        return ball_arc_20s()
    if name == "perturbed-ball":
        system = perturb(bouncing_ball()[0], 0.05)
        return system, solve(system, np.array([0.0, 10.0, 0.0]),
                             SimConfig(h=2e-3, T_max=10.0)).arc
    if name == "noised-ball":
        system, arc = verified_arc("ball")
        return system, noised(arc, 1e-3, 7)
    rep, _, system, _, _ = mg_closed_loop(horizon=20.0)
    return system, rep.arc


@pytest.mark.parametrize("slack", [1e-3, 1e-5, 0.0])
@pytest.mark.parametrize("name",
                         ["ball", "perturbed-ball", "noised-ball", "mg"])
def test_verify_solution_row_form_matches_the_segment_loop_bitwise(name,
                                                                   slack):
    # at slope_tol = -delta (slack 0) every segment and jump with a nonzero
    # error is a counterexample, so every margin is compared
    system, arc = verified_arc(name)
    slope_tol = slack or -system.delta
    got = report_key(verify_solution(system, arc, slope_tol=slope_tol))
    assert got == ref_verify_solution(system, arc, slope_tol)
    if slack:
        assert (got[0] == "FAIL") == (name == "noised-ball")
    if name == "noised-ball":
        assert len(got[2]) > 20000


def test_verify_solution_calls_the_flow_map_once_per_phase(monkeypatch):
    system, arc = ball_arc_20s()
    calls = {"flow_many": 0, "flow": 0}
    real_flow_many = HybridSystem.flow_many

    def counted_flow_many(self, X):
        calls["flow_many"] += 1
        return real_flow_many(self, X)

    def counted_flow(self, x):
        calls["flow"] += 1
        raise AssertionError("flow called on one point")

    monkeypatch.setattr(HybridSystem, "flow_many", counted_flow_many)
    monkeypatch.setattr(HybridSystem, "flow", counted_flow)
    res = verify_solution(system, arc)
    assert res.passed
    with_segments = sum(bool(np.any(np.diff(times) > 1e-12))
                        for times, _ in arc.phases)
    assert with_segments > 40
    assert calls == {"flow_many": with_segments, "flow": 0}


def zeno_ball_arc():
    """The ball from (0, 1, 0) at t_min = 1e-3: its last jump, after a gap
    below t_min, snaps to rest."""
    system = bouncing_ball()[0]
    rep = solve(system, np.array([0.0, 1.0, 0.0]),
                SimConfig(h=1e-3, T_max=6.0, J_max=1000, t_min=1e-3))
    assert (rep.jump_count, rep.zeno_snapped) == (32, True)
    return system, rep.arc


def test_verify_solution_accepts_a_zeno_snap_under_the_solvers_t_min():
    system, arc = zeno_ball_arc()
    res = verify_solution(system, arc, t_min=1e-3)
    assert res.passed
    assert res.stats["zeno_snaps"] == 1
    # without t_min no jump may land on the Zeno map
    unruled = verify_solution(system, arc)
    [ce] = unruled.counterexamples
    assert ce.condition == "jump-landing"
    assert ce.margin == pytest.approx(0.0025, abs=1e-5)
    assert ce.witness == (32, float(arc.phases[31][0][-1]))
    assert unruled.stats["zeno_snaps"] == 0


def test_verify_solution_flags_a_moved_zeno_landing():
    system, arc = zeno_ball_arc()
    moved = tampered(arc, 32, 0, arc.phases[32][1][0] + [0.01, 0.0, 0.0])
    res = verify_solution(system, moved, t_min=1e-3)
    ce = only(res, "jump-landing")
    assert ce.margin == pytest.approx(0.01 - 1e-3)
    assert ce.witness == (32, float(arc.phases[31][0][-1]))
    assert res.stats["zeno_snaps"] == 1


def test_verify_solution_flags_a_zeno_landing_after_a_long_gap():
    system, arc = zeno_ball_arc()
    # jump 30, the one before the snap, follows jump 29 by at least t_min
    t_jump, t_prev = float(arc.phases[31][0][0]), arc.phases[30][0][0]
    assert t_jump - t_prev >= 1e-3
    x_minus = arc.phases[30][1][-1]
    res = verify_solution(system, tampered(arc, 31, 0,
                                           system.zeno_map(x_minus)),
                          t_min=1e-3)
    ce = only(res, "jump-landing")
    assert ce.witness == (31, t_jump)
    assert ce.margin == pytest.approx(0.8 * abs(x_minus[2]) - 1e-3)
    assert res.stats["zeno_snaps"] == 1


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


def test_estimate_lipschitz_of_a_nan_map_is_nan():
    # a NaN ratio is the worst, as a NaN margin is
    box = AxisBox([-1.0], [1.0])
    assert math.isnan(estimate_lipschitz(lambda x: [math.nan], box))
    # one NaN among finite ratios wins too
    L = estimate_lipschitz(lambda x: [math.nan if x[0] > 0.9 else x[0]], box,
                           n_pairs=200)
    assert math.isnan(L)


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


def bisect_with_numpy_norm(f, step, x0, k1, dt, d, pred, x_full, event_tol):
    """_bisect_event as it was, every width taken by np.linalg.norm."""
    lo, x_lo = 0.0, x0
    hi, x_hi = dt, x_full
    for _ in range(simulate._MAX_BISECT):
        if np.linalg.norm(np.subtract(x_hi, x_lo)) <= event_tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        x_mid = step(f, x0, k1, mid, d)
        if pred(x_mid):
            hi, x_hi = mid, x_mid
        else:
            lo, x_lo = mid, x_mid
    return lo, x_lo, hi, x_hi


def line_step(f, x0, k1, theta, d):
    # a stand-in for the RK4 step: the point theta along direction k1
    return [a + theta * v for a, v in zip(x0, k1)]


def bisection_widths(x0, k1, dt, pred):
    """Every bracket width the numpy-norm bisection visits, to event_tol 0."""
    widths = []
    lo, x_lo, hi, x_hi = 0.0, x0, dt, line_step(None, x0, k1, dt, None)
    for _ in range(simulate._MAX_BISECT):
        widths.append(float(np.linalg.norm(np.subtract(x_hi, x_lo))))
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        x_mid = line_step(None, x0, k1, mid, None)
        if pred(x_mid):
            hi, x_hi = mid, x_mid
        else:
            lo, x_lo = mid, x_mid
    return widths


def disagreeing_direction(dim):
    """A direction whose norm math.dist and np.linalg.norm round apart."""
    rng = np.random.default_rng(dim)
    for _ in range(10000):
        k1 = (rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 3, dim)
              ).tolist()
        origin = [0.0] * dim
        if math.dist(k1, origin) != np.linalg.norm(k1):
            return k1
    raise AssertionError("no disagreeing direction for dim %d" % dim)


BISECTION_LINES = {
    "ball": ([9.0, 0.8, 0.0], [0.8, -9.8, 1.0], lambda x: x[0] <= 8.9995),
    "unit": ([0.0], [1.0], lambda x: x[0] >= 0.3),
    "disagreeing-7": ([0.0] * 7, disagreeing_direction(7),
                      lambda x: x[0] * x[1] >= 0.0 and x[2] != x[3]),
    "disagreeing-40": ([1.0] * 40, disagreeing_direction(40),
                       lambda x: sum(x[:3]) >= 3.0),
    "nan": ([0.0, 0.0], [1.0, math.nan], lambda x: x[0] >= 0.25),
}


def tolerances_around(widths, dim):
    """event_tol exactly at visited widths, one ulp either side, and inside
    and just outside the band where the float norm gives way; plus a
    tolerance out of the band's range, and a usual one."""
    band = simulate._tol_band(1.0, dim)[1] - 1.0
    tols = [1e-9, 1e-150, 1e150]
    for w in widths[::7] + widths[-3:]:
        if not w > 0.0 or not math.isfinite(w):
            continue
        tols += [w, math.nextafter(w, 0.0), math.nextafter(w, math.inf),
                 w * (1.0 + 0.5 * band), w * (1.0 - 0.5 * band),
                 w * (1.0 + 2.0 * band), w * (1.0 - 2.0 * band)]
    return tols


@pytest.mark.parametrize("line", list(BISECTION_LINES))
def test_bisect_event_breaks_where_the_numpy_norm_does(monkeypatch, line):
    # the width is decided on math.dist, and np.linalg.norm's bits decide
    # only inside the band of _tol_band: every break, and so every
    # returned bit, stays the numpy norm's
    x0, k1, pred = BISECTION_LINES[line]
    dt = 1.0
    x_full = line_step(None, x0, k1, dt, None)
    fallbacks = []
    gap_norm = simulate._gap_norm

    def recorded(a, b):
        fallbacks.append((math.dist(a, b), gap_norm(a, b)))
        return gap_norm(a, b)

    monkeypatch.setattr(simulate, "_gap_norm", recorded)
    widths = bisection_widths(x0, k1, dt, pred)
    at_widths = 0
    for tol in tolerances_around(widths, len(x0)):
        fallbacks.clear()
        got = simulate._bisect_event(None, line_step, x0, k1, dt, None, pred,
                                     x_full, tol)
        want = bisect_with_numpy_norm(None, line_step, x0, k1, dt, None,
                                      pred, x_full, tol)
        assert bits(got[::2]) == bits(want[::2]), tol
        assert bits(got[1] + got[3]) == bits(want[1] + want[3]), tol
        below, above = simulate._tol_band(tol, len(x0))
        for dist, _ in fallbacks:
            assert not dist <= below and not dist > above, (tol, dist)
        if tol in widths and 1e-140 < tol < 1e140 and line != "nan":
            # a width exactly at event_tol is decided by the numpy norm
            assert any(norm == tol for _, norm in fallbacks), tol
            at_widths += 1
    assert line == "nan" or at_widths >= 3
    if line.startswith("disagreeing"):
        assert math.dist(x_full, x0) != np.linalg.norm(np.subtract(x_full,
                                                                   x0))


def test_bisect_event_skips_the_numpy_norm_away_from_event_tol(monkeypatch):
    # on the ball's first impact at the default event_tol no width comes
    # within the band, so no probe builds an array
    x0, k1, pred = BISECTION_LINES["ball"]
    monkeypatch.setattr(simulate, "_gap_norm", None)
    got = simulate._bisect_event(None, line_step, x0, k1, 1.0, None, pred,
                                 line_step(None, x0, k1, 1.0, None), 1e-9)
    want = bisect_with_numpy_norm(None, line_step, x0, k1, 1.0, None, pred,
                                  line_step(None, x0, k1, 1.0, None), 1e-9)
    assert bits(got[::2]) == bits(want[::2])
    assert bits(got[1] + got[3]) == bits(want[1] + want[3])
