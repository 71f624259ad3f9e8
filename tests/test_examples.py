"""Shipped example systems: ball dynamics and the compressor surge model."""

import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import expit as scipy_expit

import field_reference
import solver_reference
from hybridcert import (
    BouncingBallParams,
    DomainViolation,
    EmptySet,
    MooreGreitzerParams,
    NoConvergence,
    SimConfig,
    augment_sample_hold,
    ball_operating_box,
    bouncing_ball,
    first_impact_time,
    make_system,
    mg_equilibrium,
    moore_greitzer,
    psi_c,
    solve,
)
from hybridcert import examples
from hybridcert.examples import _each, _square, expit
from hybridcert.expressions import scalar_fn
from hybridcert.geometry import AxisBox

FIRST_IMPACT = 1.4393508064065221
B_AT_START = 0.7173469387755102


def test_ball_jump_map_by_hand():
    system, _, _ = bouncing_ball()
    post = system.jump_candidates(np.array([1.0, 0.0, -2.0]))[0]
    assert np.array_equal(post, np.array([1.0, 0.0, 1.6]))


def bits(v):
    return struct.pack("<d", float(v))


# the ball's barrier once called scipy.special.expit; the study's own expit
# must give the same float64, or every barrier value and margin would move.
# Scenario expressions call the same function.
SCENARIO_EXPIT = scalar_fn("expit(t)", ("t",))


@settings(max_examples=1000, deadline=None, database=None, derandomize=True)
@given(t=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(-800.0, 800.0)))
@example(t=-709.0)
@example(t=-710.0)
@example(t=-1e308)
@example(t=0.0)
@example(t=-0.0)
@example(t=800.0)
@example(t=math.inf)
@example(t=-math.inf)
@example(t=math.nan)
def test_study_expit_matches_scipy_bit_for_bit(t):
    assert bits(expit(t)) == bits(scipy_expit(t))
    assert bits(SCENARIO_EXPIT([t])) == bits(scipy_expit(t))


def test_ball_barrier_matches_the_scipy_form_bit_for_bit():
    a = BouncingBallParams().a
    _, cert, _ = bouncing_ball()
    rng = np.random.default_rng(11)
    box = ball_operating_box()
    points = rng.uniform(box.lo, box.hi, size=(300, 3))
    # past |x| = 142 the logistic of 5x saturates, and below -142 it
    # overflows the exp
    points[::3, 0] = rng.normal(0.0, 100.0, size=100)
    for s in points:
        sig = scipy_expit(5.0 * s[0])
        value = 0.5 * sig - s[1] - s[2] ** 2 / (2.0 * a) + 9.5
        grad = np.array([2.5 * sig * (1.0 - sig), -1.0, -s[2] / a])
        assert bits(cert.B(s)) == bits(value)
        assert cert.B.gradient(s).tobytes() == grad.tobytes()


BALL_SYSTEM, BALL_CERT, _ = bouncing_ball()
MG_CERT = moore_greitzer()[1]
BALL_V, BALL_V_GRAD, BALL_B, BALL_B_GRAD = field_reference.ball_fields()
MG_V, MG_V_GRAD, MG_B, MG_B_GRAD, MG_B_DOMAIN = field_reference.mg_fields()


def same_rows(rows, one, X, dtype=float):
    """rows(X) holds the bits of one(x) at each row x of X, or both raise
    DomainViolation."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            got = np.asarray(rows(X), dtype=dtype)
        except DomainViolation:
            got = None
        try:
            want = np.array([one(x) for x in X], dtype=dtype)
        except DomainViolation:
            want = None
    assert (got is None) == (want is None), (X, got, want)
    if got is not None:
        want = want.reshape(got.shape)
        assert got.tobytes() == want.tobytes(), (X, got, want)


# values where a float64's ** 2 (pow) is not the array's square, where
# np.arctan is not math.atan, and where np.exp of -5x is not math.exp's
LAST_BIT = [-1.523386358242358, -0.22567563312705183, 0.25448333085432606,
            -7.984626718106753, -1.350451000370139, -2.3993667125803606]

# the rest branch of the flow map (y and |z| at most 1e-9), 5x below
# -709.78 where expit's exp overflows, +-0, |z| up to 1e200, NaN
ball_coords = st.one_of(
    st.floats(-1e200, 1e200),
    st.floats(-2e-9, 2e-9),
    st.floats(-150.0, -135.0),
    st.sampled_from([0.0, -0.0, 1e-9, -1e-9, -141.9565, -141.9566, 1e200,
                     -1e200, math.nan] + LAST_BIT),
)


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(X=st.lists(st.tuples(ball_coords, ball_coords, ball_coords),
                  min_size=1, max_size=8))
@example(X=[(0.0, 0.0, 0.0), (0.0, 1e-9, -1e-9), (-142.0, 5.0, 1e200),
            (math.nan, 0.0, -0.0), (3.0, -0.0, 0.0), (1.0, 2.0, -1e200)]
        + [(t, 1.0, t) for t in LAST_BIT])
# repeated rows and columns, as on a grid, with both zeros among them
@example(X=[(0.0, 1.0, -0.0), (-0.0, 1.0, 0.0), (0.0, 1.0, -0.0),
            (math.nan, math.nan, math.nan), (math.nan, math.nan, math.nan)]
        + [(t, t, t) for t in LAST_BIT] * 2)
def test_ball_row_forms_match_the_one_point_forms_bit_for_bit(X):
    X = np.array(X, dtype=float)
    V, B = BALL_CERT.V, BALL_CERT.B
    same_rows(V.value_many, BALL_V, X)
    same_rows(V.gradient_many, BALL_V_GRAD, X)
    same_rows(B.value_many, BALL_B, X)
    same_rows(B.gradient_many, BALL_B_GRAD, X)
    same_rows(V.value_many, V, X)
    same_rows(B.gradient_many, B.gradient, X)
    same_rows(BALL_SYSTEM.flow_map_rows, BALL_SYSTEM.flow, X)


def float_bits(*values):
    return np.array(values, dtype=float)


def nan_with_payload(payload):
    return np.array([0x7FF8000000000000 | payload],
                    dtype=np.uint64).view(float)[0]


# +-0, NaNs with two payloads, +-inf, the last-bit values, and a grid's
# column: 33 distinct values, each repeated on every other axis's points
EACH_INPUTS = [
    float_bits(0.0, -0.0, -0.0, 0.0),
    float_bits(math.nan, nan_with_payload(1), math.nan, math.inf, -math.inf,
               math.inf),
    float_bits(*LAST_BIT, *LAST_BIT[::-1], 0.0, -0.0),
    np.tile(np.repeat(np.linspace(-14.0, 14.0, 33), 33), 33),
    np.empty(0),
]


@pytest.mark.parametrize("fn", [math.atan, _square, expit,
                                lambda t: math.copysign(1.0, t),
                                lambda t: t],
                         ids=["atan", "square", "expit", "sign", "identity"])
@pytest.mark.parametrize("k", range(len(EACH_INPUTS)))
def test_each_is_the_per_element_map_bit_for_bit(fn, k):
    t = EACH_INPUTS[k]
    want = np.fromiter(map(fn, t), dtype=float, count=len(t))
    got = _each(fn, t)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # a strided column, as the row forms pass
    S = np.stack([np.zeros_like(t), t], axis=1)
    assert _each(fn, S[:, 1]).tobytes() == want.tobytes()


def test_each_calls_fn_once_per_distinct_bit_pattern():
    seen = []

    def fn(v):
        seen.append(v)
        return math.atan(v)

    grid = EACH_INPUTS[3]
    _each(fn, grid)
    assert len(grid) == 33 ** 3 and len(seen) == 33
    assert all(type(v) is np.float64 for v in seen)
    # 0.0 and -0.0 are equal but not the same bits, nor are two NaNs
    seen.clear()
    _each(fn, EACH_INPUTS[1])
    assert len(seen) == 4
    seen.clear()
    assert bits(_each(fn, float_bits(0.0, -0.0))[1]) == bits(-0.0)
    assert len(seen) == 2


# around the protected box, where h <= 0 gives the barrier's sentinel
mg_coords = st.one_of(
    st.floats(0.49, 0.51), st.floats(0.64, 0.67), st.floats(-10.0, 10.0),
    st.sampled_from([0.5, 0.653, 0.497, 0.503, 0.65, 0.656, -0.0, math.inf,
                     math.nan]),
)


# 2**-7 off the center on both axes: d0 == d1 exactly, the face switch
FACE = 2.0**-7
SWITCH = [(0.5 + sx * FACE, 0.653 + sy * FACE)
          for sx in (1.0, -1.0) for sy in (1.0, -1.0)]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(X=st.lists(st.tuples(mg_coords, mg_coords), min_size=1, max_size=8))
@example(X=[(0.5, 0.653), (0.503, 0.653), (0.5015, 0.6545),
            (0.4519, 0.6513)])
# outside the singular box, so grad B is defined at every row
@example(X=SWITCH + [(0.4519, 0.6513), (math.nan, 0.6513),
                     (0.4519, math.nan), (0.65, -0.0)])
def test_mg_row_forms_match_the_one_point_forms_bit_for_bit(X):
    X = np.array(X, dtype=float)
    V, B = MG_CERT.V, MG_CERT.B
    same_rows(V.value_many, MG_V, X)
    same_rows(V.gradient_many, MG_V_GRAD, X)
    same_rows(B.value_many, MG_B, X)
    # both raise DomainViolation where a row lies in the singular box
    same_rows(B.gradient_many, MG_B_GRAD, X)
    same_rows(B.admissible_many, MG_B_DOMAIN, X, dtype=bool)
    same_rows(V.value_many, V, X)
    same_rows(B.value_many, B, X)


def test_mg_face_switch_takes_axis_zero_and_is_not_admissible():
    X = np.array(SWITCH)
    D = X - np.array(MooreGreitzerParams().protect_center)
    assert (np.abs(D[:, 0]) == np.abs(D[:, 1])).all()
    G = MG_CERT.B.gradient_many(X)
    assert (G[:, 1] == 0.0).all() and (G[:, 0] != 0.0).all()
    assert G.tobytes() == np.array([MG_B_GRAD(x) for x in X]).tobytes()
    assert not MG_CERT.B.admissible_many(X).any()


def test_mg_barrier_gradient_raises_inside_the_singular_box():
    # the equilibrium zeta lies outside the box, its center inside
    X = np.array([[0.4519, 0.6513], [0.5, 0.653]])
    with pytest.raises(DomainViolation, match="singular box"):
        MG_CERT.B.gradient_many(X)
    for x in (X[1], X[1] + 0.002):
        with pytest.raises(DomainViolation, match="singular box"):
            MG_B_GRAD(x)
        with pytest.raises(DomainViolation, match="singular box"):
            MG_CERT.B.gradient(x)


def test_ball_v_vanishes_at_rest():
    _, cert, _ = bouncing_ball()
    for x in (-3.0, 0.0, 7.5):
        assert cert.V(np.array([x, 0.0, 0.0])) == 0.0


def test_ball_barrier_at_drop_point():
    _, cert, _ = bouncing_ball()
    assert cert.B(np.array([0.0, 9.0, 0.8])) == pytest.approx(
        B_AT_START, abs=1e-15
    )


def test_ball_jump_scales_energy_by_restitution_squared():
    system, _, _ = bouncing_ball()
    lam, a = 0.8, 9.8
    for z in (-0.5, -2.0, -13.3):
        pre = np.array([0.0, 1e-10, z])
        post = system.jump_candidates(pre)[0]
        assert post[1] == 0.0  # height snapped exactly onto the floor
        e_post = 0.5 * post[2] ** 2 + a * post[1]
        assert e_post == pytest.approx(lam**2 * 0.5 * z**2, rel=1e-12)


def test_first_impact_time_closed_form():
    assert first_impact_time() == FIRST_IMPACT
    p = BouncingBallParams(a=10.0, x0=(0.0, 5.0, 0.0))
    assert first_impact_time(p) == pytest.approx(1.0)


def test_ball_params_validation():
    with pytest.raises(ValueError):
        BouncingBallParams(restitution=1.0)
    with pytest.raises(ValueError):
        BouncingBallParams(restitution=0.0)
    with pytest.raises(ValueError):
        BouncingBallParams(a=-9.8)


def test_ball_settles_by_the_horizon():
    system, _, spec = bouncing_ball()
    rep = solve(system, np.asarray(spec.x0[0]),
                SimConfig(h=2e-3, T_max=30.0, J_max=400))
    assert rep.termination.name == "HORIZON_REACHED"
    final = rep.arc.phases[-1][1][-1]
    assert abs(final[1]) <= 1e-6 and abs(final[2]) <= 1e-6


def test_compressor_characteristic_values():
    assert psi_c(0.25) == pytest.approx(0.4806, abs=1e-12)
    assert psi_c(0.0) == pytest.approx(0.3006, abs=1e-12)
    assert psi_c(0.5) == pytest.approx(0.6606, abs=1e-12)


def test_compressor_characteristic_odd_symmetry():
    # the cubic is odd around its inflection at phi = theta
    mid = psi_c(0.25)
    for d in (0.05, 0.1, 0.2):
        assert psi_c(0.25 + d) + psi_c(0.25 - d) == pytest.approx(
            2.0 * mid, abs=1e-12
        )


def test_mg_params_validation():
    with pytest.raises(ValueError):
        MooreGreitzerParams(iota=-0.1)
    with pytest.raises(ValueError):
        MooreGreitzerParams(box_lo=(0.2, 0.0))


def test_mg_drift_pressure_rate_by_hand():
    plant, _, _, _ = moore_greitzer()
    phi = 0.4519
    lo = plant.drift(np.array([phi, 0.3]))
    hi = plant.drift(np.array([phi, 0.9]))
    assert lo[1] == pytest.approx(phi / 128.0, abs=1e-15)
    assert hi[1] == lo[1]  # mass flow alone drives the pressure rate


def test_mg_drift_rejects_negative_pressure():
    plant, _, _, _ = moore_greitzer()
    with pytest.raises(DomainViolation):
        plant.drift(np.array([0.4, -0.1]))
    with pytest.raises(DomainViolation):
        plant.input_matrix(np.array([0.4, -0.1]))


def test_mg_negative_pressure_raises_through_the_augmented_flow():
    plant, _, _, shc = moore_greitzer()
    system = augment_sample_hold(plant, lambda z: [0.0, 0.64], shc)
    with pytest.raises(DomainViolation, match="negative pressure"):
        system.flow(np.array([0.4, -0.1, 0.0, 0.64, 0.25]))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(x=st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 2.0)))
@example(x=(0.4519, 0.6513))
@example(x=(-0.0, 0.0))
def test_mg_plant_maps_give_a_list_the_values_of_its_array(x):
    plant, _, _, _ = moore_greitzer()
    for fn in (plant.drift, plant.input_matrix):
        want = np.asarray(fn(np.array(x)), dtype=float)
        got = np.asarray(fn(list(x)), dtype=float)
        assert got.tobytes() == want.tobytes()


MG_PLANT, _, _, MG_SHC = moore_greitzer()
MG_AUGMENTED = augment_sample_hold(MG_PLANT, lambda z: [0.0, 0.64], MG_SHC)


def within(box, i):
    return st.floats(float(box.lo[i]), float(box.hi[i]))


# operating box x input box x [0, period]
@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(z=st.tuples(
    within(MG_PLANT.operating_box, 0), within(MG_PLANT.operating_box, 1),
    within(MG_PLANT.input_box, 0), within(MG_PLANT.input_box, 1),
    st.floats(0.0, MG_SHC.period),
))
@example(z=(0.45, 0.65, -0.0, 0.64, 0.0))
@example(z=(0.2, 0.2, -0.05, 0.5, 0.5))
@example(z=(0.9, 1.2, 0.05, 1.0, 0.25))
def test_mg_augmented_flow_is_the_numpy_composition_bit_for_bit(z):
    # the input matrix is diagonal, so summing f_i + G_i0 u_0 + G_i1 u_1
    # left to right adds the same nonzero terms as numpy's matmul
    z = np.array(z)
    want = solver_reference.augmented_flow(MG_PLANT, z)
    assert MG_AUGMENTED.flow(z).tobytes() == want.tobytes()


# the plant as it is without its own closed rate: drift and input_matrix
# composed
MG_COMPOSED = dataclasses.replace(MG_PLANT, closed_rate=None)

# psi below, on and above the domain's edge; phi up to where w**3 overflows
EDGE_PSI = [0.0, -0.0, 5e-324, 2.2e-308, -5e-324, -1e-300, -1.0,
            math.nan, math.inf, -math.inf]
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


def outcome(fn, *args):
    """fn's value as bytes, or the type and message of what it raised."""
    try:
        return np.array(fn(*args), dtype=float).tobytes()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(z=st.tuples(
    st.one_of(within(MG_PLANT.operating_box, 0), ANY_FLOAT,
              st.sampled_from([1e110, -1e110, 1e300])),
    st.one_of(within(MG_PLANT.operating_box, 1), ANY_FLOAT,
              st.sampled_from(EDGE_PSI)),
    st.one_of(within(MG_PLANT.input_box, 0), ANY_FLOAT),
    st.one_of(within(MG_PLANT.input_box, 1), ANY_FLOAT),
    st.floats(0.0, MG_SHC.period),
))
@example(z=(0.45, 0.65, -0.0, 0.64, 0.0))
@example(z=(0.45, -0.0, -0.0, -0.0, 0.0))
@example(z=(1e110, 0.65, 0.0, 0.64, 0.0))
@example(z=(1e110, -1.0, 0.0, 0.64, 0.0))
@example(z=(math.inf, math.inf, math.inf, -math.inf, 0.0))
def test_mg_closed_rate_is_the_plant_composition_bit_for_bit(z):
    # the hand-written rate against drift and input_matrix composed: the
    # same bits, or the same raise
    z = list(z)
    want = outcome(MG_COMPOSED._closed_rate, z)
    assert outcome(MG_PLANT.closed_rate, z) == want


def test_mg_closed_rate_raises_where_the_plant_maps_raise():
    assert outcome(MG_PLANT.closed_rate, [0.45, -1.0, 0.0, 0.64]) == (
        DomainViolation, "negative pressure -1")
    assert outcome(MG_PLANT.closed_rate, [1e110, 0.65, 0.0, 0.64])[0] is (
        OverflowError)


def test_mg_flow_calls_no_plant_map_between_decisions(monkeypatch):
    # the flow runs the closed rate alone: drift and input_matrix are
    # called once per QP decision (its admissible rows), never per stage
    calls = {"drift": 0, "input_matrix": 0}
    study = examples.moore_greitzer

    def counted(name, fn):
        def wrapped(x):
            calls[name] += 1
            return fn(x)
        return wrapped

    def counting_study(params=None):
        plant, cert, spec, shc = study(params)
        plant = dataclasses.replace(
            plant, drift=counted("drift", plant.drift),
            input_matrix=counted("input_matrix", plant.input_matrix))
        return plant, cert, spec, shc

    monkeypatch.setattr(examples, "moore_greitzer", counting_study)
    report, decisions, _, _, _ = examples.mg_closed_loop(horizon=2.0)
    samples = sum(times.size for times, _ in report.arc.phases)
    assert samples > 100 * len(decisions) > 0
    assert calls == {"drift": len(decisions),
                     "input_matrix": len(decisions)}


def test_mg_lyapunov_vanishes_at_target():
    _, cert, _, _ = moore_greitzer()
    zeta = np.array(MooreGreitzerParams().zeta)
    assert cert.V(zeta) == 0.0
    assert np.array_equal(cert.V.gradient(zeta), np.zeros(2))


def test_mg_barrier_guard_inside_protected_box():
    _, cert, _, _ = moore_greitzer()
    center = np.array(MooreGreitzerParams().protect_center)
    assert cert.B(center) == float("-inf")
    assert not cert.B.admissible(center)
    with pytest.raises(DomainViolation):
        cert.B.gradient(center)


def test_mg_equilibrium_solves_both_residuals():
    p = MooreGreitzerParams()
    x_eq = mg_equilibrium(0.64, p)
    phi, psi = x_eq
    assert abs(psi_c(phi, p) - psi) <= 1e-12
    assert abs(phi - 0.64 * math.sqrt(psi)) <= 1e-12


def test_mg_equilibrium_is_a_vector_field_zero():
    plant, _, _, _ = moore_greitzer()
    x_eq = mg_equilibrium(0.64)
    rate = plant.vector_field(x_eq, np.array([0.0, 0.64]))
    assert np.max(np.abs(rate)) <= 1e-12


def test_mg_equilibrium_rejects_gamma_outside_box():
    with pytest.raises(ValueError):
        mg_equilibrium(0.3)


def test_mg_equilibrium_reports_a_stalled_newton():
    # on a characteristic this narrow the damped Newton finds no descent
    with pytest.raises(NoConvergence, match="stalled"):
        mg_equilibrium(0.64, MooreGreitzerParams(theta=0.001))


def test_mg_equilibrium_continuation_is_continuous():
    p = MooreGreitzerParams()
    gammas = np.linspace(0.62, 0.66, 21)
    branch = [mg_equilibrium(g, p) for g in gammas]
    for x in branch:
        assert abs(psi_c(x[0], p) - x[1]) <= 1e-12
    steps = [np.linalg.norm(b - a) for a, b in zip(branch, branch[1:])]
    assert max(steps) < 0.05


def test_mg_open_loop_holds_the_equilibrium():
    plant, _, _, _ = moore_greitzer()
    p = MooreGreitzerParams()
    x_eq = mg_equilibrium(p.gamma0, p)
    held = np.array([0.0, p.gamma0])
    sys_ol = make_system(
        2,
        AxisBox(p.box_lo, p.box_hi),
        lambda x: plant.vector_field(x, held),
        EmptySet(),
        lambda x: [],
        AxisBox(p.box_lo, p.box_hi),
    )
    rep = solve(sys_ol, x_eq, SimConfig(h=1e-2, T_max=10.0))
    final = rep.arc.phases[-1][1][-1]
    assert np.linalg.norm(final - x_eq) <= 1e-6


def test_ball_operating_box_covers_the_reachable_tube():
    system, _, spec = bouncing_ball()
    box = ball_operating_box()
    rep = solve(system, np.asarray(spec.x0[0]),
                SimConfig(h=2e-3, T_max=20.0, J_max=400))
    for _, _, x in rep.arc.samples():
        assert np.all(x >= box.lo - 1e-9) and np.all(x <= box.hi + 1e-9)
