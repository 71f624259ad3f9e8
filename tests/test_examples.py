"""Shipped example systems: ball dynamics and the compressor surge model."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import expit as scipy_expit

from hybridcert import (
    BouncingBallParams,
    DomainViolation,
    EmptySet,
    MooreGreitzerParams,
    NoConvergence,
    SimConfig,
    ball_operating_box,
    bouncing_ball,
    first_impact_time,
    make_system,
    mg_equilibrium,
    moore_greitzer,
    psi_c,
    solve,
)
from hybridcert.examples import expit
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
        assert bits(cert.B.value(s)) == bits(value)
        assert cert.B.grad(s).tobytes() == grad.tobytes()


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
