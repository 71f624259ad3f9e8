"""QP machinery, admissible rows, the relaxation ladder, timer augmentation."""

import numpy as np
import pytest

from hybridcert import (
    AxisBox,
    ControlledPlant,
    QPProblem,
    SampleHoldConfig,
    ScalarField,
    SimConfig,
    admissible_constraints,
    augment_sample_hold,
    initial_augmented,
    qp_policy,
    solve,
    solve_qp,
)
from kkt import kkt_residual


def integrator_plant(lo=-0.4, hi=0.4):
    return ControlledPlant(
        dim_x=1, dim_u=1,
        drift=lambda x: np.zeros(1),
        input_matrix=lambda x: np.array([[1.0]]),
        input_box=AxisBox([lo], [hi]),
    )


def V_sq():
    return ScalarField(lambda x: float(x[0] ** 2),
                       lambda x: np.array([2.0 * x[0]]))


def B_bowl(height=10.0):
    return ScalarField(lambda x: height - float(x[0] ** 2),
                       lambda x: np.array([-2.0 * x[0]]))


def test_plant_rejects_mismatched_input_box():
    with pytest.raises(ValueError):
        ControlledPlant(dim_x=1, dim_u=2, drift=lambda x: np.zeros(1),
                        input_matrix=lambda x: np.ones((1, 2)),
                        input_box=AxisBox([0.0], [1.0]))


def test_qp_problem_requires_positive_definite_cost():
    for bad in ([[0.0]], [[-1.0]]):
        with pytest.raises(ValueError):
            QPProblem(bad, [0.0], 0.0, [], [-1.0], [1.0])


def test_solve_qp_unconstrained_origin():
    qp = QPProblem(np.eye(2), np.zeros(2), 0.0, [], [-1.0, -1.0], [1.0, 1.0])
    u = solve_qp(qp)
    assert np.array_equal(u, np.zeros(2))


def test_solve_qp_clips_to_box_corner():
    # |u - (2,2)|^2 pulled into the unit box
    qp = QPProblem(np.eye(2), [-4.0, -4.0], 8.0, [], [-1.0, -1.0], [1.0, 1.0])
    u = solve_qp(qp)
    assert np.array_equal(u, np.array([1.0, 1.0]))
    assert qp.cost(u) == pytest.approx(2.0)


def test_solve_qp_infeasible_returns_none():
    qp = QPProblem([[1.0]], [0.0], 0.0, [([1.0], -2.0)], [-1.0], [1.0])
    assert solve_qp(qp) is None


def test_solve_qp_dimension_cap():
    qp = QPProblem(np.eye(3), np.zeros(3), 0.0, [], [-1.0] * 3, [1.0] * 3)
    with pytest.raises(ValueError):
        solve_qp(qp)


def test_admissible_rows_by_hand():
    plant = integrator_plant(-1.0, 1.0)
    rows = admissible_constraints(np.array([0.5]), V_sq(),
                                  ScalarField(lambda x: 1.0 - float(x[0] ** 2),
                                              lambda x: np.array([-2.0 * x[0]])),
                                  plant, sigma=0.07)
    (a_v, b_v), (a_b, b_b) = rows
    assert a_v[0] == pytest.approx(1.0)
    assert b_v == pytest.approx(-0.32)   # -sigma - LfV - V = -0.07 - 0 - 0.25
    assert a_b[0] == pytest.approx(1.0)  # -LgB
    assert b_b == pytest.approx(-0.07)   # LfB - sigma


def test_admissible_rows_growth_bound_mode():
    plant = integrator_plant(-1.0, 1.0)
    rows = admissible_constraints(np.array([0.5]), V_sq(), B_bowl(1.0),
                                  plant, sigma=0.07, barrier_cap=4.0)
    a_b, b_b = rows[1]
    assert a_b[0] == pytest.approx(-1.0)  # +LgB
    assert b_b == pytest.approx(4.0)      # cap - LfB


def test_qp_policy_rate_limited_decision():
    plant = ControlledPlant(
        dim_x=1, dim_u=2,
        drift=lambda x: np.zeros(1),
        input_matrix=lambda x: np.array([[1.0, 0.0]]),
        input_box=AxisBox([-1.0, 0.6], [1.0, 0.7]),
    )
    cfg = SampleHoldConfig(period=0.5, sigma_margin=0.07,
                           rate_limits=(None, 0.01))
    entries = []
    u = qp_policy(np.array([0.1]), V_sq(), B_bowl(), plant, cfg,
                  u_prev=np.array([0.0, 0.64]), dt=0.5, log_list=entries)
    # V-row binds the first input; the second just slides inside its rate box
    assert u[0] == pytest.approx(-0.4)
    assert u[1] == pytest.approx(0.635)
    entry = entries[0]
    assert entry["level"] == 0 and entry["sigma"] == pytest.approx(0.07)
    assert entry["margin_V"] == pytest.approx(0.0, abs=1e-12)
    assert entry["margin_B"] == pytest.approx(0.01)
    assert np.array_equal(entry["u"], u)


def test_qp_policy_drops_v_row_at_level_nine():
    # V needs u <= -(1 + sigma)/2, far outside the box at every sigma
    plant = integrator_plant()
    cfg = SampleHoldConfig(period=0.5, sigma_margin=0.07)
    entries = []
    u = qp_policy(np.array([1.0]), V_sq(), B_bowl(), plant, cfg,
                  u_prev=np.array([0.0]), dt=0.5, log_list=entries)
    entry = entries[0]
    assert entry["level"] == 9
    sigma9 = 0.07 / 2.0**8
    assert entry["sigma"] == pytest.approx(sigma9)
    # B-row active: 2u = -sigma9 at the minimum-norm feasible input
    assert u[0] == pytest.approx(-sigma9 / 2.0, rel=1e-9)


def test_qp_policy_holds_input_at_level_ten(caplog):
    # flat barrier: 0.u <= -sigma can never hold, nor can the V-row
    flat_B = ScalarField(lambda x: 5.0, lambda x: np.zeros(1))
    plant = integrator_plant()
    cfg = SampleHoldConfig(period=0.5, sigma_margin=0.07,
                           rate_limits=(0.01,))
    entries = []
    with caplog.at_level("WARNING"):
        u = qp_policy(np.array([1.0]), V_sq(), flat_B, plant, cfg,
                      u_prev=np.array([0.2]), dt=0.5, log_list=entries)
    assert entries[0]["level"] == 10
    assert u[0] == pytest.approx(0.2)
    assert any("infeasible" in r.message for r in caplog.records)


def test_sample_hold_config_validation():
    with pytest.raises(ValueError):
        SampleHoldConfig(period=0.0)
    with pytest.raises(ValueError):
        SampleHoldConfig(period=0.5, sigma_margin=-1.0)


def test_initial_augmented_starts_on_jump_set():
    cfg = SampleHoldConfig(period=0.5, sigma_margin=0.07)
    z0 = initial_augmented([1.0, 2.0], [3.0], cfg)
    assert np.array_equal(z0, np.array([1.0, 2.0, 3.0, 0.5]))


def test_augmented_timer_jumps_each_period():
    plant = ControlledPlant(
        dim_x=1, dim_u=1,
        drift=lambda x: np.zeros(1),
        input_matrix=lambda x: np.zeros((1, 1)),
        input_box=AxisBox([-1.0], [1.0]),
    )
    cfg = SampleHoldConfig(period=0.5, sigma_margin=0.07)
    policy = lambda z: np.array([z[0]])  # sample the frozen state
    system = augment_sample_hold(plant, policy, cfg)
    z0 = initial_augmented([0.3], [0.0], cfg)
    rep = solve(system, z0, SimConfig(h=1e-3, T_max=1.2, J_max=10))
    assert rep.jump_count == 3
    jump_times = [float(ph[0][0]) for ph in rep.arc.phases[1:]]
    assert jump_times == pytest.approx([0.0, 0.5, 1.0], abs=1e-6)
    for times, states in rep.arc.phases[1:]:
        assert np.all(states[:, 0] == 0.3)  # the plant state never moves
        assert np.all(states[:, 1] == 0.3)  # held input refreshed to x
        assert states[0, 2] == 0.0          # timer resets at the jump
    assert rep.termination.name == "HORIZON_REACHED"


def test_augmented_flow_is_plant_field_held_input_unit_timer():
    plant = ControlledPlant(
        dim_x=2, dim_u=2,
        drift=lambda x: np.array([x[1] - x[0] ** 3, np.sin(x[0])]),
        input_matrix=lambda x: np.array([[1.0, x[0]], [0.0, -np.sqrt(x[1])]]),
        input_box=AxisBox([-1.0, 0.0], [1.0, 2.0]),
    )
    cfg = SampleHoldConfig(period=0.5, sigma_margin=0.07)
    system = augment_sample_hold(plant, lambda z: np.zeros(2), cfg)
    z = np.array([0.3, 0.8, -0.4, 1.2, 0.1])
    want = np.concatenate(
        [plant.vector_field(z[:2], z[2:4]), [0.0, 0.0, 1.0]]
    )
    out = system.flow(z)
    assert out.tobytes() == want.tobytes()
    out[:] = 7.0  # a caller writing to one result leaves the next intact
    assert system.flow(z).tobytes() == want.tobytes()


def test_random_qps_satisfy_kkt():
    rng = np.random.default_rng(11)
    solved = 0
    for _ in range(30):
        n = int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        Q = A @ A.T + 0.5 * np.eye(n)
        q = rng.normal(size=n)
        rows = [(rng.normal(size=n), float(rng.normal())) for _ in range(2)]
        lb, ub = -np.ones(n), np.ones(n)
        qp = QPProblem(Q, q, float(rng.normal()), rows, lb, ub)
        u = solve_qp(qp)
        if u is None:
            continue
        solved += 1
        assert qp.feasible(u)
        assert kkt_residual(qp, u) <= 1e-8
        # no sampled feasible point beats the reported minimizer
        for _ in range(50):
            v = rng.uniform(lb, ub)
            if qp.feasible(v, 0.0):
                assert qp.cost(v) >= qp.cost(u) - 1e-9
    assert solved >= 15
