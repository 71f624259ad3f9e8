"""QP machinery, admissible rows, the relaxation ladder, timer augmentation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qp_reference

from hybridcert import (
    AxisBox,
    ControlledPlant,
    DimensionMismatch,
    QPProblem,
    SampleHoldConfig,
    SimConfig,
    admissible_constraints,
    augment_sample_hold,
    initial_augmented,
    mg_closed_loop,
    qp_policy,
    solve,
    solve_qp,
)
from hybridcert import controller
from field_reference import point_field
from kkt import kkt_residual


def integrator_plant(lo=-0.4, hi=0.4):
    return ControlledPlant(
        dim_x=1, dim_u=1,
        drift=lambda x: np.zeros(1),
        input_matrix=lambda x: np.array([[1.0]]),
        input_box=AxisBox([lo], [hi]),
    )


def V_sq():
    return point_field(lambda x: float(x[0] ** 2),
                       lambda x: np.array([2.0 * x[0]]))


def B_bowl(height=10.0):
    return point_field(lambda x: height - float(x[0] ** 2),
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


@pytest.mark.parametrize("Q, lb, ub, rows", [
    ([[1.0]], [-1.0, -1.0], [1.0, 1.0], []),
    (np.eye(2), [-1.0], [1.0, 1.0], []),
    (np.eye(2), [-1.0, -1.0], 1.0, []),
    (np.eye(2), [-1.0, -1.0], [1.0, 1.0], [([1.0], 0.0)]),
    (np.eye(2), [-1.0, -1.0], [1.0, 1.0], [([1.0, 1.0, 1.0], 0.0)]),
], ids=["Q", "lb", "ub", "short-row", "long-row"])
def test_qp_problem_rejects_sizes_that_do_not_match_q(Q, lb, ub, rows):
    with pytest.raises(ValueError, match="match q's size"):
        QPProblem(Q, [0.0, 0.0], 0.0, rows, lb, ub)


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


def _counting_solves(monkeypatch):
    """Patch np.linalg.solve to count its calls; returns the call list."""
    calls = []
    real = np.linalg.solve

    def counting(M, rhs):
        calls.append(M.shape)
        return real(M, rhs)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls


def _certified(monkeypatch, qp):
    """Whether solve_qp answers qp without a linear solve; its answer is
    checked against the reference's."""
    calls = _counting_solves(monkeypatch)
    got = solve_qp(qp)
    certified = not calls
    want = qp_reference.solve_qp(qp)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.tobytes() == want.tobytes()
    return certified


def _row_floor(a, lb, ub):
    """The minimum of a.u over the values np.clip(s, lb, ub) can take, and
    the sum of the magnitudes of its terms."""
    terms = [ai * (ub_i if lb_i > ub_i or ai < 0.0 else lb_i)
             for ai, lb_i, ub_i in zip(a, lb, ub) if ai != 0.0]
    return sum(terms), sum(abs(t) for t in terms)


@pytest.mark.parametrize("excess, enumerates", [
    (-1.0, True), (0.5, True), (0.99, True), (1.01, False), (2.0, False),
])
def test_solve_qp_certificate_fires_only_beyond_its_margin(
        monkeypatch, excess, enumerates):
    # one row whose minimum over the box exceeds b + slack by `excess`
    # times the certificate's margin
    a, lb, ub = [2.0, -3.0], [0.25, -1.0], [1.0, 0.5]
    low, size = _row_floor(a, lb, ub)
    b = low - controller.FEASIBLE_SLACK - excess * 1e-12 * (1.0 + abs(low)
                                                             + size)
    qp = QPProblem(np.eye(2), [0.0, 0.0], 0.0, [(a, b)], lb, ub)
    assert _certified(monkeypatch, qp) != enumerates


@pytest.mark.parametrize("n, rows, lb, ub, certified", [
    # a zero coefficient over an infinite face adds 0, never 0 * inf
    (2, [([0.0, 1.0], -1.0)], [-np.inf, 0.0], [np.inf, 1.0], True),
    # a face at -inf in the row's direction: no finite minimum
    (2, [([1.0, 1.0], -5.0)], [-np.inf, 0.0], [1.0, 1.0], False),
    # np.clip returns ub where lb > ub, so lb - ub decides the box row
    (1, [], [1.0 + 1e-6], [1.0], True),
    (1, [], [1.0 + 0.5e-9], [1.0], False),
    (1, [([1.0], 0.5 - 0.6e-9)], [0.5 + 0.5e-9], [0.5], False),
    (1, [([1.0], 0.5 - 2e-9)], [0.5 + 0.5e-9], [0.5], True),
    # a zero row fails every point when b < -slack
    (1, [([0.0], -1e-6)], [-1.0], [1.0], True),
    (1, [([-0.0], -0.5e-9)], [-1.0], [1.0], False),
])
def test_solve_qp_certificate_on_zero_rows_open_and_inverted_boxes(
        monkeypatch, n, rows, lb, ub, certified):
    qp = QPProblem(np.eye(n), np.zeros(n), 0.0, rows, lb, ub)
    assert _certified(monkeypatch, qp) == certified


_COEF = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-4.0, 4.0)
_SLACK = controller.FEASIBLE_SLACK


@st.composite
def _bounds(draw):
    """One coordinate's (lb, ub): a box, a half-line, the line, or
    lb > ub by less or by more than the feasibility slack."""
    kind = draw(st.sampled_from(["box", "below", "above", "free",
                                 "inverted"]))
    x = draw(st.floats(-3.0, 3.0))
    if kind == "box":
        return x, x + draw(st.sampled_from([0.0, 1e-9]) | st.floats(0.0, 3.0))
    if kind == "below":
        return -np.inf, x
    if kind == "above":
        return x, np.inf
    if kind == "free":
        return -np.inf, np.inf
    gap = draw(st.sampled_from([0.5e-9, 0.9e-9, 1.1e-9, 2e-9, 1e-6, 0.5]))
    return x + gap, x


@st.composite
def qp_problems(draw):
    """QPs in one or two inputs with a positive definite cost and 0-3 rows:
    random, zero, exact negations of the row before, box-parallel, and rows
    whose minimum over the box exceeds b + slack by a multiple of the
    certificate's margin just below or above 1."""
    n = draw(st.sampled_from([1, 2]))
    L = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n * n,
                               max_size=n * n))).reshape(n, n)
    Q = L @ L.T + draw(st.floats(0.1, 2.0)) * np.eye(n)
    q = draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n))
    lb, ub = zip(*(draw(_bounds()) for _ in range(n)))
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["random", "zero", "negated", "parallel",
                                     "margin"]))
        a = draw(st.lists(_COEF, min_size=n, max_size=n))
        b = draw(st.sampled_from([0.0, -1e-9, -2e-9]) | st.floats(-6.0, 6.0))
        if kind == "zero":
            a = [0.0] * n
        elif kind == "negated" and rows:
            a, b = [-v for v in rows[-1][0]], -rows[-1][1]
        elif kind == "parallel":
            i = draw(st.integers(0, n - 1))
            a = [(a[i] or 1.0) if k == i else 0.0 for k in range(n)]
        elif kind == "margin":
            low, size = _row_floor(a, lb, ub)
            f = draw(st.sampled_from([-1.0, 0.0, 0.5, 0.99, 1.01, 2.0]))
            if np.isfinite(low):
                b = low - _SLACK - f * 1e-12 * (1.0 + abs(low) + size)
        rows.append((a, b))
    return QPProblem(Q, q, draw(st.floats(-1.0, 1.0)), rows, lb, ub)


# the enumeration's candidates on an unbounded box can be infinite, and
# QPProblem.feasible then meets 0 * inf, and must not warn about it
@pytest.mark.filterwarnings("error:invalid value encountered in matmul")
@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(qp=qp_problems())
def test_solve_qp_is_the_enumeration_reference(qp):
    got = solve_qp(qp)
    want = qp_reference.solve_qp(qp)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_c07_loop_qps_are_the_reference_and_infeasible_ones_certified(
        monkeypatch):
    qps = []

    def recording(qp):
        qps.append(qp)
        return solve_qp(qp)

    monkeypatch.setattr(controller, "solve_qp", recording)
    decisions = mg_closed_loop(horizon=20.0)[1]
    # levels 0..9 each try one QP; level 10 means all ten failed
    assert len(decisions) == 41
    assert len(qps) == 381 == sum(min(d["level"] + 1, 10) for d in decisions)
    calls = _counting_solves(monkeypatch)
    certified = infeasible = 0
    for qp in qps:
        before = len(calls)
        got = solve_qp(qp)
        certified += len(calls) == before
        want = qp_reference.solve_qp(qp)
        if want is None:
            infeasible += 1
            assert got is None
        else:
            assert got.tobytes() == want.tobytes()
    assert certified == infeasible == 340


def test_solve_qp_dimension_cap():
    qp = QPProblem(np.eye(3), np.zeros(3), 0.0, [], [-1.0] * 3, [1.0] * 3)
    with pytest.raises(ValueError):
        solve_qp(qp)


def test_admissible_rows_by_hand():
    plant = integrator_plant(-1.0, 1.0)
    rows = admissible_constraints(np.array([0.5]), V_sq(),
                                  point_field(lambda x: 1.0 - float(x[0] ** 2),
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
                  u_prev=np.array([0.0, 0.64]), log_list=entries)
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
                  u_prev=np.array([0.0]), log_list=entries)
    entry = entries[0]
    assert entry["level"] == 9
    sigma9 = 0.07 / 2.0**8
    assert entry["sigma"] == pytest.approx(sigma9)
    # B-row active: 2u = -sigma9 at the minimum-norm feasible input
    assert u[0] == pytest.approx(-sigma9 / 2.0, rel=1e-9)


@pytest.mark.parametrize("x, levels", [(0.1, 1), (1.0, 10)])
def test_qp_policy_builds_the_rows_once_per_level_tried(monkeypatch, x,
                                                        levels):
    # the logged margins come from the level-0 rows, not from a rebuild;
    # the Lie derivatives and V(x) are evaluated once per decision
    sigmas = []
    states = []
    rows, lie_terms = controller._rows, controller._lie_terms

    def counting_rows(lie, sigma, barrier_cap):
        sigmas.append(sigma)
        return rows(lie, sigma, barrier_cap)

    def counting_lie_terms(x, V, B, plant):
        states.append(x)
        return lie_terms(x, V, B, plant)

    monkeypatch.setattr(controller, "_rows", counting_rows)
    monkeypatch.setattr(controller, "_lie_terms", counting_lie_terms)
    cfg = SampleHoldConfig(period=0.5, sigma_margin=0.07)
    entries = []
    u = qp_policy(np.array([x]), V_sq(), B_bowl(), integrator_plant(), cfg,
                  u_prev=np.array([0.0]), log_list=entries)
    assert len(sigmas) == levels and sigmas[0] == 0.07
    assert len(states) == 1
    assert entries[0]["level"] == levels - 1
    row_v, row_b = admissible_constraints(np.array([x]), V_sq(), B_bowl(),
                                          integrator_plant(), 0.07)
    assert entries[0]["margin_V"] == float(row_v[1] - row_v[0] @ u)
    assert entries[0]["margin_B"] == float(row_b[1] - row_b[0] @ u)


def test_qp_policy_holds_input_at_level_ten(caplog):
    # flat barrier: 0.u <= -sigma can never hold, nor can the V-row
    flat_B = point_field(lambda x: 5.0, lambda x: np.zeros(1))
    plant = integrator_plant()
    cfg = SampleHoldConfig(period=0.5, sigma_margin=0.07,
                           rate_limits=(0.01,))
    entries = []
    with caplog.at_level("WARNING"):
        u = qp_policy(np.array([1.0]), V_sq(), flat_B, plant, cfg,
                      u_prev=np.array([0.2]), log_list=entries)
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


def test_plant_rate_sums_each_row_left_to_right():
    # (1 + 1e16) - 1e16 is 0.0, where numpy's 1 + (1e16 - 1e16) is 1.0
    plant = ControlledPlant(dim_x=1, dim_u=2, drift=lambda x: [1.0],
                            input_matrix=lambda x: [[1.0, 1.0]],
                            input_box=AxisBox([-1e17, -1e17], [1e17, 1e17]))
    assert plant.vector_field([0.0], [1e16, -1e16]).tolist() == [0.0]
    cfg = SampleHoldConfig(period=0.5, sigma_margin=0.07)
    system = augment_sample_hold(plant, lambda z: [0.0, 0.0], cfg)
    z = np.array([0.0, 1e16, -1e16, 0.25])
    assert system.flow(z).tolist() == [0.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("f, G", [
    ([0.0], [[1.0], [1.0]]),            # short drift, which numpy broadcast
    ([0.0, 0.0, 0.0], [[1.0], [1.0]]),  # long drift
    ([0.0, 0.0], [[1.0]]),              # too few rows of G
    ([0.0, 0.0], [[1.0], [1.0, 2.0]]),  # a row of G longer than u
    ([0.0, 0.0], [[1.0], []]),          # a row of G shorter than u
])
def test_plant_maps_of_the_wrong_length_raise(f, G):
    plant = ControlledPlant(dim_x=2, dim_u=1, drift=lambda x: f,
                            input_matrix=lambda x: G,
                            input_box=AxisBox([-1.0], [1.0]))
    cfg = SampleHoldConfig(period=0.5, sigma_margin=0.07)
    system = augment_sample_hold(plant, lambda z: [0.0], cfg)
    with pytest.raises(ValueError):
        system.flow(np.zeros(4))
    with pytest.raises(ValueError):
        plant.vector_field(np.zeros(2), np.zeros(1))


@pytest.mark.parametrize("rate, x, u", [
    (lambda z: [0.0], [0.0, 0.0], [0.0]),            # short closed rate
    (lambda z: [0.0, 0.0, 0.0], [0.0, 0.0], [0.0]),  # long closed rate
    (None, [0.0, 0.0], [0.0, 0.0]),                  # long u
    (None, [0.0, 0.0], []),                          # short u
    (None, [0.0], [0.0]),                            # short x
])
def test_a_closed_rate_or_input_of_the_wrong_length_raises(rate, x, u):
    # the plant maps of test_plant_maps_of_the_wrong_length_raise are right
    # here; the closed rate, or the state handed to vector_field, is not
    plant = ControlledPlant(dim_x=2, dim_u=1, drift=lambda x: [0.0, 0.0],
                            input_matrix=lambda x: [[1.0], [1.0]],
                            input_box=AxisBox([-1.0], [1.0]),
                            closed_rate=rate)
    with pytest.raises(DimensionMismatch):
        plant.vector_field(x, u)
    if rate is not None:
        cfg = SampleHoldConfig(period=0.5, sigma_margin=0.07)
        system = augment_sample_hold(plant, lambda z: [0.0], cfg)
        with pytest.raises(DimensionMismatch):
            system.flow(np.zeros(4))


def test_a_plant_without_a_closed_rate_composes_the_maps_it_was_given():
    # dataclasses.replace with new maps must not keep the old composition
    plant = ControlledPlant(dim_x=1, dim_u=1, drift=lambda x: [1.0],
                            input_matrix=lambda x: [[2.0]],
                            input_box=AxisBox([-1.0], [1.0]))
    assert plant.closed_rate is None
    assert plant.vector_field([0.0], [3.0]).tolist() == [7.0]
    moved = dataclasses.replace(plant, drift=lambda x: [-1.0])
    assert moved.vector_field([0.0], [3.0]).tolist() == [5.0]
    own = dataclasses.replace(plant, closed_rate=lambda z: [z[0] + z[1]])
    assert own.vector_field([0.5], [3.0]).tolist() == [3.5]


@pytest.mark.parametrize("u", [
    0.5,           # a scalar
    [0.5],         # short
    [0.5] * 3,     # long
    [[0.5, 0.5]],  # a row, not a vector
])
def test_a_policy_value_of_the_wrong_shape_raises(u):
    plant = ControlledPlant(dim_x=1, dim_u=2, drift=lambda x: [0.0],
                            input_matrix=lambda x: [[1.0, 1.0]],
                            input_box=AxisBox([-1.0, -1.0], [1.0, 1.0]))
    cfg = SampleHoldConfig(period=0.5, sigma_margin=0.07)
    system = augment_sample_hold(plant, lambda z: u, cfg)
    with pytest.raises(DimensionMismatch, match="policy"):
        system.jump_candidates(np.array([0.0, 0.0, 0.0, 0.5]))
    right = augment_sample_hold(plant, lambda z: [0.5, -0.25], cfg)
    post = right.jump_candidates(np.array([0.0, 0.0, 0.0, 0.5]))[0]
    assert post.tolist() == [0.0, 0.5, -0.25, 0.0]


def test_an_operating_box_of_the_wrong_dimension_is_rejected():
    with pytest.raises(ValueError, match="operating_box"):
        ControlledPlant(dim_x=2, dim_u=1, drift=lambda x: [0.0, 0.0],
                        input_matrix=lambda x: [[1.0], [1.0]],
                        input_box=AxisBox([-1.0], [1.0]),
                        operating_box=AxisBox([0.0], [1.0]))


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
