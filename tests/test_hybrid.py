"""Hybrid system construction, perturbation, arcs, and serialization."""

import numpy as np
import pytest

from hybridcert import (
    AxisBox,
    DimensionMismatch,
    EmptySet,
    HybridArc,
    HybridSystem,
    OutOfDomain,
    SimConfig,
    Termination,
    arc_from_csv,
    arc_from_json,
    arc_to_csv,
    arc_to_json,
    bouncing_ball,
    contains,
    make_system,
    perturb,
    solve,
)


def unit_decay():
    return make_system(
        1,
        AxisBox([-10.0], [10.0]),
        lambda x: np.array([-x[0]]),
        EmptySet(),
        lambda x: [],
        AxisBox([-20.0], [20.0]),
    )


def test_make_system_accepts_pure_flow():
    sys1 = unit_decay()
    assert sys1.delta == 0.0
    assert sys1.dim == 1


def test_make_system_rejects_empty_jump_candidates_on_jump_set():
    with pytest.raises(DimensionMismatch):
        make_system(
            1,
            AxisBox([-1.0], [1.0]),
            lambda x: np.array([0.0]),
            AxisBox([-1.0], [1.0]),
            lambda x: [],
            AxisBox([-2.0], [2.0]),
        )


def test_make_system_rejects_wrong_flow_dimension():
    with pytest.raises(DimensionMismatch):
        make_system(
            2,
            AxisBox([-1.0, -1.0], [1.0, 1.0]),
            lambda x: np.array([0.0]),  # dim 1 output for a dim 2 system
            EmptySet(),
            lambda x: [],
            AxisBox([-2.0, -2.0], [2.0, 2.0]),
        )


def test_perturb_zero_keeps_sets():
    system, _, _ = bouncing_ball()
    p0 = perturb(system, 0.0)
    rng = np.random.default_rng(4)
    for p in rng.uniform([-2, -1, -15], [22, 11, 15], size=(300, 3)):
        assert contains(p0.flow_set, p, 0.0) == contains(system.flow_set, p, 0.0)
        assert contains(p0.jump_set, p, 0.0) == contains(system.jump_set, p, 0.0)


def test_perturb_inflates_flow_set():
    system, _, _ = bouncing_ball()
    sysd = perturb(system, 0.1)
    assert sysd.delta == 0.1
    # y = -0.05 is 0.05 below the floor, inside the 0.1-inflated flow set
    assert contains(sysd.flow_set, np.array([0.0, -0.05, 1.0]), 0.0)
    assert not contains(system.flow_set, np.array([0.0, -0.05, 1.0]), 0.0)


def test_perturb_monotone_in_delta():
    system, _, _ = bouncing_ball()
    small = perturb(system, 0.05)
    large = perturb(system, 0.2)
    rng = np.random.default_rng(5)
    for p in rng.uniform([-2, -1, -15], [22, 11, 15], size=(1000, 3)):
        if contains(small.flow_set, p, 0.0):
            assert contains(large.flow_set, p, 0.0)


def test_arc_eval_returns_stored_samples_exactly():
    sys1 = unit_decay()
    arc = solve(sys1, np.array([1.0]), SimConfig(h=1e-2, T_max=1.0)).arc
    times, states = arc.phases[0]
    k = len(times) // 2
    assert np.array_equal(arc.eval(float(times[k]), 0), states[k])


def test_arc_eval_interpolates_linearly():
    # constant slope flow makes the midpoint of two samples exact
    sys1 = make_system(
        1,
        AxisBox([-10.0], [10.0]),
        lambda x: np.array([2.0]),
        EmptySet(),
        lambda x: [],
        AxisBox([-20.0], [20.0]),
    )
    arc = solve(sys1, np.array([0.0]), SimConfig(h=0.1, T_max=1.0)).arc
    times, states = arc.phases[0]
    mid_t = 0.5 * (times[3] + times[4])
    expect = 0.5 * (states[3] + states[4])
    assert np.allclose(arc.eval(float(mid_t), 0), expect, atol=1e-12)


def test_arc_eval_pre_and_post_jump():
    system, _, spec = bouncing_ball()
    rep = solve(system, np.asarray(spec.x0[0]), SimConfig(h=1e-3, T_max=2.0, J_max=5))
    arc = rep.arc
    t1 = float(arc.phases[1][0][0])
    pre = arc.eval(t1, 0)
    post = arc.eval(t1, 1)
    assert pre[2] < 0.0 < post[2]
    assert post[2] == pytest.approx(-0.8 * pre[2], rel=1e-12)


@pytest.mark.parametrize("phases", [
    [([0.5, 1.0], [[0.0], [1.0]])],
    [([0.0, 1.0], [[0.0], [1.0]]), ([1.5, 2.0], [[0.0], [1.0]])],
], ids=["nonzero-start", "gap-between-phases"])
def test_arc_rejects_a_broken_time_domain(phases):
    with pytest.raises(ValueError, match="starts at"):
        HybridArc(phases, Termination.HORIZON_REACHED)


def test_arc_eval_outside_domain_raises():
    sys1 = unit_decay()
    arc = solve(sys1, np.array([1.0]), SimConfig(h=1e-2, T_max=1.0)).arc
    with pytest.raises(OutOfDomain):
        arc.eval(5.0, 0)
    with pytest.raises(OutOfDomain):
        arc.eval(0.5, 3)


def test_arc_validator_rejects_decreasing_times():
    with pytest.raises(ValueError):
        HybridArc(
            [(np.array([0.0, 0.2, 0.1]), np.zeros((3, 1)))],
            Termination.HORIZON_REACHED,
        )


def test_arc_csv_round_trip_is_bitwise(tmp_path):
    system, _, spec = bouncing_ball()
    arc = solve(system, np.asarray(spec.x0[0]),
                SimConfig(h=1e-3, T_max=3.0, J_max=5)).arc
    path = tmp_path / "arc.csv"
    arc_to_csv(arc, str(path))
    back = arc_from_csv(str(path))
    assert len(back.phases) == len(arc.phases)
    for (ta, xa), (tb, xb) in zip(arc.phases, back.phases):
        assert np.array_equal(ta, tb)
        assert np.array_equal(xa, xb)
    assert back.termination == arc.termination


def test_arc_json_round_trip_is_bitwise(tmp_path):
    system, _, spec = bouncing_ball()
    arc = solve(system, np.asarray(spec.x0[0]),
                SimConfig(h=1e-3, T_max=3.0, J_max=5)).arc
    path = tmp_path / "arc.json"
    arc_to_json(arc, str(path))
    back = arc_from_json(str(path))
    for (ta, xa), (tb, xb) in zip(arc.phases, back.phases):
        assert np.array_equal(ta, tb)
        assert np.array_equal(xa, xb)


def test_total_time_monotone_along_samples():
    system, _, spec = bouncing_ball()
    arc = solve(system, np.asarray(spec.x0[0]),
                SimConfig(h=1e-3, T_max=5.0, J_max=10)).arc
    last = -1.0
    for j, t, _ in arc.samples():
        assert t + j >= last - 1e-12
        last = t + j
