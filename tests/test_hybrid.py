"""Hybrid system construction, perturbation, arcs, and serialization."""

import csv
import dataclasses
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridcert import (
    AxisBox,
    DimensionMismatch,
    Disturbance,
    EmptySet,
    HybridArc,
    HybridSystem,
    OutOfDomain,
    SimConfig,
    Termination,
    arc_from_csv,
    arc_from_json,
    arc_to_csv,
    bouncing_ball,
    contains,
    make_system,
    perturb,
    solve,
)
from hybridcert import cli
from hybridcert.hybrid import arc_from_json_obj, write_phase_rows


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


def test_perturb_carries_every_other_field_unchanged():
    system, _, _ = bouncing_ball()
    sysd = perturb(system, 0.1)
    assert sysd.delta == 0.1
    for f in dataclasses.fields(HybridSystem):
        if f.name not in ("flow_set", "jump_set", "delta"):
            assert getattr(sysd, f.name) is getattr(system, f.name), f.name


def test_disturbance_is_not_both_random_and_fixed():
    with pytest.raises(ValueError, match="not both"):
        Disturbance(seed=1, signal=lambda t, j: [0.0])


def test_disturbance_reseed_changes_only_a_random_one():
    none = Disturbance()
    fixed = Disturbance(signal=lambda t, j: [0.0])
    assert none.reseed(5) is none
    assert fixed.reseed(5) is fixed
    random = Disturbance(seed=1)
    again = random.reseed([0, 2, 3])
    assert again is not random
    assert (again.seed, again.signal) == ([0, 2, 3], None)
    assert random.seed == 1
    want = Disturbance(seed=[0, 2, 3]).start(3, 0.5)
    got = again.start(3, 0.5)
    assert [got(0.0, 0) for _ in range(4)] == [want(0.0, 0) for _ in range(4)]


def test_disturbance_without_a_budget_or_a_mode_is_zero():
    assert Disturbance().start(2, 0.5)(0.0, 0) == [0.0, 0.0]
    assert Disturbance(seed=3).start(2, 0.0)(0.0, 0) == [0.0, 0.0]
    # a fixed signal is clamped even to a zero budget
    assert Disturbance(signal=lambda t, j: [3.0, 4.0]).start(2, 0.0)(
        0.0, 0) == [0.0, 0.0]


def test_disturbance_signal_whose_squares_overflow_is_clamped_along_it():
    # |[1e200, 1e200]|^2 overflows a float; the clamp rescales before it
    # squares, so the signal reaches norm delta along itself, with no warning
    draw = Disturbance(signal=lambda t, j: [1e200, 1e200]).start(2, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = draw(0.0, 0)
    assert d[0] == d[1] > 0.0
    assert np.linalg.norm(d) == pytest.approx(0.1, rel=1e-15)


@pytest.mark.parametrize("value", [[np.inf, 0.0], [0.0, np.nan]],
                         ids=["inf", "nan"])
def test_disturbance_signal_with_a_non_finite_value_raises(value):
    # clamping cannot bring inf or NaN within delta: inf * (delta / inf)
    # is NaN, and a NaN norm is never above delta
    draw = Disturbance(signal=lambda t, j: value).start(2, 0.1)
    with pytest.raises(ValueError, match=r"at \(t, j\) = \(0\.5, 3\)"):
        draw(0.5, 3)


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


def test_arc_eval_of_a_one_sample_phase_is_a_copy_of_its_sample():
    # phase 1 holds the one sample of a jump taken at once
    arc = HybridArc([([0.0, 1.0], [[0.0, 0.0], [1.0, 2.0]]),
                     ([1.0], [[5.0, -1.0]]),
                     ([1.0, 2.0], [[6.0, 0.0], [7.0, 1.0]])],
                    Termination.HORIZON_REACHED)
    for t in (1.0, 1.0 - 5e-13, 1.0 + 5e-13):
        assert arc.eval(t, 1).tolist() == [5.0, -1.0]
    got = arc.eval(1.0, 1)
    got[:] = 0.0
    assert arc.phases[1][1][0].tolist() == [5.0, -1.0]
    with pytest.raises(OutOfDomain):
        arc.eval(1.5, 1)


def test_arc_eval_on_the_shortest_segment_hits_its_ends():
    # times strictly increase, so a segment is at least one ulp long and
    # its interpolation weight is finite
    t1 = float(np.nextafter(1.0, 2.0))
    arc = HybridArc([([0.0, 1.0, t1], [[0.0], [1.0], [3.0]])],
                    Termination.HORIZON_REACHED)
    assert arc.eval(1.0, 0).tolist() == [1.0]
    assert arc.eval(t1, 0).tolist() == [3.0]
    assert arc.eval(t1 + 1e-13, 0).tolist() == [3.0]


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


def arc_to_csv_per_value(arc, path):
    """The arc CSV with every value handed to csv on its own."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["j", "t"] + [f"x_{k + 1}" for k in range(arc.dim)])
        for j, (times, states) in enumerate(arc.phases):
            for t, x in zip(times.tolist(), states.tolist()):
                w.writerow([j, t] + x)
        w.writerow(["termination", arc.termination.value])


def test_arc_csv_is_the_per_value_writer_byte_for_byte(tmp_path):
    held = [0.5, 0.1, 1e-300, -0.0, 5e-324]
    phases = [
        # constant columns, a column mixing 0.0 and -0.0, a varying one
        ([0.0, 0.1, 0.2, 0.3],
         [[0.5, 0.0, -0.0, 1.0 / 3.0, 0.1],
          [0.5, -0.0, -0.0, 2.0, 0.1],
          [0.5, 0.0, -0.0, -7.25, 0.1],
          [0.5, -0.0, -0.0, 1e-310, 0.1]]),
        ([0.3], [[2.0, -1.5, 0.0, 4.0, 0.125]]),  # one sample
        ([0.3, 0.4, 0.5], [held, held, held]),
        ([0.5, 0.6], [[0.0, 1.0, 2.0, 3.0, 4.0],
                      [0.0, 1.0 + 2**-52, 2.0, 3.0, 4.0]]),
    ]
    arc = HybridArc([(np.array(t), np.array(x)) for t, x in phases],
                    Termination.HORIZON_REACHED)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    arc_to_csv(arc, str(got))
    arc_to_csv_per_value(arc, str(want))
    assert got.read_bytes() == want.read_bytes()
    assert b"0.5,-0.0,-0.0" in got.read_bytes()


def test_arc_csv_writes_non_finite_values_as_the_per_value_writer(tmp_path):
    inf, nan = float("inf"), float("nan")
    phases = [
        # inf, -inf and nan in varying columns, nan and -inf held
        ([0.0, 0.1, 0.2],
         [[inf, nan, -inf, 1.0, -0.0],
          [-inf, nan, -inf, nan, 5e-324],
          [nan, nan, -inf, inf, 1e-300]]),
        ([0.2], [[nan, inf, -inf, -0.0, 5e-324]]),  # one sample
        ([0.2, 0.3], [[inf, 0.0, nan, 1e-300, -inf],
                      [inf, -0.0, nan, 1e-300, -inf]]),
    ]
    # HybridArc keeps its states finite; the writer is fed past that check
    arc = HybridArc([(np.array(t), np.zeros((len(t), 5))) for t, _ in phases],
                    Termination.HORIZON_REACHED)
    for (_, states), (_, x) in zip(arc.phases, phases):
        states[:] = x
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    arc_to_csv(arc, str(got))
    arc_to_csv_per_value(arc, str(want))
    assert got.read_bytes() == want.read_bytes()
    assert b"1,0.2,nan,inf,-inf,-0.0,5e-324\r\n" in got.read_bytes()


SPECIAL_FLOATS = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324,
     -5e-324, 1e-300, 2.2250738585072014e-308, 0.1, 1.0 / 3.0])
FLOATS = st.one_of(st.floats(), SPECIAL_FLOATS)


@st.composite
def phase_tables(draw):
    n = draw(st.integers(1, 6))
    samples = st.lists(FLOATS, min_size=n, max_size=n)
    columns = draw(st.lists(st.one_of(FLOATS, samples),
                            min_size=1, max_size=5))
    return draw(st.integers(0, 10**6)), draw(samples), columns


@settings(max_examples=300, deadline=None)
@given(phase_tables())
def test_write_phase_rows_is_csv_writer_byte_for_byte(table):
    j, times, columns = table
    got, want = io.StringIO(newline=""), io.StringIO(newline="")
    write_phase_rows(got, j, times, columns)
    full = [c if isinstance(c, list) else [c] * len(times) for c in columns]
    csv.writer(want).writerows([j, t, *row]
                               for t, *row in zip(times, *full))
    assert got.getvalue() == want.getvalue()


def test_arc_json_round_trip_is_bitwise(tmp_path):
    # the arc.json that hybridcert simulate writes reads back as the arc
    # the library solves, bit for bit
    scenario = tmp_path / "ball.yaml"
    scenario.write_text(
        "system: bouncing-ball\nsim: {h: 0.001, t_max: 3.0, j_max: 5}\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--scenario", str(scenario),
                     "--out", str(out)]) == 0
    system, _, spec = bouncing_ball()
    arc = solve(system, np.asarray(spec.x0[0]),
                SimConfig(h=1e-3, T_max=3.0, J_max=5)).arc
    back = arc_from_json(str(out / "arc.json"))
    assert back.termination == arc.termination
    assert len(back.phases) == len(arc.phases) > 1
    for (ta, xa), (tb, xb) in zip(arc.phases, back.phases):
        assert ta.tobytes() == tb.tobytes()
        assert xa.tobytes() == xb.tobytes()


THREE_PHASES = [([0.0, 0.5], [[1.0], [0.5]]), ([0.5, 0.75], [[2.0], [1.0]]),
                ([0.75], [[3.0]])]


@pytest.mark.parametrize("js, missing", [
    ([0, 2], 1), ([1, 2], 0), ([0, 1, 1], 2), ([0, 1, 5], 2),
], ids=["gap", "no-first", "repeat", "jump-ahead"])
def test_arc_readers_reject_phases_that_skip_a_jump_index(tmp_path, js,
                                                          missing):
    # each phase of an arc file carries its j, and the phases must be
    # numbered 0, 1, ...: a gap is an error, not renumbered away
    phases = THREE_PHASES[:len(js)]
    obj = {"phases": [{"j": j, "t": t, "x": x}
                      for j, (t, x) in zip(js, phases)],
           "termination": "HorizonReached"}
    with pytest.raises(ValueError, match="no phase j = %d$" % missing):
        arc_from_json_obj(obj)
    if len(set(js)) < len(js):
        return  # a repeated j in a CSV continues that phase
    path = tmp_path / "arc.csv"
    rows = ["j,t,x_1"] + ["%d,%r,%r" % (j, t, x[0])
                          for j, (ts, xs) in zip(js, phases)
                          for t, x in zip(ts, xs)]
    path.write_text("\n".join(rows + ["termination,HorizonReached", ""]))
    with pytest.raises(ValueError, match="no phase j = %d$" % missing):
        arc_from_csv(str(path))


def test_total_time_monotone_along_samples():
    system, _, spec = bouncing_ball()
    arc = solve(system, np.asarray(spec.x0[0]),
                SimConfig(h=1e-3, T_max=5.0, J_max=10)).arc
    last = -1.0
    for j, t, _ in arc.samples():
        assert t + j >= last - 1e-12
        last = t + j
