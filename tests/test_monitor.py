"""Sampled property checks: invariance, reach-avoid-stay, stability, cores."""

import logging
import math

import numpy as np
import pytest

from hybridcert import monitor, simulate
from hybridcert import (
    AxisBox,
    Ball,
    Disturbance,
    EmptyEstimate,
    EmptySet,
    Implicit,
    RASSpec,
    SimConfig,
    StabSafeSpec,
    Verdict,
    ball_attractor,
    bouncing_ball,
    check_forward_invariance,
    check_ras,
    check_stability_safety,
    contains,
    estimate_invariant_core,
    make_system,
    perturb,
)
from hybridcert.expressions import ExpressionError, predicate_fn


def scalar_flow(rate, bound=50.0):
    return make_system(
        1,
        AxisBox([-bound], [bound]),
        lambda x: np.array([rate * x[0]]),
        EmptySet(),
        lambda x: [],
        AxisBox([-2.0 * bound], [2.0 * bound]),
    )


def peak_core_region(z_max=2.0):
    """{0 <= y <= 0.1, |z| <= z_max}, horizontal position free."""

    def pred(s):
        return 0.0 <= s[1] <= 0.1 and abs(s[2]) <= z_max

    def sdf(s):
        dy = max(0.0 - s[1], s[1] - 0.1, 0.0)
        dz = max(0.0, abs(s[2]) - z_max)
        return math.hypot(dy, dz)

    return Implicit(pred, AxisBox([0.0, 0.0, -z_max], [0.0, 0.1, z_max]), sdf=sdf)


def test_ras_spec_rejects_nonpositive_deadline():
    with pytest.raises(ValueError):
        RASSpec(x0=[np.zeros(1)], unsafe=EmptySet(), target=Ball([0.0], 1.0),
                t_spec=0.0)


def test_stab_safe_spec_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        StabSafeSpec(x0=[np.zeros(1)], unsafe=EmptySet(),
                     attractor=Ball([0.0], 0.0), eps_levels=(0.1, -1.0))


def test_ras_ball_passes_shipped_spec():
    system, _, spec = bouncing_ball()
    rep = check_ras(system, spec, n_init=1, n_dist=1,
                    config=SimConfig(h=2e-3, T_max=16.0, J_max=400))
    assert rep.verdict == Verdict.PASS
    assert rep.stats["settle_time"] <= spec.t_spec
    assert rep.stats["arcs"] == 1


def test_ras_accepts_predicate_only_target():
    # scenario files declare targets as bare predicates; the settle scan
    # must not demand a distance oracle from them
    system, _, spec = bouncing_ball()
    band = Implicit(lambda s: s[1] <= 0.1,
                    AxisBox([-10.0, -1.0, -20.0], [60.0, 0.1, 20.0]))
    loose = RASSpec(x0=spec.x0, unsafe=spec.unsafe, target=band,
                    t_spec=spec.t_spec)
    rep = check_ras(system, loose, n_init=1, n_dist=1,
                    config=SimConfig(h=2e-3, T_max=16.0, J_max=400))
    assert rep.verdict == Verdict.PASS


def test_ras_flags_unsafe_crossing():
    system, _, spec = bouncing_ball()
    bad = RASSpec(x0=spec.x0, unsafe=AxisBox([-10.0, 8.0, -20.0],
                                             [60.0, 15.0, 20.0]),
                  target=spec.target, t_spec=spec.t_spec)
    rep = check_ras(system, bad, n_init=1, n_dist=1,
                    config=SimConfig(h=2e-3, T_max=3.0, J_max=10))
    assert rep.verdict == Verdict.FAIL
    assert any(ce.condition == "safety" for ce in rep.counterexamples)


def test_ras_flags_unsettled_arc():
    # horizon ends mid-flight, well above the target band
    system, _, spec = bouncing_ball()
    rep = check_ras(system, spec, n_init=1, n_dist=1,
                    config=SimConfig(h=2e-3, T_max=5.0, J_max=10))
    assert rep.verdict == Verdict.FAIL
    assert any(ce.condition == "reach-stay" for ce in rep.counterexamples)


def test_ras_whole_tube_target_settles_immediately():
    system, _, spec = bouncing_ball()
    wide = RASSpec(x0=spec.x0, unsafe=spec.unsafe,
                   target=AxisBox([-10.0, -1.0, -20.0], [60.0, 15.0, 20.0]),
                   t_spec=1.0)
    rep = check_ras(system, wide, n_init=1, n_dist=1,
                    config=SimConfig(h=2e-3, T_max=2.0, J_max=10))
    assert rep.verdict == Verdict.PASS
    assert rep.stats["settle_time"] == 0.0


def test_ras_short_horizon_is_inconclusive():
    system, _, spec = bouncing_ball()
    wide = RASSpec(x0=spec.x0, unsafe=spec.unsafe,
                   target=AxisBox([-10.0, -1.0, -20.0], [60.0, 15.0, 20.0]),
                   t_spec=8.0)
    rep = check_ras(system, wide, n_init=1, n_dist=1,
                    config=SimConfig(h=2e-3, T_max=1.0, J_max=10))
    assert rep.verdict == Verdict.INCONCLUSIVE
    assert rep.stats["short_arcs"] == rep.stats["arcs"]


def test_stability_contraction_keeps_every_offset():
    spec = StabSafeSpec(x0=[np.array([0.5])], unsafe=AxisBox([40.0], [45.0]),
                        attractor=Ball([0.0], 0.0), eps_levels=(0.1, 1.0))
    rep = check_stability_safety(scalar_flow(-1.0), spec, n_init=6,
                                 config=SimConfig(h=1e-2, T_max=6.0))
    assert rep.verdict == Verdict.PASS
    # decay arcs never leave the band they start in
    assert rep.stats["delta_per_eps"] == {0.1: 0.1, 1.0: 1.0}
    assert rep.stats["settle_times"][0.1] > 0.0


def test_stability_expansion_fails():
    spec = StabSafeSpec(x0=[np.array([0.5])], unsafe=AxisBox([40.0], [45.0]),
                        attractor=Ball([0.0], 0.0), eps_levels=(1.0,))
    rep = check_stability_safety(scalar_flow(1.0), spec, n_init=6,
                                 config=SimConfig(h=1e-2, T_max=8.0))
    assert rep.verdict == Verdict.FAIL
    kinds = {ce.condition for ce in rep.counterexamples}
    assert "stability" in kinds and "attraction" in kinds
    assert rep.stats["delta_per_eps"][1.0] == 0.0


def test_stability_ball_records_unsampleable_shell():
    system, _, spec = bouncing_ball()
    ss = StabSafeSpec(x0=spec.x0, unsafe=spec.unsafe,
                      attractor=ball_attractor(), eps_levels=(0.5,))
    rep = check_stability_safety(system, ss, n_init=2,
                                 config=SimConfig(h=2e-3, T_max=14.0, J_max=400))
    assert rep.verdict == Verdict.PASS
    # the rest set has unbounded extent, so the offset sweep is skipped
    assert rep.stats["delta_per_eps"] == {0.5: None}
    # settle is measured in total time: ~12.3 of flow plus the jump count
    assert 26.0 < rep.stats["settle_times"][0.5] < 28.0


def test_stability_check_raises_a_broken_attractor_predicate():
    # the predicate overflows for x > 0.71; that is an error in the
    # scenario, not a shell with nothing to sample
    attractor = Implicit(
        predicate_fn("exp(1000*x) < 0 or x*x < 0.01", ["x"]),
        AxisBox([-1.0], [1.0]),
    )
    spec = StabSafeSpec(x0=[np.array([0.5])], unsafe=AxisBox([8.0], [9.0]),
                        attractor=attractor)
    with pytest.raises(ExpressionError, match="OverflowError"):
        check_stability_safety(scalar_flow(-1.0), spec, n_init=2,
                               config=SimConfig(h=1e-2, T_max=2.0))


def test_invariance_of_contracted_box():
    rep = check_forward_invariance(scalar_flow(-1.0), AxisBox([-1.0], [1.0]),
                                   n_init=8, config=SimConfig(h=1e-2, T_max=3.0))
    assert rep.verdict == Verdict.PASS
    assert rep.stats["worst_margin"] == 0.0


def test_invariance_fails_under_expansion():
    rep = check_forward_invariance(scalar_flow(1.0), Ball([0.0], 0.1),
                                   n_init=8, config=SimConfig(h=1e-2, T_max=3.0))
    assert rep.verdict == Verdict.FAIL
    ce = rep.counterexamples[0]
    assert ce.condition == "invariance"
    assert ce.margin > 0.0


def test_invariance_rejects_non_region():
    with pytest.raises(ValueError):
        check_forward_invariance(scalar_flow(-1.0), "not a set", n_init=2,
                                 config=SimConfig(h=1e-2, T_max=1.0))


def test_invariance_of_energy_sublevel_for_ball():
    # kinetic + potential energy never grows: conserved in flight, cut at
    # each impact, so {z^2/2 + a y <= E0, y >= 0} traps solutions
    system, _, _ = bouncing_ball()
    a, E0 = 9.8, 0.98

    def pred(s):
        return s[1] >= 0.0 and 0.5 * s[2] ** 2 + a * s[1] <= E0

    def sdf(s):
        return math.hypot(max(0.0, -s[1]),
                          max(0.0, 0.5 * s[2] ** 2 + a * s[1] - E0))

    K = Implicit(pred, AxisBox([0.0, 0.0, -1.4], [1.0, 0.1, 1.4]), sdf=sdf)
    rep = check_forward_invariance(system, K, n_init=12,
                                   config=SimConfig(h=2e-3, T_max=3.0,
                                                    J_max=200))
    assert rep.verdict == Verdict.PASS
    assert rep.stats["arcs"] == 12


def test_invariant_core_of_energy_sublevel_keeps_everything():
    system, _, _ = bouncing_ball()
    a, E0 = 9.8, 0.98

    def pred(s):
        return s[1] >= 0.0 and 0.5 * s[2] ** 2 + a * s[1] <= E0

    def sdf(s):
        return math.hypot(max(0.0, -s[1]),
                          max(0.0, 0.5 * s[2] ** 2 + a * s[1] - E0))

    I = Implicit(pred, AxisBox([0.0, 0.0, -1.4], [0.0, 0.1, 1.4]), sdf=sdf)
    cfg = SimConfig(h=2e-3, T_max=3.0, J_max=200)
    survivors = estimate_invariant_core(system, I, (1, 5, 5), 1, cfg)

    lo, hi = I.bounding_box().lo, I.bounding_box().hi
    axes = [np.linspace(lo[k], hi[k], n) for k, n in enumerate((1, 5, 5))]
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                    axis=-1)
    expected = [p for p in mesh if pred(p)]
    assert len(survivors) == len(expected)
    assert np.allclose(sorted(map(tuple, survivors)),
                       sorted(map(tuple, expected)))


def test_invariant_core_matches_peak_height_oracle():
    system, _, _ = bouncing_ball()
    a, lam = 9.8, 0.8
    I = peak_core_region()
    cfg = SimConfig(h=2e-3, T_max=2.0, J_max=200)
    survivors = estimate_invariant_core(system, I, (1, 5, 5), 1, cfg)

    def stays(p):
        peak = p[1] + p[2] ** 2 / (2.0 * a)
        # falling states lose energy at the bounce before peaking
        return peak <= 0.1 if p[2] >= 0.0 else lam**2 * peak <= 0.1

    lo, hi = I.bounding_box().lo, I.bounding_box().hi
    axes = [np.linspace(lo[k], hi[k], n) for k, n in enumerate((1, 5, 5))]
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                    axis=-1)
    expected = sorted(tuple(p) for p in mesh if stays(p))
    assert sorted(map(tuple, survivors)) == expected
    assert len(expected) == 12


def test_invariant_core_disjoint_region_is_vacuous(caplog):
    system, _, _ = bouncing_ball()
    # entirely outside the simulation bounds: no point admits a solution
    I = AxisBox([0.0, 20.0, 0.0], [1.0, 21.0, 1.0])
    cfg = SimConfig(h=2e-3, T_max=1.0, J_max=10)
    with caplog.at_level(logging.WARNING):
        survivors = estimate_invariant_core(system, I, (2, 2, 2), 1, cfg)
    assert len(survivors) == 8
    assert any("inconclusive" in r.message for r in caplog.records)


def test_invariant_core_empty_raises():
    system, _, _ = bouncing_ball()
    # a falling band: everything drops out of it almost immediately
    I = AxisBox([0.0, 5.0, -1.0], [1.0, 5.1, 0.0])
    cfg = SimConfig(h=2e-3, T_max=1.0, J_max=10)
    with pytest.raises(EmptyEstimate):
        estimate_invariant_core(system, I, (1, 3, 3), 1, cfg)


def scalar_first_hit(arc, hit):
    """The one-point scan the monitors ran before their array scans."""
    n = 0
    for j, t, x in arc.samples():
        n += 1
        if hit(x):
            return (j, t, x), n
    return None, n


def test_safety_scan_asks_an_implicit_set_nothing_past_the_first_hit():
    # the drop from y = 9 reaches y < 1 before its first impact; a predicate
    # that raises on any call after its first True gives the counterexample
    # and count of a plain one, and an axis box the same by array scan
    system, _, spec = bouncing_ball()
    arc = simulate.solve(system, spec.x0[0],
                         SimConfig(h=1e-2, T_max=3.0, J_max=5)).arc
    box = AxisBox([-10.0, -1.0, -20.0], [60.0, 15.0, 20.0])
    answered = []

    def low(s):
        return s[1] < 1.0

    def raising(s):
        if answered and answered[-1]:
            raise AssertionError("asked after the first unsafe sample")
        answered.append(low(s))
        return answered[-1]

    want, n_want = scalar_first_hit(arc, low)
    assert want is not None and n_want < sum(t.size for t, _ in arc.phases)
    for unsafe in (Implicit(low, box), Implicit(raising, box),
                   AxisBox([-np.inf] * 3, [np.inf, np.nextafter(1.0, 0.0),
                                           np.inf])):
        ce, n = monitor._safety_scan(arc, unsafe)
        j, t, x = want
        assert (ce.condition, ce.witness, ce.point.tobytes(), n) == (
            "safety", (j, t), x.tobytes(), n_want)
    assert len(answered) == n_want


def count_samples(monkeypatch, use_watch=True):
    """Patch simulate.solve to sum the samples of the arcs it returns.
    With use_watch False it also drops the watch region, and the monitors
    scan each whole arc for its first sample outside the region instead of
    testing only the last one, as they did before solves took a watch."""
    solve = simulate.solve
    stored = [0]

    def counted(system, x0, config, watch=None):
        rep = solve(system, x0, config, watch=watch if use_watch else None)
        stored[0] += sum(times.size for times, _ in rep.arc.phases)
        return rep

    def scanned(arc, region):
        return scalar_first_hit(arc, lambda x: not contains(region, x, 0.0))

    monkeypatch.setattr(simulate, "solve", counted)
    if not use_watch:
        monkeypatch.setattr(monitor, "_watched_escape", scanned)
    return stored


@pytest.mark.parametrize("use_watch, samples", [(True, 24916),
                                                (False, 51635)])
def test_invariant_core_stops_each_arc_at_its_first_exit(monkeypatch,
                                                         use_watch, samples):
    # c09's band on the (1, 5, 5) grid: 13 of the 25 arcs leave it early
    system, _, _ = bouncing_ball()
    stored = count_samples(monkeypatch, use_watch)
    cfg = SimConfig(h=2e-3, T_max=4.0, J_max=120)
    survivors = estimate_invariant_core(system, peak_core_region(), (1, 5, 5),
                                        1, cfg)
    assert stored[0] == samples
    assert len(survivors) == 12
    a, lam = 9.8, 0.8

    def peak(p):
        top = p[1] + p[2] ** 2 / (2.0 * a)
        return top if p[2] >= 0.0 else lam**2 * top

    assert all(peak(p) <= 0.1 + 1e-6 for p in survivors)


def report_bits(rep):
    """Verdict, counterexamples with points and margins as float hex, and
    stats, for bitwise comparison of reports."""
    ces = [(ce.condition, [float(v).hex() for v in ce.point],
            float(ce.margin).hex(), ce.witness) for ce in rep.counterexamples]
    return rep.verdict, ces, repr(rep.stats)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("check", ["invariance", "stability", "core"])
def test_watched_monitors_report_what_unwatched_ones_do(monkeypatch, check,
                                                        seed):
    system, _, _ = bouncing_ball()
    sys_delta = perturb(system, 0.02)
    cfg = SimConfig(h=5e-3, T_max=2.0, J_max=100,
                    disturbance=Disturbance.random_uniform_ball(seed))
    band = peak_core_region()

    def run():
        if check == "invariance":
            return report_bits(check_forward_invariance(
                sys_delta, band, n_init=6, config=cfg, seed=seed))
        if check == "stability":
            # falls out of the (0.05)-shell at every offset; the 3.0-level
            # sweep bisects between offsets that stay and ones that escape
            spec = StabSafeSpec(
                x0=[np.array([0.0, 0.05, 0.0])],
                unsafe=AxisBox([-1.0, 5.0, -1.0], [1.0, 6.0, 1.0]),
                attractor=AxisBox([-9.0, 0.0, -1.0], [40.0, 0.3, 1.0]),
                eps_levels=(0.05, 3.0))
            return report_bits(check_stability_safety(
                sys_delta, spec, n_init=6, config=cfg, seed=seed))
        # delta 0: any disturbance kicks the ball at rest out of the band
        survivors = estimate_invariant_core(system, band, (1, 3, 5), 2,
                                            cfg, seed=seed)
        return [[float(v).hex() for v in p] for p in survivors]

    watched = run()
    stored = count_samples(monkeypatch, use_watch=False)
    assert run() == watched
    assert stored[0] > 0
