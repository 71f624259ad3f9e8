"""Sampling-based verdicts for behavioral specifications.

Every checker here drives the simulator from finitely many initial points
under finitely many disturbance draws over a finite horizon, so PASS means
"no counterexample found", never a proof.  Reports carry the sample counts
needed to judge the evidence.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .certificates import GridSpec
from .geometry import (
    Complement,
    SamplingError,
    SetRegion,
    UnsupportedDistance,
    contains,
    dist_to_set,
    inflate,
    sample_region,
)
from .hybrid import as_vector
from .report import CheckReport, Counterexample, Verdict
from .simulate import BadInitialCondition, _membership_margin, solve_many

log = logging.getLogger(__name__)


# halvings of the initial offset in the stability sweep
BISECT_ITERS = 8


class EmptyEstimate(RuntimeError):
    """No grid point survived the invariance sweep; the core may still be
    nonempty below grid resolution."""


class _Spec:
    """Initial points of a spec whose x0 is a list of points or a region."""

    def initial_points(self, n=16, seed=0):
        """The listed points, or n seeded draws from the region."""
        if isinstance(self.x0, SetRegion):
            return sample_region(self.x0, n, np.random.default_rng(seed))
        return [as_vector(p) for p in self.x0]


@dataclass
class RASSpec(_Spec):
    """Reach-avoid-stay: avoid `unsafe`, settle into `target` by total time
    t_spec and remain there through the horizon."""

    x0: object
    unsafe: SetRegion
    target: SetRegion
    t_spec: float

    def __post_init__(self):
        if not self.t_spec > 0.0:
            raise ValueError("t_spec must be positive")
        self._warn_if_overlapping()

    def _warn_if_overlapping(self):
        bbox = self.target.bounding_box()
        if bbox is None:
            return
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.uniform(bbox.lo, bbox.hi)
            if contains(self.target, p, 0.0) and contains(self.unsafe, p, 0.0):
                log.warning("target and unsafe sets overlap near %s", p)
                return


@dataclass
class StabSafeSpec(_Spec):
    """Stability with safety: `attractor` uniformly pre-asymptotically
    stable with basin covering x0, all solutions avoiding `unsafe`."""

    x0: object
    unsafe: SetRegion
    attractor: SetRegion
    eps_levels: tuple = (0.1, 1.0)

    def __post_init__(self):
        if not all(e > 0.0 for e in self.eps_levels):
            raise ValueError("eps_levels must be positive")


def _first_hit(arc, hit, hits, lazy):
    """The first stored sample (j, t, x) of arc with hit(x) true, or None,
    and the number of samples read up to and including it.

    hits(X) gives hit of each row of an (m, d) array and is called once
    per phase.  A lazy scan, for a hit test that runs user code, calls hit
    on one state at a time and stops at the first hit, so that code sees
    no later state.
    """
    n = 0
    for j, (times, states) in enumerate(arc.phases):
        if lazy:
            k = next((k for k, x in enumerate(states) if hit(x)), None)
        else:
            flags = hits(states)
            k = int(flags.argmax()) if flags.any() else None
        if k is not None:
            return (j, float(times[k]), states[k]), n + k + 1
        n += times.size
    return None, n


def _watched_escape(arc, watch):
    """For an arc solved under watch: its first stored sample (j, t, x)
    outside watch, or None, and the number of samples read, as _first_hit
    would give them.  The solve tested every sample but the last against
    watch and stopped at the first one outside, so only the last can be."""
    t, j, x = arc.last()
    n = sum(times.size for times, _ in arc.phases)
    return (None if contains(watch, x, 0.0) else (j, t, x)), n


def _safety_scan(arc, unsafe):
    """A "safety" counterexample at the first sample in unsafe, or None,
    and the number of samples read."""
    hit, n = _first_hit(arc, lambda x: unsafe.contains(x, 0.0),
                        lambda X: unsafe.contains_many(X, 0.0),
                        unsafe.runs_user_code)
    if hit is not None:
        j, t, x = hit
        hit = Counterexample("safety", x, margin=_penetration(unsafe, x),
                             witness=(j, t))
    return hit, n


def _penetration(region, x):
    """How deep x sits inside region; 0 when the depth is not computable."""
    try:
        return dist_to_set(x, Complement(region))
    except UnsupportedDistance:
        return 0.0


def _solve_all(system, points, config, n_dist=1, seed=0, watch=None):
    """Arcs from each point under n_dist disturbance draws, each ending at
    its first stored sample outside watch (if given); errors logged."""
    starts = [p for p in points for _ in range(n_dist)]
    keys = [[seed, i, k] for i in range(len(points)) for k in range(n_dist)]
    runs = []
    skipped = 0
    for p, rep in zip(starts, solve_many(system, starts, config, keys,
                                         watch=watch)):
        if isinstance(rep, BadInitialCondition):
            skipped += 1
            log.warning("no solution from %s: %s", p, rep)
        else:
            runs.append((p, rep))
    return runs, skipped


def check_forward_invariance(system, K, n_init, config, seed=0):
    """Do all sampled solutions from K stay in inflate(K, event_tol)?"""
    if not isinstance(K, SetRegion):
        raise ValueError("K must be a SetRegion")
    points = sample_region(K, n_init, np.random.default_rng(seed))
    K_slack = inflate(K, config.event_tol)
    runs, skipped = _solve_all(system, points, config, seed=seed,
                               watch=K_slack)
    ces = []
    n_samples = 0
    worst = 0.0
    for p, rep in runs:
        escape, n = _watched_escape(rep.arc, K_slack)
        n_samples += n
        if escape is not None:
            j, t, x = escape
            margin = _membership_margin(K, x, config.event_tol)
            worst = max(worst, margin)
            ces.append(
                Counterexample("invariance", x, margin=margin, witness=(j, t))
            )
    verdict = Verdict.PASS if not ces else Verdict.FAIL
    if not runs:
        verdict = Verdict.INCONCLUSIVE
    return CheckReport(
        verdict=verdict,
        counterexamples=ces,
        stats={
            "arcs": len(runs),
            "samples": n_samples,
            "skipped_initial_points": skipped,
            "worst_margin": worst,
        },
    )


def _settle_total_time(arc, slack_region):
    """Least total time T with every later sample inside the slack region;
    None when the arc never settles (its last sample is outside)."""
    inside = [slack_region.contains_many(states, 0.0)
              for _, states in arc.phases]
    for j in reversed(range(arc.num_phases)):
        times, states = arc.phases[j]
        outside = np.flatnonzero(~inside[j])
        if not outside.size:
            continue
        k = outside[-1] + 1
        # T is the total time of the sample after the last one outside
        if k < times.size:
            return float(times[k]) + j, None
        if j + 1 < arc.num_phases:
            return float(arc.phases[j + 1][0][0]) + j + 1, None
        return None, (j, float(times[k - 1]), states[k - 1])
    return 0.0, None


def check_ras(system, spec: RASSpec, n_init, n_dist, config, seed=0):
    """Sampled reach-avoid-stay verdict.

    Safety: no stored sample in the unsafe set.  Reach-and-stay: each arc's
    last exit from inflate(target, event_tol) happens before t_spec in total
    time; the report carries the worst settle time over arcs.
    """
    points = spec.initial_points(n=n_init, seed=seed)
    target_slack = inflate(spec.target, config.event_tol)
    runs, skipped = _solve_all(system, points, config, n_dist=n_dist, seed=seed)
    ces = []
    worst_settle = 0.0
    n_samples = 0
    short_arcs = 0
    for p, rep in runs:
        unsafe_ce, n = _safety_scan(rep.arc, spec.unsafe)
        n_samples += n
        if unsafe_ce is not None:
            ces.append(unsafe_ce)
        settle, exit_sample = _settle_total_time(rep.arc, target_slack)
        if settle is None:
            j, t, x = exit_sample
            ces.append(
                Counterexample(
                    "reach-stay", x,
                    margin=_membership_margin(spec.target, x, 0.0),
                    witness=(j, t),
                )
            )
        else:
            worst_settle = max(worst_settle, settle)
            if settle > spec.t_spec:
                ces.append(
                    Counterexample(
                        "settle-deadline", p, margin=settle - spec.t_spec,
                    )
                )
            if rep.arc.max_total_time() < spec.t_spec:
                short_arcs += 1

    verdict = Verdict.PASS if not ces else Verdict.FAIL
    if not runs or (not ces and short_arcs == len(runs)):
        # nothing violated but no arc even reached the deadline
        verdict = Verdict.INCONCLUSIVE
    return CheckReport(
        verdict=verdict,
        counterexamples=ces,
        stats={
            "arcs": len(runs),
            "samples": n_samples,
            "skipped_initial_points": skipped,
            "settle_time": worst_settle,
            "t_spec": spec.t_spec,
            "short_arcs": short_arcs,
        },
    )


def check_stability_safety(system, spec: StabSafeSpec, n_init, config,
                           seed=0):
    """Empirical UpAS-with-safety verdict.

    For each eps level, bisection over initial offsets finds the largest
    delta_eps <= eps such that all sampled arcs from inflate(A, delta_eps)
    keep |x|_A < eps; FAIL when even the smallest tested offset escapes.
    Attraction is recorded as settle times of arcs from x0 into each eps
    level; safety flags any stored sample inside the unsafe set.
    """
    A = spec.attractor
    ces = []
    delta_found = {}
    n_arcs = 0

    def all_stay_below(delta, eps):
        nonlocal n_arcs
        shell = inflate(A, delta)
        try:
            points = sample_region(shell, n_init, np.random.default_rng(seed))
        except SamplingError:
            return None
        # a sample outside inflate(A, eps) is already an escape, so each arc
        # is needed only up to the first one
        runs, _ = _solve_all(system, points, config, seed=seed,
                             watch=inflate(A, eps))
        n_arcs += len(runs)
        for _, rep in runs:
            escape, _ = _first_hit(rep.arc, lambda x: A.distance(x) >= eps,
                                   lambda X: A.distance_many(X) >= eps,
                                   A.runs_user_code)
            if escape is not None:
                return escape
        return False

    for eps in spec.eps_levels:
        lo, hi = 0.0, float(eps)
        escape = all_stay_below(hi, eps)
        if escape is None:
            # shell around A has no finite bounding box to draw from; the
            # offset sweep proves nothing, so record the skip instead
            delta_found[eps] = None
            continue
        if escape is False:
            delta_found[eps] = hi
            continue
        floor = hi / 2.0**BISECT_ITERS
        escape = all_stay_below(floor, eps)
        if escape:
            j, t, x = escape
            ces.append(
                Counterexample(
                    "stability", x,
                    margin=dist_to_set(x, A) - eps, witness=(j, t),
                )
            )
            delta_found[eps] = 0.0
            continue
        lo = floor
        for _ in range(BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            if all_stay_below(mid, eps) is False:
                lo = mid
            else:
                hi = mid
        delta_found[eps] = lo

    points = spec.initial_points(n=n_init, seed=seed)
    runs, skipped = _solve_all(system, points, config, seed=seed)
    n_arcs += len(runs)
    settle_times = {float(eps): 0.0 for eps in spec.eps_levels}
    for p, rep in runs:
        unsafe_ce, _ = _safety_scan(rep.arc, spec.unsafe)
        if unsafe_ce is not None:
            ces.append(unsafe_ce)
        for eps in spec.eps_levels:
            shell = inflate(A, float(eps))
            settle, exit_sample = _settle_total_time(rep.arc, shell)
            if settle is None:
                j, t, x = exit_sample
                ces.append(
                    Counterexample(
                        "attraction", x,
                        margin=dist_to_set(x, A) - eps, witness=(j, t),
                    )
                )
            else:
                settle_times[float(eps)] = max(settle_times[float(eps)], settle)

    verdict = Verdict.PASS if not ces else Verdict.FAIL
    if n_arcs == 0:
        verdict = Verdict.INCONCLUSIVE
    return CheckReport(
        verdict=verdict,
        counterexamples=ces,
        stats={
            "arcs": n_arcs,
            "skipped_initial_points": skipped,
            "delta_per_eps": {float(k): v for k, v in delta_found.items()},
            "settle_times": settle_times,
            "note": "uniform-T over all solutions certified only up to the "
                    "realized maximum settle time of the sampled arcs",
        },
    )


def estimate_invariant_core(system, I, grid_n, n_dist, config, seed=0):
    """Grid points of I from which every sampled arc stays in I.

    Returns the surviving points (a sampled inner estimate of the maximal
    invariant subset of I).  Points admitting no solution at all survive
    vacuously; when only such points survive the estimate is logged as
    inconclusive.  Raises EmptyEstimate when nothing survives.
    """
    bbox = I.bounding_box()
    if bbox is None:
        raise ValueError("I needs a bounding box")
    grid_pts = GridSpec(bbox.lo, bbox.hi, grid_n).points()

    I_slack = inflate(I, config.event_tol)
    survivors = []
    vacuous = 0
    for idx in np.flatnonzero(I.contains_many(grid_pts, 0.0)).tolist():
        p = grid_pts[idx]
        ok = True
        solved = 0
        keys = [[seed, idx, k] for k in range(n_dist)]
        for rep in solve_many(system, [p] * n_dist, config, keys,
                              watch=I_slack):
            if isinstance(rep, BadInitialCondition):
                continue
            solved += 1
            escape, _ = _watched_escape(rep.arc, I_slack)
            if escape is not None:
                ok = False
                break
        if ok:
            survivors.append(np.array(p))
            if solved == 0:
                vacuous += 1

    if not survivors:
        raise EmptyEstimate(
            "no grid point of I survived; refine the grid before concluding"
        )
    if vacuous == len(survivors):
        log.warning(
            "invariant-core estimate inconclusive: all %d survivors admit "
            "no solution", vacuous,
        )
    return survivors
