"""Fixed-step hybrid simulator with bisection event refinement.

Flows are integrated with classical RK4; set-membership events (jump-set
entry, flow-set exit, bounds exit) are located by bisecting the step until
the state-space bracket width drops below ``event_tol``.  Disturbances are
held constant across each accepted step, which keeps perturbed runs
reproducible from a single seed.

A step works on the state's Python floats: the flow map's list form (see
hybrid.from_floats) gets each stage state as a list, and the stages and
their combination are float arithmetic, the same IEEE operations in the
same order as the array form, so the arcs keep its bits without its numpy
temporaries on short vectors.  A map without a list form gets a fresh
array at each stage.  The first stage f(x) + d is computed once per step
and shared by every bisection probe of that step, which then costs three
flow calls.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import UnsupportedDistance, contains, dist_to_set, sample_region
from .hybrid import (
    DimensionMismatch,
    Disturbance,
    HybridArc,
    HybridSystem,
    Termination,
    as_vector,
)
from .report import CheckReport, Counterexample, Verdict

_MAX_BISECT = 200


class BadInitialCondition(ValueError):
    """Initial state outside bounds, or outside both flow and jump sets."""


class HorizonTooShort(ValueError):
    """Arc does not reach the requested total time."""


@dataclass
class SimConfig:
    """Solver knobs.

    t_min is the smallest positive gap allowed between consecutive jumps;
    a shorter (but still positive) gap triggers the system's zeno_map when
    present and a ZenoAccumulation stop otherwise.  Zero-gap jump chains
    are left alone so purely discrete systems run normally.  Where the flow
    and jump sets overlap, the solver jumps.
    """

    h: float = 1e-3
    T_max: float = 10.0
    J_max: int = 1000
    event_tol: float = 1e-9
    disturbance: Disturbance = None
    t_min: float = 1e-6

    def __post_init__(self):
        if not self.h > 0.0 or not 0.0 < self.T_max < math.inf:
            raise ValueError("h must be positive, T_max positive and finite")
        if not self.J_max >= 0:
            raise ValueError("J_max must be nonnegative")
        if not 0.0 < self.event_tol < self.h:
            raise ValueError("event_tol must lie in (0, h)")
        if self.disturbance is None:
            self.disturbance = Disturbance.none()


@dataclass
class SolveReport:
    arc: HybridArc
    flow_time: float
    jump_count: int
    zeno_snapped: bool = False

    @property
    def termination(self):
        return self.arc.termination


def _list_form(system):
    """The system's flow map in list form: a list of dim floats in, a
    sequence of dim floats out.  That is the map's ``floats`` attribute
    when it has one; otherwise system.flow on a fresh array, with its value
    checked for shape and listed."""
    floats = getattr(system.flow_map, "floats", None)
    if floats is not None:
        return floats
    flow, dim = system.flow, system.dim

    def listed(xs):
        fx = flow(np.array(xs))
        if fx.shape != (dim,):
            raise DimensionMismatch(
                "flow map returned shape %s, wanted (%d,)" % (fx.shape, dim)
            )
        return fx.tolist()

    return listed


def _slope(f, y, d):
    """f(y) + d as Python floats: f is a list form, y and d lists of
    floats."""
    fy = f(y)
    if len(fy) != len(d):
        raise DimensionMismatch(
            "flow map returned shape (%d,), wanted (%d,)" % (len(fy), len(d))
        )
    return [a + b for a, b in zip(fy, d)]


def _rk4_step(f, x, k1, dt, d):
    """One classical RK4 step over dt from x, a list of floats, under the
    list form f.

    k1 = _slope(f, x, d) is the first stage, which every step from x under
    d shares; the other stages each evaluate f once on a fresh list.
    Returns a fresh array of x + (dt/6) ((k1 + 2 k2) + 2 k3 + k4), formed
    with the IEEE operations of the array form in the same order, so with
    the same bits.
    """
    half = 0.5 * dt
    k2 = _slope(f, [a + half * k for a, k in zip(x, k1)], d)
    k3 = _slope(f, [a + half * k for a, k in zip(x, k2)], d)
    k4 = _slope(f, [a + dt * k for a, k in zip(x, k3)], d)
    w = dt / 6.0
    return np.array([
        (((p + 2.0 * q) + 2.0 * r) + s) * w + a
        for a, p, q, r, s in zip(x, k1, k2, k3, k4)
    ])


def _bisect_event(f, x0, xs, k1, dt, d, pred, x_full, event_tol):
    """Shrink [0, dt] around the first parameter where pred flips true.

    pred(x0) must be False and pred(x_full) True; xs is x0 as a list and
    k1 the step's first stage there.  Returns (theta_in, x_in, theta_out,
    x_out) with |x_out - x_in| <= event_tol; both states come from a single
    RK4 substep off the same start point.
    """
    lo, x_lo = 0.0, x0
    hi, x_hi = dt, x_full
    for _ in range(_MAX_BISECT):
        gap = x_hi - x_lo
        # np.linalg.norm of a 1-D array, bit for bit
        if math.sqrt(gap.dot(gap)) <= event_tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        x_mid = _rk4_step(f, xs, k1, mid, d)
        if pred(x_mid):
            hi, x_hi = mid, x_mid
        else:
            lo, x_lo = mid, x_mid
    return lo, x_lo, hi, x_hi


class _ArcBuilder:
    """Accumulates phases sample by sample, tolerating zero-length phases.

    States are kept as given, not copied: the solver hands over arrays that
    nothing writes to afterwards.  With a watch region, a sample is tested
    against it once it is final: when a sample at a later time or a jump
    follows it (until then an append at the same time may still replace
    it).  The first final sample outside the watch sets ``left``, and
    nothing is stored after it.
    """

    def __init__(self, t0, x0, watch=None):
        self.phases = []
        self.times = [t0]
        self.states = [x0]
        self.watch = watch
        self.left = False

    def append(self, t, x):
        if t <= self.times[-1]:
            # Event refinement can land within float resolution of the last
            # accepted sample; fold it in rather than storing a dead segment.
            self.states[-1] = x
        elif self.keeps_last():
            self.times.append(t)
            self.states.append(x)

    def keeps_last(self):
        """Test the last sample, which is now final, against the watch;
        False once a final sample lies outside it."""
        if self.watch is not None:
            self.left = not contains(self.watch, self.states[-1], 0.0)
        return not self.left

    def new_phase(self, t, x_plus):
        self.phases.append((np.array(self.times), np.vstack(self.states)))
        self.times = [t]
        self.states = [x_plus]

    def build(self, termination):
        self.phases.append((np.array(self.times), np.vstack(self.states)))
        return HybridArc(self.phases, termination=termination)


def solve(system: HybridSystem, x0, config: SimConfig,
          watch=None) -> SolveReport:
    """Integrate one maximal solution from x0 under the stop rules in config.

    With a watch region the run also ends at the first stored sample outside
    it, without bisection, as LEFT_WATCH_REGION: the arc is then the prefix
    of the unwatched arc up to and including that sample.
    """
    # a copy: the arc keeps the solver's states, and x0 may be the caller's
    x0 = np.array(x0, dtype=float, ndmin=1)
    if x0.size != system.dim:
        raise BadInitialCondition(
            "x0 has dimension %d, system expects %d" % (x0.size, system.dim)
        )
    if not np.all(np.isfinite(x0)):
        raise BadInitialCondition("x0 is not finite")
    flow_set, jump_set, bounds = system.flow_set, system.jump_set, system.bounds
    if not contains(bounds, x0, 0.0):
        raise BadInitialCondition("x0 outside simulation bounds")
    tol = config.event_tol
    if not (contains(flow_set, x0, tol) or contains(jump_set, x0, 0.0)):
        raise BadInitialCondition("x0 outside both flow and jump sets")

    f = _list_form(system)
    draw = config.disturbance.start(system.dim, system.delta)
    builder = _ArcBuilder(0.0, x0, watch)
    t, j, x = 0.0, 0, x0
    jump_count = 0
    zeno_snapped = False
    last_jump_t = None
    termination = None

    def do_jump():
        nonlocal t, j, x, jump_count, zeno_snapped, last_jump_t, termination
        if jump_count >= config.J_max:
            termination = Termination.HORIZON_REACHED
            return False
        gap = None if last_jump_t is None else t - last_jump_t
        snap = gap is not None and 0.0 < gap < config.t_min
        if snap and system.zeno_map is None:
            termination = Termination.ZENO_ACCUMULATION
            return False
        if not builder.keeps_last():
            return False
        if snap:
            x_plus = np.array(system.zeno_map(x), dtype=float, ndmin=1)
            zeno_snapped = True
        else:
            x_plus = system.jump_candidates(x)[0]
        if x_plus.shape != (system.dim,):
            # the next RK4 step would zip x_plus with the stages and drop
            # its extra entries; a length-1 value would broadcast
            raise DimensionMismatch(
                "%s map returned shape %s, wanted (%d,)"
                % ("Zeno" if snap else "jump", x_plus.shape, system.dim)
            )
        if not snap:
            x_plus = x_plus + draw(t, j)
        builder.new_phase(t, x_plus)
        j += 1
        jump_count += 1
        last_jump_t = t
        x = x_plus
        return True

    # a plain step only accepts a state outside D and inside C, so the
    # membership tests at the loop top are skipped right after one
    stepped = False
    while termination is None and not builder.left:
        if t >= config.T_max:
            termination = Termination.HORIZON_REACHED
            break
        if not stepped:
            if contains(jump_set, x, 0.0):
                if not do_jump():
                    break
                continue
            if not contains(flow_set, x, tol):
                termination = Termination.LEFT_FLOW_AND_JUMP_SETS
                break
        stepped = False

        dt = min(config.h, config.T_max - t)
        d = draw(t, j).tolist()
        xs = x.tolist()
        k1 = _slope(f, xs, d)
        x_prop = _rk4_step(f, xs, k1, dt, d)

        if contains(jump_set, x_prop, 0.0):
            pred = lambda y: contains(jump_set, y, 0.0)
            _, _, th, x_star = _bisect_event(
                f, x, xs, k1, dt, d, pred, x_prop, tol
            )
            t += th
            builder.append(t, x_star)
            x = x_star
            continue  # loop top performs the jump

        if not contains(flow_set, x_prop, tol):
            pred = lambda y: not contains(flow_set, y, tol)
            th_in, x_in, th_out, x_out = _bisect_event(
                f, x, xs, k1, dt, d, pred, x_prop, tol
            )
            if contains(jump_set, x_in, 0.0):
                t += th_in
                builder.append(t, x_in)
                x = x_in
            elif contains(jump_set, x_out, 0.0):
                t += th_out
                builder.append(t, x_out)
                x = x_out
            else:
                t += th_in
                builder.append(t, x_in)
                x = x_in
                termination = Termination.LEFT_FLOW_AND_JUMP_SETS
            continue

        if not contains(bounds, x_prop, 0.0):
            pred = lambda y: not contains(bounds, y, 0.0)
            _, _, th, x_out = _bisect_event(
                f, x, xs, k1, dt, d, pred, x_prop, tol
            )
            t += th
            builder.append(t, x_out)
            termination = Termination.ESCAPED_BOUNDS
            continue

        t += dt
        x = x_prop
        builder.append(t, x)
        stepped = True

    if builder.left:
        # the arc ends at its first final sample outside the watch; the
        # sample or jump that made it final was not stored, and any stop
        # reason set with it does not apply
        termination = Termination.LEFT_WATCH_REGION
    arc = builder.build(termination)
    flow_time = sum(times[-1] - times[0] for times, _ in arc.phases)
    return SolveReport(
        arc=arc, flow_time=flow_time, jump_count=jump_count, zeno_snapped=zeno_snapped
    )


def solve_many(system, points, config, keys, watch=None):
    """Lazily solve from each point, one disturbance seed key per point.

    Yields, in order, a SolveReport per point, or the BadInitialCondition
    raised for a point with no solution.  Random disturbances are reseeded
    from each point's key, so results do not depend on order and repeat
    run to run.  Every solve runs under the same watch region.
    """
    for x0, key in zip(points, keys, strict=True):
        cfg = replace(config, disturbance=config.disturbance.reseed(key))
        try:
            rep = solve(system, x0, cfg, watch=watch)
        except BadInitialCondition as err:
            rep = err
        yield rep


def reachable_sample(system, X0, T, n_init, n_dist, config, seed=0):
    """Under-approximate the reach set up to total time T by a point cloud.

    Initial points are rejection-sampled from X0's bounding box; each is
    driven under n_dist disturbance realizations and every stored sample
    with t + j <= T is collected.
    """
    points = sample_region(X0, n_init, np.random.default_rng(seed))
    if T <= 0.0:
        return points

    starts = [p for p in points for _ in range(n_dist)]
    keys = [[seed, i, k] for i in range(len(points)) for k in range(n_dist)]
    horizon = replace(config, T_max=min(config.T_max, T + 1.0))
    cloud = []
    for rep in solve_many(system, starts, horizon, keys):
        if not isinstance(rep, BadInitialCondition):
            cloud.extend(x for j, t, x in rep.arc.samples() if t + j <= T)
    return cloud


def _interp(times, states, s):
    """State at time s in [times[0], times[-1]] on the sampled polyline."""
    if len(times) == 1:
        return states[0]
    k = int(np.searchsorted(times, s, side="right")) - 1
    k = min(max(k, 0), len(times) - 2)
    t0, t1 = times[k], times[k + 1]
    w = 0.0 if t1 == t0 else (s - t0) / (t1 - t0)
    return states[k] + w * (states[k + 1] - states[k])


def _rowdot(u, v):
    # row-wise dot product; the columns are summed in order, so a row's
    # value does not depend on how many rows come with it
    acc = u[:, 0] * v[:, 0]
    for k in range(1, u.shape[1]):
        acc = acc + u[:, k] * v[:, k]
    return acc


def _segment_dist2(x, a, b):
    """Squared distance from x to each segment [a[r], b[r]] (x one point or
    one point per segment).  Row r's value depends on row r's inputs alone."""
    ab = b - a
    denom = _rowdot(ab, ab)
    # projection onto each segment, clipped to it; 0 on zero-length ones
    s = np.divide(_rowdot(x - a, ab), denom, out=np.zeros_like(denom),
                  where=denom != 0.0)
    np.clip(s, 0.0, 1.0, out=s)
    gap = x - (a + s[:, None] * ab)
    return _rowdot(gap, gap)


def _window_dist(x, times, states, s0, s1):
    """Min distance from x to the polyline restricted to times in [s0, s1],
    or None when the window misses [times[0], times[-1]].

    The window's vertices are the interpolated ends and the stored samples
    strictly inside (s0, s1); all its segments are measured in one pass.
    At s0 == s1 the window is one point, a segment of length 0.
    """
    s0 = max(s0, times[0])
    s1 = min(s1, times[-1])
    if s0 > s1:
        return None
    i0 = np.searchsorted(times, s0, side="right")
    i1 = np.searchsorted(times, s1, side="left")
    pts = np.vstack([_interp(times, states, s0), states[i0:i1],
                     _interp(times, states, s1)])
    return float(np.sqrt(_segment_dist2(x, pts[:-1], pts[1:]).min()))


def _close_on_own_segment(ts, xs, times, states, eps):
    """Per sample (ts[k], xs[k]): whether the stored segment of the polyline
    that spans time ts[k] lies strictly inside the sample's window and
    passes within eps of xs[k].  That segment is one _window_dist measures,
    with the same arithmetic, so True there means the window passes."""
    ok = np.zeros(ts.size, dtype=bool)
    if times.size < 2:
        return ok
    i = np.searchsorted(times, ts, side="right") - 1
    i = np.clip(i, 0, times.size - 2)
    inside = (times[i] > np.maximum(ts - eps, times[0])) & (
        times[i + 1] < np.minimum(ts + eps, times[-1])
    )
    i = i[inside]
    d2 = _segment_dist2(xs[inside], states[i], states[i + 1])
    ok[inside] = np.sqrt(d2) < eps
    return ok


def closeness(arc_a, arc_b, tau, eps):
    """Symmetric (tau, eps)-closeness test on stored samples.

    Each sample (t, j, x) with t + j <= tau must have a point of the other
    arc, at the same jump index and within eps in time, closer than eps in
    state.  Linear interpolation stands in for the unstored continuum.
    Each sample first tries the other arc's segment at its own time, in one
    array pass per phase; only samples that fail it scan their whole
    window, at O(samples in the window) array work each.
    """
    return _one_sided_close(arc_a, arc_b, tau, eps) and _one_sided_close(
        arc_b, arc_a, tau, eps
    )


def _one_sided_close(src, dst, tau, eps):
    for j, (src_times, src_states) in enumerate(src.phases):
        # t + j never decreases along an arc: the samples up to tau are a
        # prefix, and the first one past it ends the scan
        n = int(np.searchsorted(src_times + j, tau, side="right"))
        if n == 0:
            return True
        if j >= dst.num_phases:
            return False
        ts, xs = src_times[:n], src_states[:n]
        times, states = dst.phases[j]
        near = _close_on_own_segment(ts, xs, times, states, eps)
        for k in np.flatnonzero(~near):
            d = _window_dist(xs[k], times, states, ts[k] - eps, ts[k] + eps)
            if d is None or d >= eps:
                return False
        if n < src_times.size:
            return True
    return True


def construct_perturbed(arc, x_new, T):
    """Companion arc from a new start, rejoining the original at t + j = T.

    The offset x_new - arc(0,0) is scaled by max(0, 1 - (t+j)/T) at every
    stored sample, so the deviation never exceeds the initial offset and
    dies out linearly in total time.  Samples past T are dropped; the exact
    rejoin point is interpolated so equality at total time T is bitwise.
    """
    if arc.max_total_time() < T:
        raise HorizonTooShort(
            "arc spans total time %.6g < %.6g" % (arc.max_total_time(), T)
        )
    if T <= 0.0:
        raise ValueError("T must be positive")
    x_new = as_vector(x_new)
    offset = x_new - arc.phases[0][1][0]

    out_phases = []
    for j, (times, states) in enumerate(arc.phases):
        keep = times + j < T
        ts, xs = times[keep], states[keep]
        rejoined = not keep.all()
        if rejoined:
            if ts.size:
                t_star = T - j
                ts = np.append(ts, t_star)
                xs = np.vstack([xs, arc.eval(t_star, j)])
            else:
                # whole phase starts at or past T: keep its first sample only
                ts, xs = times[:1].copy(), states[:1].copy()
        lam = np.maximum(0.0, 1.0 - (ts + j) / T)
        shift = lam > 0.0
        xs[shift] += lam[shift, None] * offset
        if j == 0:
            xs[0] = x_new  # phase 0 starts at t = 0
        out_phases.append((ts, xs))
        if rejoined:
            break
    return HybridArc(out_phases, termination=Termination.HORIZON_REACHED)


def estimate_lipschitz(fn, box, n_pairs=2000, seed=0):
    """Empirical Lipschitz constant of fn over an axis box via random pairs."""
    bb = box.bounding_box()
    lo, hi = bb.lo, bb.hi
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(n_pairs):
        a = rng.uniform(lo, hi)
        b = rng.uniform(lo, hi)
        gap = float(np.linalg.norm(a - b))
        if gap < 1e-12:
            continue
        ratio = float(np.linalg.norm(as_vector(fn(a)) - as_vector(fn(b)))) / gap
        best = max(best, ratio)
    return best


def companion_radius_bound(delta, tau, lip_flow, lip_jump, delta_prime=0.0):
    """Largest initial offset r with a guaranteed delta-inflated companion:
    r <= (delta - delta') / max(1, 1/tau + L_C, 1 + L_D)."""
    if delta <= delta_prime:
        raise ValueError("need delta > delta_prime")
    scale = max(1.0, 1.0 / tau + lip_flow, 1.0 + lip_jump)
    return (delta - delta_prime) / scale


def verify_solution(system, arc, slope_tol=1e-3):
    """Check an arc against a system's data: membership, slopes, jumps.

    (a) every flow sample lies in the flow set within 1e-9,
    (b) each stored segment's chord slope matches the flow map at the
        segment midpoint state within delta + slope_tol,
    (c) each jump departs from the jump set and lands within
        delta + slope_tol of some jump-map candidate.
    """
    delta = system.delta
    # set inflation lives in flow_set/jump_set themselves (see perturb);
    # delta only widens the slack on map mismatches here
    set_tol = 1e-9
    ces = []
    n_samples = 0
    n_segments = 0
    n_jumps = 0

    last_phase = arc.num_phases - 1
    for j, (times, states) in enumerate(arc.phases):
        m = len(times)
        if arc.termination == Termination.ESCAPED_BOUNDS and j == last_phase:
            # the sample past the bounds is not the system's
            m -= 1
        n_samples += m
        outside = ~system.flow_set.contains_many(states[:m], set_tol)
        rows = np.flatnonzero(outside)
        in_jump = system.jump_set.contains_many(states[rows], set_tol)
        for k in rows[~in_jump].tolist():
            x = states[k]
            margin = _membership_margin(system.flow_set, x, set_tol)
            ces.append(
                Counterexample(
                    condition="flow-membership",
                    point=x,
                    margin=margin,
                    witness=(j, float(times[k])),
                )
            )
        for k in range(len(times) - 1):
            dt = float(times[k + 1] - times[k])
            if dt <= 1e-12:
                continue
            n_segments += 1
            slope = (states[k + 1] - states[k]) / dt
            f_mid = system.flow(0.5 * (states[k] + states[k + 1]))
            err = float(np.linalg.norm(slope - f_mid))
            # the chord of one RK4 step deviates from f at the midpoint by
            # O(dt^2) plus whatever constant disturbance acted on the step
            margin = err - (delta + slope_tol)
            if margin > 0.0:
                ces.append(
                    Counterexample(
                        condition="flow-slope",
                        point=0.5 * (states[k] + states[k + 1]),
                        margin=margin,
                        witness=(j, float(times[k])),
                    )
                )

    for j in range(arc.num_phases - 1):
        n_jumps += 1
        times_m, states_m = arc.phases[j]
        times_p, states_p = arc.phases[j + 1]
        x_minus = states_m[-1]
        x_plus = states_p[0]
        t_jump = float(times_m[-1])
        if not contains(system.jump_set, x_minus, set_tol):
            margin = _membership_margin(system.jump_set, x_minus, set_tol)
            ces.append(
                Counterexample(
                    condition="jump-departure",
                    point=x_minus,
                    margin=margin,
                    witness=(j, t_jump),
                )
            )
        candidates = system.jump_candidates(x_minus)
        gap = min(float(np.linalg.norm(x_plus - as_vector(g))) for g in candidates)
        margin = gap - (delta + slope_tol)
        if margin > 0.0:
            ces.append(
                Counterexample(
                    condition="jump-landing",
                    point=x_plus,
                    margin=margin,
                    witness=(j + 1, t_jump),
                )
            )

    verdict = Verdict.PASS if not ces else Verdict.FAIL
    return CheckReport(
        verdict=verdict,
        counterexamples=ces,
        stats={
            "samples": n_samples,
            "segments": n_segments,
            "jumps": n_jumps,
            "delta": delta,
            "slope_tol": slope_tol,
        },
    )


def _membership_margin(region, x, tol):
    """dist(x, region) - tol, or inf when the region has no distance."""
    try:
        return dist_to_set(x, region) - tol
    except UnsupportedDistance:
        return float("inf")
