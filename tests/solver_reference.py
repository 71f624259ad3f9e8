"""The array solver, kept as the reference for the float-state solver.

_rk4_step, _bisect_event, _ArcBuilder and solve below are the solver as it
was before hybridcert.simulate stepped on Python floats: every RK4 stage is
a numpy array, the first stage is recomputed for every bisection probe,
and membership goes through geometry.contains.  The float-state solver
must return the same arcs, byte for byte, and the same termination, jump
count and Zeno flag; the tests compare the two.

augmented_flow is the flow of controller.augment_sample_hold as it was
composed in numpy, drift(x) + input_matrix(x) @ u, before the float-state
composition replaced it.
"""

import numpy as np

from hybridcert.geometry import contains
from hybridcert.hybrid import HybridArc, Termination, as_vector
from hybridcert.simulate import BadInitialCondition, SolveReport

_MAX_BISECT = 200


def augmented_flow(plant, z):
    """The sample-and-hold flow at z = (x, u, tau) as numpy composed it:
    the plant field, the held input's zero rate and the timer's unit rate."""
    nx, nu = plant.dim_x, plant.dim_u
    x, u = z[:nx], z[nx:nx + nu]
    field = (np.asarray(plant.drift(x), dtype=float)
             + np.asarray(plant.input_matrix(x), dtype=float) @ u)
    return np.concatenate([field, np.zeros(nu), [1.0]])


def _rk4_step(f, x, dt, d):
    # x + (dt/6) (k1 + 2 k2 + 2 k3 + k4), combined in place in that order;
    # every k is a fresh array (f's result plus d), so f's output is never
    # written to
    half = 0.5 * dt
    k1 = f(x) + d
    k2 = f(x + half * k1) + d
    k3 = f(x + half * k2) + d
    k4 = f(x + dt * k3) + d
    k2 *= 2.0
    k3 *= 2.0
    k1 += k2
    k1 += k3
    k1 += k4
    k1 *= dt / 6.0
    k1 += x
    return k1


def _bisect_event(f, x0, dt, d, pred, x_full, event_tol):
    """Shrink [0, dt] around the first parameter where pred flips true.

    pred(x0) must be False and pred(x_full) True.  Returns
    (theta_in, x_in, theta_out, x_out) with |x_out - x_in| <= event_tol;
    both states come from a single RK4 substep off the same start point.
    """
    lo, x_lo = 0.0, x0
    hi, x_hi = dt, x_full
    for _ in range(_MAX_BISECT):
        if np.linalg.norm(x_hi - x_lo) <= event_tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        x_mid = _rk4_step(f, x0, mid, d)
        if pred(x_mid):
            hi, x_hi = mid, x_mid
        else:
            lo, x_lo = mid, x_mid
    return lo, x_lo, hi, x_hi


class _ArcBuilder:
    """Accumulates phases sample by sample, tolerating zero-length phases.

    With a watch region, a sample is tested against it once it is final:
    when a sample at a later time or a jump follows it (until then an
    append at the same time may still replace it).  The first final sample
    outside the watch sets ``left``, and nothing is stored after it.
    """

    def __init__(self, t0, x0, watch=None):
        self.phases = []
        self.times = [t0]
        self.states = [np.array(x0, dtype=float)]
        self.watch = watch
        self.left = False

    def append(self, t, x):
        if t <= self.times[-1]:
            # Event refinement can land within float resolution of the last
            # accepted sample; fold it in rather than storing a dead segment.
            self.states[-1] = np.array(x, dtype=float)
        elif self.keeps_last():
            self.times.append(t)
            self.states.append(np.array(x, dtype=float))

    def keeps_last(self):
        """Test the last sample, which is now final, against the watch;
        False once a final sample lies outside it."""
        if self.watch is not None:
            self.left = not contains(self.watch, self.states[-1], 0.0)
        return not self.left

    def new_phase(self, t, x_plus):
        self.phases.append((np.array(self.times), np.vstack(self.states)))
        self.times = [t]
        self.states = [np.array(x_plus, dtype=float)]

    def build(self, termination):
        self.phases.append((np.array(self.times), np.vstack(self.states)))
        return HybridArc(self.phases, termination=termination)


def solve(system, x0, config, watch=None):
    """Integrate one maximal solution from x0 under the stop rules in config.

    With a watch region the run also ends at the first stored sample outside
    it, without bisection, as LEFT_WATCH_REGION: the arc is then the prefix
    of the unwatched arc up to and including that sample.
    """
    x0 = as_vector(x0)
    if x0.size != system.dim:
        raise BadInitialCondition(
            "x0 has dimension %d, system expects %d" % (x0.size, system.dim)
        )
    if not np.all(np.isfinite(x0)):
        raise BadInitialCondition("x0 is not finite")
    if not contains(system.bounds, x0, 0.0):
        raise BadInitialCondition("x0 outside simulation bounds")
    tol = config.event_tol
    if not (contains(system.flow_set, x0, tol) or contains(system.jump_set, x0, 0.0)):
        raise BadInitialCondition("x0 outside both flow and jump sets")

    draw = config.disturbance.start(system.dim, system.delta)
    builder = _ArcBuilder(0.0, x0, watch)
    t, j, x = 0.0, 0, x0.copy()
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
            x_plus = as_vector(system.zeno_map(x))
            zeno_snapped = True
        else:
            candidates = system.jump_candidates(x)
            x_plus = as_vector(candidates[0]) + draw(t, j)
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
            if contains(system.jump_set, x, 0.0):
                if not do_jump():
                    break
                continue
            if not contains(system.flow_set, x, tol):
                termination = Termination.LEFT_FLOW_AND_JUMP_SETS
                break
        stepped = False

        dt = min(config.h, config.T_max - t)
        d = draw(t, j)
        x_prop = _rk4_step(system.flow, x, dt, d)

        if contains(system.jump_set, x_prop, 0.0):
            pred = lambda y: contains(system.jump_set, y, 0.0)
            _, _, th, x_star = _bisect_event(
                system.flow, x, dt, d, pred, x_prop, tol
            )
            t += th
            builder.append(t, x_star)
            x = x_star
            continue  # loop top performs the jump

        if not contains(system.flow_set, x_prop, tol):
            pred = lambda y: not contains(system.flow_set, y, tol)
            th_in, x_in, th_out, x_out = _bisect_event(
                system.flow, x, dt, d, pred, x_prop, tol
            )
            if contains(system.jump_set, x_in, 0.0):
                t += th_in
                builder.append(t, x_in)
                x = x_in
            elif contains(system.jump_set, x_out, 0.0):
                t += th_out
                builder.append(t, x_out)
                x = x_out
            else:
                t += th_in
                builder.append(t, x_in)
                x = x_in
                termination = Termination.LEFT_FLOW_AND_JUMP_SETS
            continue

        if not contains(system.bounds, x_prop, 0.0):
            pred = lambda y: not contains(system.bounds, y, 0.0)
            _, _, th, x_out = _bisect_event(
                system.flow, x, dt, d, pred, x_prop, tol
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

