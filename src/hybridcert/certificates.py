"""Lyapunov and barrier certificate evaluation, grid checking, falsification.

Two checking styles are provided: a single Lyapunov function with a proper
indicator (sandwich bounds, flow decrease at rate -V, jump contraction by
1/e) and a split pair (V, B) where V certifies attractivity w.r.t. a target
set and B certifies safety (nonnegative and nondecreasing along dynamics,
negative on the unsafe set).

Disturbances enter the conditions linearly through f + d with |d| <= delta,
so the worst case over the delta-ball is attained along the gradient
direction; checks evaluate a small exact set of directions rather than
optimizing over the ball.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .geometry import as_vector, contains, dist_to_set
from .report import CheckReport, Counterexample, Verdict

log = logging.getLogger(__name__)

# margins below this are treated as satisfied; above FD noise, below any
# meaningful violation in the shipped examples
DEFAULT_TOL = 1e-7

# stand-in for -inf when a barrier hits its singular sentinel; reports
# require finite margins
NEG_CLAMP = -1e12

# central-difference step of gradients without an analytic form
FD_STEP = 1e-5

# how far from zero V and the indicator may sit where the other vanishes
SANDWICH_BAND = 1e-3


class MissingIndicator(ValueError):
    pass


class MissingBarrier(ValueError):
    pass


@dataclass
class ScalarField:
    """A scalar function with an optional analytic gradient.

    When grad is absent, gradient() falls back to central differences with
    step FD_STEP.  domain, when given, is a predicate marking points where
    the field (and its FD stencil) is well defined; probe generators use it
    to reject points near singularities.
    """

    value: object
    grad: object = None
    name: str = ""
    domain: object = None

    def __call__(self, x):
        return float(self.value(as_vector(x)))

    def admissible(self, x):
        return self.domain is None or bool(self.domain(as_vector(x)))

    def gradient(self, x):
        x = as_vector(x)
        if self.grad is not None:
            return as_vector(self.grad(x))
        return self.fd_gradient(x)

    def fd_gradient(self, x):
        x = as_vector(x)
        g = np.empty(x.size)
        for i in range(x.size):
            e = np.zeros(x.size)
            e[i] = FD_STEP
            g[i] = (self.value(x + e) - self.value(x - e)) / (2.0 * FD_STEP)
        return g


@dataclass
class CertificatePair:
    """V with optional barrier B and indicator omega.

    region is the open certificate domain O.  The pair checker fits the
    largest constant c with decrease >= c * |x|_A and fails when c <= 0.
    """

    V: ScalarField
    B: ScalarField = None
    omega: object = None
    region: object = None


@dataclass
class GridSpec:
    """Rectangular evaluation grid with optional local refinement.

    refinement_depth > 0 re-grids a one-cell neighborhood of the worst
    margins, halving the cell each level; refinement can only add probes,
    so it never flips FAIL back to PASS.
    """

    lo: object
    hi: object
    counts: object
    refinement_depth: int = 0

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if np.isscalar(self.counts) or isinstance(self.counts, int):
            self.counts = (int(self.counts),) * self.lo.size
        self.counts = tuple(int(c) for c in self.counts)
        if len(self.counts) != self.lo.size or any(c < 1 for c in self.counts):
            raise ValueError("counts must give >= 1 points per axis")
        if np.any(self.hi < self.lo):
            raise ValueError("grid box is inverted")

    def points(self):
        axes = [
            np.linspace(self.lo[i], self.hi[i], self.counts[i])
            for i in range(self.lo.size)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def cell(self):
        spans = self.hi - self.lo
        return np.array(
            [s / (c - 1) if c > 1 else 0.0 for s, c in zip(spans, self.counts)]
        )

    def refined_around(self, center, level):
        half = self.cell() / (2.0**level)
        lo = np.maximum(self.lo, center - half)
        hi = np.minimum(self.hi, center + half)
        return GridSpec(lo, hi, (5,) * self.lo.size, refinement_depth=0)


def grad_check(f: ScalarField, probes):
    """Max relative error between analytic and central-difference gradients.

    Error at a probe is max over axes of |analytic - fd| / max(1, |analytic|).
    Probes outside f.domain are skipped.
    """
    if f.grad is None:
        raise ValueError("grad_check needs an analytic gradient")
    worst = 0.0
    used = 0
    for p in probes:
        p = as_vector(p)
        if not f.admissible(p):
            continue
        used += 1
        a = f.gradient(p)
        fd = f.fd_gradient(p)
        err = np.max(np.abs(a - fd) / np.maximum(1.0, np.abs(a)))
        worst = max(worst, float(err))
    if used == 0:
        raise ValueError("no admissible probes")
    return worst


def _ball_directions(delta, dim, grads):
    """Exact extremizers for conditions linear in the disturbance.

    Zero, the axis directions, and +-delta along each supplied gradient;
    the gradient directions are the true extremizers, the axis points are
    kept as cheap redundancy.
    """
    dirs = [np.zeros(dim)]
    if delta <= 0.0:
        return dirs
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = delta
        dirs.append(e)
        dirs.append(-e)
    for g in grads:
        n = float(np.linalg.norm(g))
        if n > 0.0:
            dirs.append(g * (delta / n))
            dirs.append(g * (-delta / n))
    return dirs


def _jump_directions(cert, cand, delta, grad_V):
    """Disturbances tried at the jump image cand: _ball_directions along
    grad_V and, for delta > 0, along grad B(cand), where the barrier-jump
    margin B(x) - B(cand + d) is worst.  grad_V is not read at delta = 0."""
    if delta <= 0.0:
        return [np.zeros(cand.size)]
    grads = [grad_V]
    if cert.B.admissible(cand):
        grads.append(cert.B.gradient(cand))
    return _ball_directions(delta, cand.size, grads)


def _clamp(v):
    if v != v:
        # NaN means the evaluation broke; surface it as a violation
        return -NEG_CLAMP
    return float(min(max(v, NEG_CLAMP), -NEG_CLAMP))


def _fit_envelopes(pairs, knots=24):
    """Monotone piecewise-linear envelopes of (omega, V) scatter.

    Returns (w, lower, upper) arrays: lower is the running min of V from the
    right (largest nondecreasing minorant of the scatter), upper the running
    max from the left.  Both are nondecreasing by construction.
    """
    if not pairs:
        return None
    pts = sorted(pairs)
    w = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    lower = np.minimum.accumulate(v[::-1])[::-1]
    upper = np.maximum.accumulate(v)
    if w.size > knots:
        idx = np.unique(np.linspace(0, w.size - 1, knots).astype(int))
        w, lower, upper = w[idx], lower[idx], upper[idx]
    return w, lower, upper


def _sandwich_check(pairs, tol, ces):
    """Decidable content of the class-K sandwich on sampled (omega, V).

    A monotone-through-origin envelope pair exists iff V vanishes exactly
    where omega does: points with omega <= tol must have V <= SANDWICH_BAND
    and vice versa, and V must be nonnegative.
    """
    band = SANDWICH_BAND
    for w, v, x in pairs:
        if v < -tol:
            ces.append(
                Counterexample("sandwich-nonneg", x, margin=-v)
            )
        if w <= tol and v > band:
            ces.append(Counterexample("sandwich-upper", x, margin=v - band))
        if v <= tol and w > band:
            ces.append(Counterexample("sandwich-lower", x, margin=w - band))


def _sweep(grid, visit):
    """visit(p), which returns the margins scored at p, on every grid point;
    then each refinement level re-grids around the 4 worst margins so far."""
    hot = []
    for p in grid.points():
        hot.extend((m, p) for m in visit(p))
    for level in range(1, grid.refinement_depth + 1):
        hot.sort(key=lambda s: -s[0])
        for _, c in hot[:4]:
            for p in grid.refined_around(c, level).points():
                hot.extend((m, p) for m in visit(p))


def check_single_V(sys_delta, cert: CertificatePair, grid: GridSpec,
                   tol=DEFAULT_TOL):
    """Single-Lyapunov-function conditions on a perturbed system.

    Over grid points of C_delta intersected with O: worst-case flow decrease
    dV.(f+d) <= -V + tol; over D_delta and each jump candidate: contraction
    V(g+d) <= V(x)/e + tol; sandwich alpha_1(omega) <= V <= alpha_2(omega)
    via the zero-set equivalence plus fitted monotone envelopes.
    """
    if cert.omega is None:
        raise MissingIndicator("single-V check needs cert.omega")
    O = cert.region
    delta = sys_delta.delta
    V = cert.V
    ces = []
    pairs = []
    n_flow = n_jump = n_region = 0
    worst_flow = worst_jump = -np.inf

    def visit(p):
        nonlocal n_flow, n_jump, n_region, worst_flow, worst_jump
        scored = []
        if not _in_region(O, p):
            return scored
        n_region += 1
        pairs.append((float(cert.omega(p)), V(p), p))
        if contains(sys_delta.flow_set, p, 0.0):
            n_flow += 1
            m = _flow_margin_single(sys_delta, V, p, delta)
            worst_flow = max(worst_flow, m)
            scored.append(m)
            if m > tol:
                ces.append(Counterexample("flow-decrease", p, margin=m))
        if contains(sys_delta.jump_set, p, 0.0):
            n_jump += 1
            m = _jump_margin_single(sys_delta, V, p, delta)
            worst_jump = max(worst_jump, m)
            scored.append(m)
            if m > tol:
                ces.append(Counterexample("jump-decrease", p, margin=m))
        return scored

    _sweep(grid, visit)
    _sandwich_check(pairs, tol, ces)
    env = _fit_envelopes([(w, v) for w, v, _ in pairs])

    stats = {
        "region_points": n_region,
        "flow_points": n_flow,
        "jump_points": n_jump,
        "worst_flow_margin": _clamp(worst_flow) if n_flow else None,
        "worst_jump_margin": _clamp(worst_jump) if n_jump else None,
        "delta": delta,
        "tol": tol,
    }
    if env is not None:
        stats["envelope"] = {
            "omega": env[0].tolist(),
            "alpha1": env[1].tolist(),
            "alpha2": env[2].tolist(),
        }
    verdict = Verdict.PASS if not ces else Verdict.FAIL
    if n_region == 0:
        verdict = Verdict.INCONCLUSIVE
    return CheckReport(verdict=verdict, counterexamples=ces, stats=stats)


def _in_region(O, p):
    return O is None or contains(O, p, 0.0)


def _flow_margin_single(sys_delta, V, p, delta):
    g = V.gradient(p)
    f = sys_delta.flow(p)
    vp = V(p)
    worst = -np.inf
    for d in _ball_directions(delta, p.size, [g]):
        worst = max(worst, float(np.dot(g, f + d)) + vp)
    return worst


def _jump_margin_single(sys_delta, V, p, delta):
    vx = V(p)
    worst = -np.inf
    for cand in sys_delta.jump_candidates(p):
        cand = as_vector(cand)
        gv = V.gradient(cand)
        for d in _ball_directions(delta, p.size, [gv]):
            worst = max(worst, V(cand + d) - vx / np.e)
    return worst


def _pair_flow(sys_delta, cert, p):
    """At a point of C_delta: the least decrease -dV.(f+d) and the
    iv-barrier-flow margin, the largest decrease -dB.(f+d), over the
    disturbances along grad V and grad B.  The margin is None where B is
    not admissible."""
    V, B = cert.V, cert.B
    gv = V.gradient(p)
    gb = B.gradient(p) if B.admissible(p) else None
    f = sys_delta.flow(p)
    grads = [gv] + ([gb] if gb is not None else [])
    dec = np.inf
    bflow = np.inf
    for d in _ball_directions(sys_delta.delta, p.size, grads):
        dec = min(dec, -float(np.dot(gv, f + d)))
        if gb is not None:
            bflow = min(bflow, float(np.dot(gb, f + d)))
    return dec, (None if gb is None else -bflow)


def _pair_jump(sys_delta, cert, p, vx, b):
    """At a point of D_delta with V(p) = vx and B(p) = b: the least decrease
    vx - V(g + d) and the iv-barrier-jump margin, the largest drop
    b - B(g + d), over the jump candidates g and the disturbances of
    _jump_directions.  With vx None, V is not evaluated and the decrease
    is None."""
    V, B = cert.V, cert.B
    delta = sys_delta.delta
    dec = None if vx is None else np.inf
    bjump = np.inf
    for cand in sys_delta.jump_candidates(p):
        cand = as_vector(cand)
        gv = V.gradient(cand) if delta > 0.0 else None
        for d in _jump_directions(cert, cand, delta, gv):
            if vx is not None:
                dec = min(dec, vx - V(cand + d))
            bjump = min(bjump, B(cand + d) - b)
    return dec, -bjump


def _unsafe_margin(B, p):
    """iii-unsafe-negative margin at a point of U: B(p), clamped."""
    return _clamp(B(p))


def check_pair_VB(sys_delta, cert: CertificatePair, spec, grid: GridSpec,
                  tol=DEFAULT_TOL, exclude_radius=0.0):
    """Split Lyapunov-barrier conditions on a perturbed system.

    (i)   sandwich bounds of V in |x|_A plus strict decrease along flows and
          jumps: the largest constant c with decrease >= c*|x|_A is fitted
          and must be positive.  Points within exclude_radius of A are left
          out of the fit (the decrease degenerates on A itself).
    (ii)  S = {B >= 0} lies inside O and every X0 sample lies in S.
    (iii) B < 0 everywhere on the unsafe set (strict sign test).
    (iv)  B nondecreasing along flows and across jumps.

    Flow conditions run on grid points of C_delta in O, jump conditions on
    D_delta in O, (iii) on grid points inside U, all with worst-case
    disturbance directions.
    """
    if cert.B is None:
        raise MissingBarrier("pair check needs cert.B")
    A = spec.attractor
    U = spec.unsafe
    O = cert.region
    V, B = cert.V, cert.B
    ces = []
    counts = {}
    worst = {}
    ratios_flow = []
    ratios_jump = []
    pairs = []
    outside_O = 0

    def note(cond, margin, p):
        counts[cond] = counts.get(cond, 0) + 1
        worst[cond] = max(worst.get(cond, -np.inf), margin)
        if margin > tol:
            ces.append(Counterexample(cond, p, margin=_clamp(margin)))
        return margin

    def visit(p):
        nonlocal outside_O
        dist_A = dist_to_set(p, A)
        in_O = _in_region(O, p)
        b = B(p)
        if not in_O:
            if contains(sys_delta.flow_set, p, 0.0) or contains(
                sys_delta.jump_set, p, 0.0
            ):
                outside_O += 1
            return [note("ii-S-in-O", _clamp(b), p)] if b >= 0.0 else []
        vx = V(p)
        pairs.append((dist_A, vx, p))
        fit = dist_A > max(exclude_radius, tol)
        scored = []

        if contains(sys_delta.flow_set, p, 0.0):
            dec, m_b = _pair_flow(sys_delta, cert, p)
            # the required decrease is 0; 0.0 - dec keeps +0.0 at dec = 0
            scored.append(note("i-flow-decrease", 0.0 - dec, p))
            if fit:
                ratios_flow.append((dec / dist_A, p))
            if m_b is not None:
                scored.append(note("iv-barrier-flow", m_b, p))

        if contains(sys_delta.jump_set, p, 0.0):
            dec, m_b = _pair_jump(sys_delta, cert, p, vx, b)
            scored.append(note("i-jump-decrease", 0.0 - dec, p))
            scored.append(note("iv-barrier-jump", m_b, p))
            if fit:
                ratios_jump.append((dec / dist_A, p))

        if contains(U, p, 0.0):
            scored.append(note("iii-unsafe-negative", _unsafe_margin(B, p), p))
        return scored

    _sweep(grid, visit)

    # (iii) gets its own grid over U's bounding box: U need not meet O
    ubox = U.bounding_box()
    if ubox is not None:
        for p in GridSpec(ubox.lo, ubox.hi, grid.counts).points():
            if contains(U, p, 0.0):
                note("iii-unsafe-negative", _unsafe_margin(B, p), p)

    for p in spec.initial_points():
        p = as_vector(p)
        note("ii-X0-in-S", -B(p), p)

    _sandwich_check(pairs, tol, ces)
    env = _fit_envelopes([(w, v) for w, v, _ in pairs])

    fitted_c = None
    pool = ratios_flow + ratios_jump
    if pool:
        fitted_c = min(r for r, _ in pool)
        if fitted_c <= 0.0:
            _, p_bad = min(pool, key=lambda rp: rp[0])
            ces.append(
                Counterexample("i-fitted-c", p_bad, margin=-fitted_c + tol)
            )

    stats = {
        "counts": counts,
        "worst_margins": {k: _clamp(v) for k, v in worst.items()},
        "fitted_c": fitted_c,
        "skipped_outside_region": outside_O,
        "delta": sys_delta.delta,
        "tol": tol,
        "exclude_radius": exclude_radius,
    }
    if env is not None:
        stats["envelope"] = {
            "dist": env[0].tolist(),
            "alpha1": env[1].tolist(),
            "alpha2": env[2].tolist(),
        }
    verdict = Verdict.PASS if not ces else Verdict.FAIL
    if not counts:
        verdict = Verdict.INCONCLUSIVE
    return CheckReport(verdict=verdict, counterexamples=ces, stats=stats)


# ---------------------------------------------------------------------------
# Falsification: named condition margins searched by LHS + grid + descent.


def condition_margin_fn(sys_delta, cert, condition_id, spec=None):
    """Margin function (positive = violated) for a named certificate
    condition; returns None at points where the condition does not apply.

    flow-decrease and jump-decrease are the single-V check's conditions;
    barrier-flow, barrier-jump and unsafe-negative score the pair check's
    iv-barrier-flow, iv-barrier-jump and iii-unsafe-negative.  Like the
    pair check, unsafe-negative applies on all of U, the others only in O.
    """
    delta = sys_delta.delta
    V, B = cert.V, cert.B
    C, D, O = sys_delta.flow_set, sys_delta.jump_set, cert.region
    barrier_ids = ("barrier-flow", "barrier-jump", "unsafe-negative")
    if B is None and condition_id in barrier_ids:
        raise MissingBarrier(condition_id)

    if condition_id == "flow-decrease":
        where, fn = C, lambda p: _flow_margin_single(sys_delta, V, p, delta)
    elif condition_id == "jump-decrease":
        where, fn = D, lambda p: _jump_margin_single(sys_delta, V, p, delta)
    elif condition_id == "barrier-flow":
        where, fn = C, lambda p: _pair_flow(sys_delta, cert, p)[1]
    elif condition_id == "barrier-jump":
        where, fn = D, lambda p: _pair_jump(sys_delta, cert, p, None, B(p))[1]
    elif condition_id == "unsafe-negative":
        if spec is None:
            raise ValueError("unsafe-negative needs a spec with spec.unsafe")
        where, fn, O = spec.unsafe, lambda p: _unsafe_margin(B, p), None
    else:
        raise ValueError("unknown condition id %r" % condition_id)

    def wrapped(p):
        p = as_vector(p)
        if not _in_region(O, p) or not contains(where, p, 0.0):
            return None
        return fn(p)

    return wrapped


def latin_hypercube(n, lo, hi, rng):
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    dim = lo.size
    out = np.empty((n, dim))
    for k in range(dim):
        strata = (rng.permutation(n) + rng.uniform(size=n)) / n
        out[:, k] = lo[k] + strata * (hi[k] - lo[k])
    return out


def falsify(sys_delta, cert, condition_id, region, budget, seed=0,
            spec=None, tol=DEFAULT_TOL):
    """Search region for a violation of the named condition.

    Budget is split between Latin-hypercube probes, a coarse full grid, and
    coordinate descent from the worst probes.  Returns (point, margin) for
    the worst violation found with margin > tol, else None.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    bbox = region.bounding_box()
    if bbox is None:
        raise ValueError("falsify region needs a bounding box")
    lo, hi = bbox.lo, bbox.hi
    dim = lo.size
    rng = np.random.default_rng(seed)
    margin_fn = condition_margin_fn(sys_delta, cert, condition_id, spec=spec)

    evals = [0]

    def probe(p):
        if evals[0] >= budget:
            return None
        evals[0] += 1
        if not contains(region, p, 0.0):
            return None
        return margin_fn(p)

    scored = []

    def consider(p):
        m = probe(p)
        if m is not None:
            scored.append((m, np.array(p)))

    n_lhs = max(1, int(0.4 * budget))
    for p in latin_hypercube(n_lhs, lo, hi, rng):
        consider(p)

    n_grid_axis = max(2, int(round((0.3 * budget) ** (1.0 / dim))))
    for p in GridSpec(lo, hi, n_grid_axis).points():
        if evals[0] >= budget:
            break
        consider(p)

    scored.sort(key=lambda s: -s[0])
    seeds = [p for _, p in scored[:5]]
    step0 = (hi - lo) / max(4, n_grid_axis)
    best = scored[0] if scored else None
    for p0 in seeds:
        p = p0.copy()
        m = probe(p)
        if m is None:
            continue
        step = step0.copy()
        while evals[0] < budget and np.max(step) > 1e-12:
            improved = False
            for k in range(dim):
                for sgn in (1.0, -1.0):
                    q = p.copy()
                    q[k] = min(hi[k], max(lo[k], q[k] + sgn * step[k]))
                    mq = probe(q)
                    if mq is not None and mq > m:
                        p, m = q, mq
                        improved = True
            if not improved:
                step *= 0.5
        if best is None or m > best[0]:
            best = (m, p)

    if best is not None and best[0] > tol:
        return np.array(best[1]), float(best[0])
    return None


def decrement_along_arc(cert, arc, tol=DEFAULT_TOL):
    """V along an arc against the decay envelope V0 * exp(-(t+j)/3).

    Returns (series, bound_ok) where series lists (total_time, V) at every
    stored sample.
    """
    V = cert.V
    v0 = V(arc.phases[0][1][0])
    series = []
    ok = True
    for j, t, x in arc.samples():
        total = t + j
        v = V(x)
        series.append((total, v))
        if v > v0 * np.exp(-total / 3.0) + tol:
            ok = False
    return series, ok
