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

from .geometry import (
    Intersection, SamplingError, _row_norms, as_rows, as_vector, contains,
    sample_region,
)
from .report import CheckReport, Counterexample

log = logging.getLogger(__name__)

# margins below this are treated as satisfied; above FD noise, below any
# meaningful violation in the shipped examples
DEFAULT_TOL = 1e-7

# central-difference step of gradients without an analytic form
FD_STEP = 1e-5

# how far from zero V and the indicator may sit where the other vanishes
SANDWICH_BAND = 1e-3

# step halvings in a row without a gain that end falsify's descent from
# one seed
DESCENT_STALL = 2


class MissingIndicator(ValueError):
    pass


class MissingBarrier(ValueError):
    pass


@dataclass
class ScalarField:
    """A scalar function with an optional analytic gradient, in row form.

    Each field is a function of an (n, d) array, one point per row: value
    returns the n values, grad the (n, d) gradients and domain n bools.
    When grad is absent, the gradient is central differences with step
    FD_STEP.  domain, when given, marks the rows where the field (and its
    FD stencil) is well defined: probe generators use it to reject points
    near singularities, and the pair check counts the iv-barrier-*
    margins of B only at its rows.  The one-point forms (__call__,
    gradient, admissible) call the row forms on a one-row array.
    """

    value: object
    grad: object = None
    domain: object = None

    def __call__(self, x):
        return float(self.value_many(as_vector(x)[None])[0])

    def admissible(self, x):
        return bool(self.admissible_many(as_vector(x)[None])[0])

    def gradient(self, x):
        return self.gradient_many(as_vector(x)[None])[0]

    def value_many(self, X):
        """The values at the rows of X as a float array."""
        return np.asarray(self.value(as_rows(X)), dtype=float)

    def gradient_many(self, X):
        """The gradients at the rows of X as an (n, d) array."""
        X = as_rows(X)
        if self.grad is None:
            return self.fd_gradient(X)
        return np.asarray(self.grad(X), dtype=float)

    def admissible_many(self, X):
        """Which rows of X lie in the domain, as a bool array."""
        X = as_rows(X)
        if self.domain is None:
            return np.ones(len(X), dtype=bool)
        return np.asarray(self.domain(X), dtype=bool)

    def fd_gradient(self, X):
        """Central differences at the rows of X, one axis at a time."""
        X = as_rows(X)
        G = np.empty(X.shape)
        for i in range(X.shape[1]):
            e = np.zeros(X.shape[1])
            e[i] = FD_STEP
            up, down = self.value_many(X + e), self.value_many(X - e)
            # as silent as float arithmetic on an inf or overflowing value
            with np.errstate(over="ignore", invalid="ignore"):
                G[:, i] = (up - down) / (2.0 * FD_STEP)
        return G


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
    """Rectangular evaluation grid: counts points per axis from lo to hi."""

    lo: object
    hi: object
    counts: object

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.lo.size != self.hi.size:
            raise ValueError("grid lo has %d entries and hi has %d"
                             % (self.lo.size, self.hi.size))
        counts = self.counts
        if np.isscalar(counts) or isinstance(counts, int):
            counts = (counts,) * self.lo.size
        counts = tuple(counts)
        self.counts = tuple(map(int, counts))
        if len(counts) != self.lo.size or any(
                k != c or k < 1 for k, c in zip(self.counts, counts)):
            raise ValueError("counts must give a whole number >= 1 of points"
                             " per axis")
        if np.any(self.hi < self.lo):
            raise ValueError("grid box is inverted")
        with np.errstate(over="ignore", invalid="ignore"):
            span = self.hi - self.lo
        bad = np.flatnonzero(~np.isfinite(span))
        if bad.size:
            # linspace's step would overflow or be NaN
            i = bad[0]
            raise ValueError(
                "grid axis %d: lo %r and hi %r must be finite, and so must"
                " hi - lo"
                % (i, float(self.lo[i]), float(self.hi[i]))
            )

    def points(self):
        axes = [
            np.linspace(self.lo[i], self.hi[i], self.counts[i])
            for i in range(self.lo.size)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def grad_check(f: ScalarField, probes):
    """Max relative error between analytic and central-difference gradients.

    Error at a probe is max over axes of |analytic - fd| / max(1, |analytic|);
    a NaN error is the worst.  Probes outside f.domain are skipped.
    """
    if f.grad is None:
        raise ValueError("grad_check needs an analytic gradient")
    P = as_rows(probes)
    P = P[f.admissible_many(P)]
    if not len(P):
        raise ValueError("no admissible probes")
    a = f.gradient_many(P)
    err = np.max(np.abs(a - f.fd_gradient(P)) / np.maximum(1.0, np.abs(a)),
                 axis=1)
    return float(_first_max(0.0, err))


def _row_directions(delta, shape, grads):
    """Exact extremizers, at each of n points of dimension dim (shape is
    (n, dim)), of conditions linear in the disturbance: zero and, for
    delta > 0, +-delta along each axis and then along each (n, dim) array
    of gradients in grads.  The gradient directions are the true
    extremizers, the axis points are kept as cheap redundancy.  Yields
    (d, used): d is one direction for all rows or one per row, and used
    marks the rows that try it (a zero gradient gives none)."""
    n, dim = shape
    every = np.ones(n, dtype=bool)
    yield np.zeros(dim), every
    if delta <= 0.0:
        return
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = delta
        yield e, every
        yield -e, every
    for G in grads:
        norm = _row_norms(G)
        used = norm > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            yield G * (delta / norm)[:, None], used
            yield G * (-delta / norm)[:, None], used


def _jump_images(sys_delta, P):
    """Yield (rows, G) for each candidate rank k: the rows of P that have
    a k-th jump candidate and those candidates, one row each."""
    cands = [sys_delta.jump_candidates(p) for p in P]
    for k in range(max(map(len, cands), default=0)):
        rows = np.array([i for i, c in enumerate(cands) if len(c) > k],
                        dtype=int)
        yield rows, np.array([cands[i][k] for i in rows],
                             dtype=float).reshape(len(rows), -1)


def _worse(m, worst, no_worse=np.less_equal):
    """Where m replaces the running worst: where no_worse(m, worst) fails
    (m is NaN, say) and worst is not NaN.  So a NaN is the worst value, and
    of equal values the first stays.  Takes floats or arrays."""
    return (worst == worst) & ~no_worse(m, worst)


def _first_max(start, m):
    """The running worst of start and then each of m: a NaN wins, and of
    equal values the first stays, so +0.0 and -0.0 keep their order."""
    if m.size == 0:
        return start
    top = m.max()
    if top == top:
        top = m[np.argmax(m == top)]
    return top if _worse(top, start) else start


def _first_min(m):
    """Index of the least of m as the running best: the first NaN, else
    the first of the least values."""
    nan = m != m
    return int(np.argmax(nan if nan.any() else m == m.min()))


def _report(found, P, ces):
    """Append a counterexample for each (condition, rows, margins) entry
    of found at each of its rows of P, in the order of a loop over the
    rows that reports each row's conditions in the order of found."""
    if not found:
        return
    rows = np.concatenate([r for _, r, _ in found])
    rank = np.repeat(np.arange(len(found)), [len(r) for _, r, _ in found])
    margins = np.concatenate([m for _, _, m in found])
    for k in np.lexsort((rank, rows)):
        ces.append(Counterexample(found[rank[k]][0], P[rows[k]],
                                  margin=float(margins[k])))


def _note_rows(notes, P, tol, counts, worst, ces):
    """Note the margins of conditions at rows of P as one loop over the
    rows would, noting each row's conditions in the order of notes: each
    condition's count and worst margin, and a counterexample where the
    margin is not <= tol.  notes holds (condition, rows, margins), rows
    ascending; counts and worst keep their keys in first-noted order."""
    notes = [n for n in notes if len(n[1])]
    for cond, rows, m in sorted(notes, key=lambda n: n[1][0]):
        counts[cond] = counts.get(cond, 0) + len(rows)
        worst[cond] = _first_max(worst.get(cond, -np.inf), m)
    _report([(c, r[~(m <= tol)], m[~(m <= tol)]) for c, r, m in notes],
            P, ces)


def _fit_envelopes(w, v, knots=24):
    """Monotone piecewise-linear envelopes of (omega, V) scatter.

    Returns (w, lower, upper) arrays: lower is the running min of V from the
    right (largest nondecreasing minorant of the scatter), upper the running
    max from the left.  Both are nondecreasing by construction.
    """
    if not len(w):
        return None
    order = np.lexsort((v, w))
    w, v = w[order], v[order]
    lower = np.minimum.accumulate(v[::-1])[::-1]
    upper = np.maximum.accumulate(v)
    if w.size > knots:
        # the linspace step exceeds 1, so the knots are strictly increasing
        idx = np.linspace(0, w.size - 1, knots).astype(int)
        w, lower, upper = w[idx], lower[idx], upper[idx]
    return w, lower, upper


def _sandwich_check(w, v, P, tol, ces):
    """Decidable content of the class-K sandwich on sampled (omega, V) at
    the rows of P.

    A monotone-through-origin envelope pair exists iff V vanishes exactly
    where omega does: points with omega <= tol must have V <= SANDWICH_BAND
    and vice versa, and V must be nonnegative.  A NaN V or omega fails the
    bound it is compared in.
    """
    band = SANDWICH_BAND
    _report([(cond, np.flatnonzero(bad), m[bad]) for cond, bad, m in (
        ("sandwich-nonneg", ~(v >= -tol), -v),
        ("sandwich-upper", (w <= tol) & ~(v <= band), v - band),
        ("sandwich-lower", (v <= tol) & ~(w <= band), w - band),
    )], P, ces)


def _in_region(O, P):
    """Which rows of the point array P lie in O (all of them without O)."""
    return np.ones(len(P), dtype=bool) if O is None else O.contains_many(P, 0.0)


def _members(region, P, rows):
    """Which rows of P lie in region, tested on the rows flagged in rows
    only; the others read False."""
    out = np.zeros(len(P), dtype=bool)
    out[rows] = region.contains_many(P[rows], 0.0)
    return out


def check_single_V(sys_delta, cert: CertificatePair, grid: GridSpec,
                   tol=DEFAULT_TOL):
    """Single-Lyapunov-function conditions on a perturbed system.

    Over grid points of C_delta intersected with O: worst-case flow decrease
    dV.(f+d) <= -V + tol; over D_delta and each jump candidate: contraction
    V(g+d) <= V(x)/e + tol; sandwich alpha_1(omega) <= V <= alpha_2(omega)
    via the zero-set equivalence plus fitted monotone envelopes.
    """
    if not tol >= 0:
        raise ValueError("tol must be >= 0")
    if cert.omega is None:
        raise MissingIndicator("single-V check needs cert.omega")
    delta = sys_delta.delta
    V = cert.V
    ces = []

    P = grid.points()
    P = P[_in_region(cert.region, P)]
    flow = np.flatnonzero(sys_delta.flow_set.contains_many(P, 0.0))
    jump = np.flatnonzero(sys_delta.jump_set.contains_many(P, 0.0))
    w = np.array([float(cert.omega(p)) for p in P], dtype=float)
    v = V.value_many(P)
    counts, worst = {}, {}
    _note_rows([
        ("flow-decrease", flow,
         _flow_margins(sys_delta, V, P[flow], v[flow], delta)),
        ("jump-decrease", jump,
         _jump_margins(sys_delta, V, P[jump], v[jump], delta)),
    ], P, tol, counts, worst, ces)
    _sandwich_check(w, v, P, tol, ces)
    env = _fit_envelopes(w, v)

    stats = {
        "region_points": len(P),
        "flow_points": len(flow),
        "jump_points": len(jump),
        "worst_flow_margin":
            float(worst["flow-decrease"]) if len(flow) else None,
        "worst_jump_margin":
            float(worst["jump-decrease"]) if len(jump) else None,
        "delta": delta,
        "tol": tol,
    }
    if env is not None:
        stats["envelope"] = {
            "omega": env[0].tolist(),
            "alpha1": env[1].tolist(),
            "alpha2": env[2].tolist(),
        }
    return CheckReport.judge(ces, stats, evidence=len(P) > 0)


def _flow_margins(sys_delta, V, P, v, delta):
    """flow-decrease margin at each row of P, with V = v there: the
    largest dV.(f+d) + V over the disturbances along grad V."""
    G = V.gradient_many(P)
    F = sys_delta.flow_many(P)
    worst = np.full(len(P), -np.inf)
    for d, used in _row_directions(delta, G.shape, [G]):
        m = np.vecdot(G, F + d) + v
        worst = np.where(used & _worse(m, worst), m, worst)
    return worst


def _jump_margins(sys_delta, V, P, v, delta):
    """jump-decrease margin at each row of P, with V = v there: the
    largest V(g + d) - V / e over the jump candidates g and the
    disturbances along grad V(g)."""
    worst = np.full(len(P), -np.inf)
    for rows, G in _jump_images(sys_delta, P):
        grads = [V.gradient_many(G)] if delta > 0.0 else []
        for d, used in _row_directions(delta, G.shape, grads):
            at = rows[used]
            m = V.value_many((G + d)[used]) - v[at] / np.e
            worst[at] = np.where(_worse(m, worst[at]), m, worst[at])
    return worst


def _barrier_gradients(B, P):
    """Which rows of P B admits, and grad B there; the other rows read
    zero, which tries no disturbance along grad B."""
    ok = B.admissible_many(P)
    G = np.zeros(P.shape)
    G[ok] = B.gradient_many(P[ok])
    return ok, G


def _pair_flow(sys_delta, cert, P):
    """At rows of C_delta: the least decrease -dV.(f+d) and the
    iv-barrier-flow margin, the largest decrease -dB.(f+d), over the
    disturbances along grad V and grad B.  Returns (decrease, admissible,
    margin); the margin, and grad B, count only where B is admissible."""
    V, B = cert.V, cert.B
    GV = V.gradient_many(P)
    ok, GB = _barrier_gradients(B, P)
    F = sys_delta.flow_many(P)
    dec = np.full(len(P), np.inf)
    bflow = np.full(len(P), np.inf)
    for d, used in _row_directions(sys_delta.delta, GV.shape, [GV, GB]):
        Fd = F + d
        m = -np.vecdot(GV, Fd)
        dec = np.where(used & _worse(m, dec, np.greater_equal), m, dec)
        m = np.vecdot(GB, Fd)
        bflow = np.where(used & ok & _worse(m, bflow, np.greater_equal), m,
                         bflow)
    return dec, ok, -bflow


def _pair_jumps(sys_delta, cert, P, v, b):
    """At rows of D_delta, with V = v and B = b there: the least decrease
    V - V(g + d) and the iv-barrier-jump margin, the largest drop
    B - B(g + d), over the jump candidates g and the disturbances along
    grad V(g) and, where B is admissible, grad B(g).  With v None, V is
    not evaluated and the decrease is None."""
    V, B = cert.V, cert.B
    delta = sys_delta.delta
    dec = None if v is None else np.full(len(P), np.inf)
    bjump = np.full(len(P), np.inf)
    for rows, G in _jump_images(sys_delta, P):
        grads = []
        if delta > 0.0:
            grads = [V.gradient_many(G), _barrier_gradients(B, G)[1]]
        for d, used in _row_directions(delta, G.shape, grads):
            at, X = rows[used], (G + d)[used]
            if v is not None:
                m = v[at] - V.value_many(X)
                dec[at] = np.where(_worse(m, dec[at], np.greater_equal), m,
                                   dec[at])
            m = B.value_many(X) - b[at]
            bjump[at] = np.where(_worse(m, bjump[at], np.greater_equal), m,
                                 bjump[at])
    return dec, -bjump


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
    disturbance directions.  V, B, their gradients and the flow map are
    evaluated on all flow points at once, and V, B and their gradients on
    all jump images of the same candidate rank at once.
    """
    if not tol >= 0:
        raise ValueError("tol must be >= 0")
    if cert.B is None:
        raise MissingBarrier("pair check needs cert.B")
    U = spec.unsafe
    V, B = cert.V, cert.B
    ces = []
    counts = {}
    worst = {}

    P = grid.points()
    dist_A = spec.attractor.distance_many(P)
    in_O = _in_region(cert.region, P)
    in_C = sys_delta.flow_set.contains_many(P, 0.0)
    # outside O, D is tested only where "in C or in D" still needs it
    in_D = _members(sys_delta.jump_set, P, in_O | ~in_C)
    in_U = _members(U, P, in_O)
    b = B.value_many(P)
    v = np.zeros(len(P))
    v[in_O] = V.value_many(P[in_O])
    outside = np.flatnonzero(~in_O & ~(b < 0.0))
    flow = np.flatnonzero(in_O & in_C)
    jump = np.flatnonzero(in_O & in_D)
    unsafe = np.flatnonzero(in_O & in_U)

    dec_flow, ok, m_flow = _pair_flow(sys_delta, cert, P[flow])
    dec_jump, m_jump = _pair_jumps(sys_delta, cert, P[jump], v[jump], b[jump])
    # the required decrease is 0; 0.0 - dec keeps +0.0 at dec = 0
    _note_rows([
        ("ii-S-in-O", outside, b[outside]),
        ("i-flow-decrease", flow, 0.0 - dec_flow),
        ("iv-barrier-flow", flow[ok], m_flow[ok]),
        ("i-jump-decrease", jump, 0.0 - dec_jump),
        ("iv-barrier-jump", jump, m_jump),
        ("iii-unsafe-negative", unsafe, b[unsafe]),
    ], P, tol, counts, worst, ces)

    # (iii) gets its own grid over U's bounding box: U need not meet O
    ubox = U.bounding_box()
    if ubox is not None:
        pts = GridSpec(ubox.lo, ubox.hi, grid.counts).points()
        pts = pts[U.contains_many(pts, 0.0)]
        _note_rows([("iii-unsafe-negative", np.arange(len(pts)),
                     B.value_many(pts))],
                   pts, tol, counts, worst, ces)

    x0 = [as_vector(p) for p in spec.x0]
    x0 = np.reshape(x0, (len(x0), P.shape[1]))
    _note_rows([("ii-X0-in-S", np.arange(len(x0)), -B.value_many(x0))],
               x0, tol, counts, worst, ces)

    inside = np.flatnonzero(in_O)
    _sandwich_check(dist_A[inside], v[inside], P[inside], tol, ces)
    env = _fit_envelopes(dist_A[inside], v[inside])

    fitted_c = None
    fit = dist_A > max(exclude_radius, tol)
    pool = np.concatenate([flow[fit[flow]], jump[fit[jump]]])
    if len(pool):
        # inf / inf is NaN here as in float division, without a warning
        with np.errstate(invalid="ignore"):
            ratios = np.concatenate([dec_flow[fit[flow]],
                                     dec_jump[fit[jump]]]) / dist_A[pool]
        k = _first_min(ratios)
        fitted_c = float(ratios[k])
        if not fitted_c > 0.0:
            ces.append(
                Counterexample("i-fitted-c", P[pool[k]], margin=-fitted_c + tol)
            )

    stats = {
        "counts": counts,
        "worst_margins": {c: float(m) for c, m in worst.items()},
        "fitted_c": fitted_c,
        "skipped_outside_region":
            int(np.count_nonzero(~in_O & (in_C | in_D))),
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
    return CheckReport.judge(ces, stats, evidence=bool(counts))


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
    return _condition(sys_delta, cert, condition_id, spec)[1]


def _condition(sys_delta, cert, condition_id, spec):
    """The set where the named condition applies (C, D or U) and the
    condition's margin function."""
    delta = sys_delta.delta
    V, B = cert.V, cert.B
    C, D, O = sys_delta.flow_set, sys_delta.jump_set, cert.region
    barrier_ids = ("barrier-flow", "barrier-jump", "unsafe-negative")
    if B is None and condition_id in barrier_ids:
        raise MissingBarrier(condition_id)

    # each margin is its grid check's row function, called on p's one-row
    # array; the barrier-flow margin is empty where B is not admissible
    def barrier_flow(P):
        _, ok, m = _pair_flow(sys_delta, cert, P)
        return m[ok]

    if condition_id == "flow-decrease":
        where, fn = C, lambda P: _flow_margins(sys_delta, V, P,
                                               V.value_many(P), delta)
    elif condition_id == "jump-decrease":
        where, fn = D, lambda P: _jump_margins(sys_delta, V, P,
                                               V.value_many(P), delta)
    elif condition_id == "barrier-flow":
        where, fn = C, barrier_flow
    elif condition_id == "barrier-jump":
        where, fn = D, lambda P: _pair_jumps(sys_delta, cert, P, None,
                                             B.value_many(P))[1]
    elif condition_id == "unsafe-negative":
        if spec is None:
            raise ValueError("unsafe-negative needs a spec with spec.unsafe")
        where, O = spec.unsafe, None
        fn = B.value_many
    else:
        raise ValueError("unknown condition id %r" % condition_id)

    def wrapped(p):
        p = as_vector(p)
        in_O = O is None or contains(O, p, 0.0)
        if not in_O or not contains(where, p, 0.0):
            return None
        m = fn(p[None])
        return float(m[0]) if len(m) else None

    return where, wrapped


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
            spec=None):
    """Search region for a violation of the named condition.

    Budget is split between Latin-hypercube probes, a coarse full grid, and
    coordinate descent from the worst probes; when no probe lands where the
    condition applies, draws from that part of region give the descent its
    starts.  A NaN margin ranks as the worst.  Returns (point, margin) for
    the worst margin found when it is not <= DEFAULT_TOL, else None.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    bbox = region.bounding_box()
    if bbox is None:
        raise ValueError("falsify region needs a bounding box")
    lo, hi = bbox.lo, bbox.hi
    dim = lo.size
    rng = np.random.default_rng(seed)
    where, margin_fn = _condition(sys_delta, cert, condition_id, spec)

    evals = [0]
    # a point probed before returns its result and costs no budget
    probed = {}

    def probe(p):
        key = tuple(np.asarray(p, dtype=float).tolist())
        if key in probed:
            return probed[key]
        if evals[0] >= budget:
            return None
        evals[0] += 1
        probed[key] = margin_fn(p) if contains(region, p, 0.0) else None
        return probed[key]

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

    if not scored and evals[0] < budget:
        # no probe met the set where the condition applies (a thin band,
        # say), so descent has no start: half its share draws starts there
        try:
            band = sample_region(Intersection([where, region]),
                                 (budget - evals[0]) // 2, rng)
        except SamplingError:
            band = []
        for p in band:
            consider(p)

    # NaN first, then the largest margins; the sort is stable
    scored.sort(key=lambda s: (s[0] == s[0], -s[0]))
    seeds = [p for _, p in scored[:5]]
    step0 = (hi - lo) / max(4, n_grid_axis)
    best = scored[0] if scored else None
    for p0 in seeds:
        p = p0.copy()
        m = probe(p)
        if m is None:
            continue
        step = step0.copy()
        # a seed on a plateau gains nothing from ever smaller steps: after
        # DESCENT_STALL halvings in a row without a gain, the next seed
        # gets the budget that is left
        stalled = 0
        while (evals[0] < budget and np.max(step) > 1e-12
               and stalled < DESCENT_STALL):
            improved = False
            for k in range(dim):
                for sgn in (1.0, -1.0):
                    q = p.copy()
                    q[k] = min(hi[k], max(lo[k], q[k] + sgn * step[k]))
                    mq = probe(q)
                    if mq is not None and _worse(mq, m):
                        p, m = q, mq
                        improved = True
            stalled = 0 if improved else stalled + 1
            if not improved:
                step *= 0.5
        if best is None or _worse(m, best[0]):
            best = (m, p)

    if best is not None and not best[0] <= DEFAULT_TOL:
        return np.array(best[1]), float(best[0])
    return None


def decrement_along_arc(cert, arc):
    """V along an arc against the decay envelope V0 * exp(-(t+j)/3).

    Returns (series, bound_ok) where series lists (total_time, V) at every
    stored sample.
    """
    series = []
    for j, (times, states) in enumerate(arc.phases):
        series += zip((times + j).tolist(), cert.V.value_many(states).tolist())
    total, v = np.array(series).T
    ok = bool(np.all(v <= v[0] * np.exp(-total / 3.0) + DEFAULT_TOL))
    return series, ok
