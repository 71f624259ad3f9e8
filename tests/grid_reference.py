"""The per-point grid checks, kept as the reference for the array checks.

check_single_V and check_pair_VB below are the checks as they were before
hybridcert.certificates computed them from arrays: one Python visit per
grid point, V, B, their gradients and the flow map called one point at a
time, jump candidates included.  The array checks must give the same
report, byte for byte; the tests compare the two.  The package lends only
the grid and the region membership tests: every margin and disturbance
direction below is computed here, one point at a time.

A margin is satisfied only where it compares as satisfied, so a NaN
margin is a violation and wins every running extreme (nan_max, nan_min).
"""

import functools

import numpy as np

from hybridcert.certificates import GridSpec, _in_region, _members
from hybridcert.geometry import _norm, as_vector
from hybridcert.report import CheckReport, Counterexample, Verdict

TOL = 1e-7
SANDWICH_BAND = 1e-3


def nan_max(a, b):
    """max(a, b), except that a NaN wins; of equal values a stays."""
    return a if a != a or a >= b else b


def nan_min(a, b, key=lambda x: x):
    """min(a, b, key=key), except that a NaN key wins; of equal keys a
    stays."""
    ka, kb = key(a), key(b)
    return a if ka != ka or ka <= kb else b


def fit_envelopes(pairs, knots=24):
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


def sandwich_check(pairs, tol, ces):
    band = SANDWICH_BAND
    for w, v, x in pairs:
        if not v >= -tol:
            ces.append(Counterexample("sandwich-nonneg", x, margin=-v))
        if w <= tol and not v <= band:
            ces.append(Counterexample("sandwich-upper", x, margin=v - band))
        if v <= tol and not w <= band:
            ces.append(Counterexample("sandwich-lower", x, margin=w - band))


def ball_directions(delta, dim, grads):
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
        n = _norm(g)
        if n > 0.0:
            dirs.append(g * (delta / n))
            dirs.append(g * (-delta / n))
    return dirs


def flow_margin_single(sys_delta, V, p, delta):
    g = V.gradient(p)
    f = sys_delta.flow(p)
    vp = V(p)
    worst = -np.inf
    for d in ball_directions(delta, p.size, [g]):
        worst = nan_max(worst, float(np.dot(g, f + d)) + vp)
    return worst


def jump_margin_single(sys_delta, V, p, delta):
    vx = V(p)
    worst = -np.inf
    for cand in sys_delta.jump_candidates(p):
        cand = as_vector(cand)
        gv = V.gradient(cand)
        for d in ball_directions(delta, p.size, [gv]):
            worst = nan_max(worst, V(cand + d) - vx / np.e)
    return worst


def pair_flow(sys_delta, cert, p):
    V, B = cert.V, cert.B
    gv = V.gradient(p)
    gb = B.gradient(p) if B.admissible(p) else None
    f = sys_delta.flow(p)
    grads = [gv] + ([gb] if gb is not None else [])
    dec = np.inf
    bflow = np.inf
    for d in ball_directions(sys_delta.delta, p.size, grads):
        dec = nan_min(dec, -float(np.dot(gv, f + d)))
        if gb is not None:
            bflow = nan_min(bflow, float(np.dot(gb, f + d)))
    return dec, (None if gb is None else -bflow)


def pair_jump(sys_delta, cert, p, vx, b):
    """At a point of D_delta with V(p) = vx and B(p) = b: the least decrease
    vx - V(g + d) and the largest drop b - B(g + d) over the jump
    candidates g and the disturbances along grad V(g) and, where B is
    admissible, grad B(g).  With vx None, V is not evaluated and the
    decrease is None."""
    V, B = cert.V, cert.B
    delta = sys_delta.delta
    dec = None if vx is None else np.inf
    bjump = np.inf
    for cand in sys_delta.jump_candidates(p):
        cand = as_vector(cand)
        grads = []
        if delta > 0.0:
            grads.append(V.gradient(cand))
            if B.admissible(cand):
                grads.append(B.gradient(cand))
        for d in ball_directions(delta, cand.size, grads):
            if vx is not None:
                dec = nan_min(dec, vx - V(cand + d))
            bjump = nan_min(bjump, B(cand + d) - b)
    return dec, -bjump


def check_single_V(sys_delta, cert, grid, tol=TOL):
    O = cert.region
    delta = sys_delta.delta
    V = cert.V
    ces = []
    pairs = []
    n_flow = n_jump = 0
    worst_flow = worst_jump = -np.inf

    P = grid.points()
    P = P[_in_region(O, P)]
    n_region = len(P)
    in_C = sys_delta.flow_set.contains_many(P, 0.0).tolist()
    in_D = sys_delta.jump_set.contains_many(P, 0.0).tolist()
    for p, c, d in zip(P, in_C, in_D):
        pairs.append((float(cert.omega(p)), V(p), p))
        if c:
            n_flow += 1
            m = flow_margin_single(sys_delta, V, p, delta)
            worst_flow = nan_max(worst_flow, m)
            if not m <= tol:
                ces.append(Counterexample("flow-decrease", p, margin=m))
        if d:
            n_jump += 1
            m = jump_margin_single(sys_delta, V, p, delta)
            worst_jump = nan_max(worst_jump, m)
            if not m <= tol:
                ces.append(Counterexample("jump-decrease", p, margin=m))

    sandwich_check(pairs, tol, ces)
    env = fit_envelopes([(w, v) for w, v, _ in pairs])

    stats = {
        "region_points": n_region,
        "flow_points": n_flow,
        "jump_points": n_jump,
        "worst_flow_margin": worst_flow if n_flow else None,
        "worst_jump_margin": worst_jump if n_jump else None,
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


def check_pair_VB(sys_delta, cert, spec, grid, tol=TOL, exclude_radius=0.0):
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
        worst[cond] = nan_max(worst.get(cond, -np.inf), margin)
        if not margin <= tol:
            ces.append(Counterexample(cond, p, margin=margin))

    P = grid.points()
    dist_A = A.distance_many(P).tolist()
    in_O = _in_region(O, P)
    in_C = sys_delta.flow_set.contains_many(P, 0.0)
    in_D = _members(sys_delta.jump_set, P, in_O | ~in_C)
    in_U = _members(U, P, in_O)
    for p, d_A, o, c, d, u in zip(P, dist_A, in_O.tolist(), in_C.tolist(),
                                  in_D.tolist(), in_U.tolist()):
        b = B(p)
        if not o:
            if c or d:
                outside_O += 1
            if not b < 0.0:
                note("ii-S-in-O", b, p)
            continue
        vx = V(p)
        pairs.append((d_A, vx, p))
        fit = d_A > max(exclude_radius, tol)

        if c:
            dec, m_b = pair_flow(sys_delta, cert, p)
            note("i-flow-decrease", 0.0 - dec, p)
            if fit:
                ratios_flow.append((dec / d_A, p))
            if m_b is not None:
                note("iv-barrier-flow", m_b, p)

        if d:
            dec, m_b = pair_jump(sys_delta, cert, p, vx, b)
            note("i-jump-decrease", 0.0 - dec, p)
            note("iv-barrier-jump", m_b, p)
            if fit:
                ratios_jump.append((dec / d_A, p))

        if u:
            note("iii-unsafe-negative", B(p), p)

    ubox = U.bounding_box()
    if ubox is not None:
        pts = GridSpec(ubox.lo, ubox.hi, grid.counts).points()
        for p in pts[U.contains_many(pts, 0.0)]:
            note("iii-unsafe-negative", B(p), p)

    for p in spec.x0:
        p = as_vector(p)
        note("ii-X0-in-S", -B(p), p)

    sandwich_check(pairs, tol, ces)
    env = fit_envelopes([(w, v) for w, v, _ in pairs])

    fitted_c = None
    pool = ratios_flow + ratios_jump
    if pool:
        fitted_c, p_bad = functools.reduce(
            lambda a, b: nan_min(a, b, key=lambda rp: rp[0]), pool)
        if not fitted_c > 0.0:
            ces.append(
                Counterexample("i-fitted-c", p_bad, margin=-fitted_c + tol)
            )

    stats = {
        "counts": counts,
        "worst_margins": worst,
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
