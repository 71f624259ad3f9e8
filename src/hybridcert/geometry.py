"""Set primitives: membership, point-to-set distance, inflation, proper indicators.

A point is a 1-D float array or a list of floats (the simulator's step
loop keeps its state as a list).  AxisBox membership reads a list as it
is, and an Implicit region hands its callables each point as a list of
Python floats.  Regions are immutable after construction and safe for
concurrent reads.

A region that measures distance contains x iff that distance is within
tol; a NaN distance (NaN coordinates, say) is within no tol.  Distances
are Euclidean norms scaled by the largest gap where the squares would
underflow or overflow, so a point 1e200 away is 1e200 away.

Every region answers for one point (``contains``, ``distance``) and for the
rows of a 2-D array of points (``contains_many``, ``distance_many``), with
the same bits row for row.  SetRegion's array forms loop over the rows
with the one-point forms, so they give those bits by construction: balls,
the empty set, unions, intersections and complements use that loop.  Array
code of a region's own stays where a benchmark workload runs it: AxisBox
(both forms, one comparison per face on the whole array), Inflated
(contains_many, its base's at r + tol) and Implicit (contains_many, where
the predicate carries a ``rows`` attribute, its row form, as the bouncing
ball's jump predicate does: one call on the whole array wherever the
predicate alone decides membership, at tol 0 or without an sdf).
"""

import numpy as np

DEFAULT_TOL = 1e-9

# SetRegion's row loop, which every array form but AxisBox's and an
# Implicit row predicate's comes down to, makes lists of this many rows at
# a time: a whole grid as lists takes about six times its array's memory
_LIST_CHUNK = 1024


class UnsupportedDistance(ValueError):
    """No exact or oracle distance exists for this region variant."""


class DegenerateDomain(ValueError):
    """Indicator target is not strictly inside its open domain."""


class SamplingError(ValueError):
    """A sampled region has no bounding box, or too few draws land in it."""


_FLOAT64 = np.dtype(np.float64)
_FLOAT64_MAX = float(np.finfo(np.float64).max)
# a norm below this may come from squares that lost bits to underflow
_UNDERFLOW_NORM = 2.0 ** -511


def as_vector(x):
    """Coerce to a 1-D float64 array without copying when possible."""
    # a float64 array comes back as it is, without asarray's call
    if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim:
        return x
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    return v


def _as_list(x):
    """x as a list of floats: a list as it is, an array's entries else."""
    return x if type(x) is list else as_vector(x).tolist()


def as_rows(X):
    """Coerce to a C-contiguous 2-D float64 array, one point per row."""
    A = np.ascontiguousarray(X, dtype=float)
    if A.ndim != 2:
        raise ValueError("expected a 2-D array with one point per row")
    return A


def _norm(g):
    """np.linalg.norm of the 1-D array g, as a float.  Where its squares
    lose bits (a norm below 2**-511 of a nonzero g) or overflow (an inf
    norm of a finite g), g is scaled by its largest |entry| first: the norm
    is then never below one entry, and finite wherever it is a float."""
    with np.errstate(over="ignore"):
        d = float(np.linalg.norm(g))
    if d < _UNDERFLOW_NORM and g.any() or d == np.inf:
        s = float(np.max(np.abs(g)))
        if s < np.inf:
            d = s * float(np.linalg.norm(g / s))
    return d


def _row_norms(G):
    """_norm of each row of the 2-D array G."""
    # np.linalg.norm of a 1-D array is sqrt(dot(x, x)); vecdot runs the same
    # dot on each row, so each row norm has the bits of its scalar form
    with np.errstate(all="ignore"):
        d = np.sqrt(np.vecdot(G, G))
    for i in np.flatnonzero(((d < _UNDERFLOW_NORM) & G.any(axis=1))
                            | (d == np.inf)):
        d[i] = _norm(G[i])
    return d


def _clip0(d):
    """max(0.0, d), but NaN stays NaN (within no tol); -0.0 gives 0.0."""
    return 0.0 if d <= 0.0 else d


def _nan_wins(pick, ds):
    """pick(ds), pick being min or max, but the first NaN of ds wherever it
    stands: Python's min and max keep a NaN only in front."""
    nans = [d for d in ds if d != d]
    return nans[0] if nans else pick(ds)


class SetRegion:
    """Base region. Subclasses override distance and/or a membership predicate.

    contains_many and distance_many loop over rows here; AxisBox
    overrides both with array forms, Implicit and Inflated contains_many.
    """

    # whether membership or distance calls user code: a monitor's sample
    # scan then tests one state at a time and stops at its first hit
    runs_user_code = True

    def distance(self, x):
        raise UnsupportedDistance(f"{type(self).__name__} has no distance oracle")

    def contains(self, x, tol=DEFAULT_TOL):
        return self.distance(as_vector(x)) <= tol

    def distance_many(self, X):
        """[distance(x) for x in X] as a float array."""
        return np.array([self.distance(x) for x in self._rows(X)], dtype=float)

    def contains_many(self, X, tol=DEFAULT_TOL):
        """[contains(x, tol) for x in X] as a bool array."""
        return np.array([self.contains(x, tol) for x in self._rows(X)],
                        dtype=bool)

    def _rows(self, X):
        """The rows of X, as lists of floats."""
        X = as_rows(X)
        return (
            x for i in range(0, X.shape[0], _LIST_CHUNK)
            for x in X[i:i + _LIST_CHUNK].tolist()
        )

    def bounding_box(self):
        """AxisBox enclosing the region for sampling, or None."""
        return None


class EmptySet(SetRegion):
    """The empty region (e.g. jump set of a pure-flow system)."""

    runs_user_code = False

    def distance(self, x):
        return np.inf

    def contains(self, x, tol=DEFAULT_TOL):
        return False


class Ball(SetRegion):
    runs_user_code = False

    def __init__(self, center, radius):
        self.center = as_vector(center)
        if not np.isfinite(self.center).all():
            raise ValueError("ball center must be finite")
        if not radius >= 0:
            raise ValueError("ball radius must be >= 0")
        self.radius = float(radius)

    def distance(self, x):
        return _clip0(_norm(as_vector(x) - self.center) - self.radius)

    def bounding_box(self):
        return AxisBox(self.center - self.radius, self.center + self.radius)

    def __repr__(self):
        return f"Ball({self.center.tolist()}, {self.radius})"


class AxisBox(SetRegion):
    """Axis-aligned box; lo/hi entries may be -inf/+inf for half-bounded sets."""

    runs_user_code = False

    def __init__(self, lo, hi):
        self.lo = as_vector(lo)
        self.hi = as_vector(hi)
        if self.lo.shape != self.hi.shape:
            raise ValueError("lo/hi dimension mismatch")
        # False for a NaN face; an infinite one passes
        if not np.all(self.lo <= self.hi):
            raise ValueError("box needs lo <= hi componentwise, no NaN")
        # the faces contains screens each coordinate with, an infinite one
        # moved to the largest finite float: a NaN or infinite coordinate
        # then fails the screen and goes to the exact distance, which is
        # NaN or inf there, as it is for every coordinate beyond a face.
        # The simulator's generated step writes these faces and the
        # branches of contains into its own code (simulate._written_test),
        # and finds that code by them (simulate._test_key)
        self._faces = tuple(
            (i, max(lo, -_FLOAT64_MAX), min(hi, _FLOAT64_MAX))
            for i, (lo, hi) in enumerate(zip(self.lo.tolist(),
                                             self.hi.tolist()))
        )

    def distance(self, x):
        v = as_vector(x)
        with np.errstate(invalid="ignore"):
            # inf - inf is NaN: an infinite coordinate on an infinite face
            gap = v - np.minimum(np.maximum(v, self.lo), self.hi)
        # never below one gap, as contains (which rejects a point for one
        # gap beyond tol) relies on
        return _norm(gap)

    def contains(self, x, tol=DEFAULT_TOL):
        # componentwise screen without array temporaries, on the
        # simulator's list states; its generated step writes these same
        # branches in (see _faces).  Only borderline points pay for the
        # exact Euclidean distance
        xs = x if type(x) is list else as_vector(x).tolist()
        borderline = False
        for i, lo, hi in self._faces:
            v = xs[i]
            if lo <= v <= hi:  # False for NaN
                continue
            if lo - v > tol or v - hi > tol:
                return False
            borderline = True
        if not borderline:
            return True
        return self.distance(x) <= tol

    def distance_many(self, X):
        X = as_rows(X)
        with np.errstate(invalid="ignore"):
            gap = X - np.minimum(np.maximum(X, self.lo), self.hi)
        return _row_norms(gap)

    def contains_many(self, X, tol=DEFAULT_TOL):
        X = as_rows(X)
        inside = np.ones(X.shape[0], dtype=bool)
        borderline = np.zeros(X.shape[0], dtype=bool)
        for i, lo, hi in self._faces:
            v = X[:, i]
            with np.errstate(over="ignore"):
                inside &= ~((lo - v > tol) | (v - hi > tol))
            borderline |= ~((lo <= v) & (v <= hi))
        rows = np.flatnonzero(inside & borderline)
        if rows.size:
            inside[rows] = self.distance_many(X[rows]) <= tol
        return inside

    def bounding_box(self):
        if np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi)):
            return self
        return None

    def __repr__(self):
        return f"AxisBox({self.lo.tolist()}, {self.hi.tolist()})"


class Implicit(SetRegion):
    """Predicate-defined region with a required bounding box for sampling.

    sdf, when given, must return the exact distance to the region (0 inside);
    complement_sdf likewise for the complement, enabling proper indicators on
    implicit open domains.

    The callables get each point as a list of Python floats, which may be
    the caller's own list (the solver's state): they must not modify it.
    When pred carries a ``rows`` attribute, a function of a 2-D float64
    array giving pred's bool at each row, contains_many calls it once in
    place of the per-row loop wherever contains asks pred alone: at tol 0,
    or without an sdf.  At tol > 0 the sdf may widen the set, and the rows
    go through contains one by one.
    """

    def __init__(self, pred, bbox, sdf=None, complement_sdf=None):
        if bbox is None:
            raise ValueError("Implicit regions need a bounding box")
        self.pred = pred
        self.sdf = sdf
        self.complement_sdf = complement_sdf
        self.bbox = bbox
        # the predicate's row form: a bool per row of a 2-D float64 array
        self._pred_rows = getattr(pred, "rows", None)

    def distance(self, x):
        if self.sdf is None:
            raise UnsupportedDistance("Implicit region lacks a distance oracle")
        return _clip0(float(self.sdf(_as_list(x))))

    def contains(self, x, tol=DEFAULT_TOL):
        # the solver's state, a list, goes to the callables as it is
        v = x if type(x) is list else as_vector(x).tolist()
        if self.pred(v):
            return True
        if self.sdf is not None and tol > 0.0:
            return self.distance(v) <= tol
        return False

    def contains_many(self, X, tol=DEFAULT_TOL):
        # the row form answers where contains asks the predicate alone
        if self._pred_rows is None or (self.sdf is not None and tol > 0.0):
            return super().contains_many(X, tol)
        return self._pred_rows(as_rows(X))

    def bounding_box(self):
        return self.bbox


class Inflated(SetRegion):
    """base + rB: base.contains at r + tol.

    Exact wherever the base's contains is its distance definition.  A
    predicate-only base decides by its predicate, which under-accepts the
    inflated set: callers treating the band as "still inside" see exits
    earlier than the true inflated region would, never later.
    """

    def __init__(self, base, r):
        if not r >= 0:
            raise ValueError("inflation radius must be >= 0")
        self.base = base
        self.r = float(r)

    @property
    def runs_user_code(self):
        return self.base.runs_user_code

    def distance(self, x):
        return _clip0(self.base.distance(x) - self.r)

    def contains(self, x, tol=DEFAULT_TOL):
        return self.base.contains(x, self.r + tol)

    def contains_many(self, X, tol=DEFAULT_TOL):
        return self.base.contains_many(X, self.r + tol)

    def bounding_box(self):
        bb = self.base.bounding_box()
        if bb is None:
            return None
        return AxisBox(bb.lo - self.r, bb.hi + self.r)


class Union(SetRegion):
    def __init__(self, parts):
        self.parts = tuple(parts)
        if not self.parts:
            raise ValueError("empty union")

    @property
    def runs_user_code(self):
        return any(p.runs_user_code for p in self.parts)

    def distance(self, x):
        return _nan_wins(min, [p.distance(x) for p in self.parts])

    def contains(self, x, tol=DEFAULT_TOL):
        return any(p.contains(x, tol) for p in self.parts)

    def bounding_box(self):
        boxes = [p.bounding_box() for p in self.parts]
        if any(b is None for b in boxes):
            return None
        lo = np.min([b.lo for b in boxes], axis=0)
        hi = np.max([b.hi for b in boxes], axis=0)
        return AxisBox(lo, hi)


class Intersection(SetRegion):
    """Finite intersection. distance() is max of member distances: a lower
    bound on the true distance (exact for nested/axis-aligned members), so
    inflate-membership through it over-accepts, never rejects wrongly."""

    def __init__(self, parts):
        self.parts = tuple(parts)
        if not self.parts:
            raise ValueError("empty intersection")

    @property
    def runs_user_code(self):
        return any(p.runs_user_code for p in self.parts)

    def distance(self, x):
        return _nan_wins(max, [p.distance(x) for p in self.parts])

    def contains(self, x, tol=DEFAULT_TOL):
        return all(p.contains(x, tol) for p in self.parts)

    def bounding_box(self):
        boxes = [b for b in (p.bounding_box() for p in self.parts) if b is not None]
        if not boxes:
            return None
        lo = np.max([b.lo for b in boxes], axis=0)
        hi = np.min([b.hi for b in boxes], axis=0)
        return AxisBox(lo, np.maximum(lo, hi))


class Complement(SetRegion):
    """Complement of a region. Distance is exact for Ball and AxisBox bases
    (distance from an interior point to the nearest face), oracle-backed for
    Implicit bases carrying complement_sdf, unsupported otherwise.

    With a distance, x is in the complement iff it is within tol;
    without one (decided by the base's type at construction), iff x is
    outside the base at tol 0."""

    def __init__(self, base):
        self.base = base
        self._measured = isinstance(base, (Ball, AxisBox)) or (
            isinstance(base, Implicit) and base.complement_sdf is not None)

    @property
    def runs_user_code(self):
        return self.base.runs_user_code

    def distance(self, x):
        v = as_vector(x)
        b = self.base
        if isinstance(b, Ball):
            return _clip0(b.radius - _norm(v - b.center))
        if isinstance(b, AxisBox):
            # the smallest gap to a face: negative outside the box, inf if
            # no face is finite, NaN where the box's distance is NaN
            with np.errstate(all="ignore"):
                return _clip0(float(np.min(np.minimum(v - b.lo, b.hi - v))))
        if isinstance(b, Implicit) and b.complement_sdf is not None:
            return _clip0(float(b.complement_sdf(_as_list(x))))
        raise UnsupportedDistance(f"complement of {type(b).__name__} has no distance")

    def contains(self, x, tol=DEFAULT_TOL):
        if self._measured:
            return self.distance(x) <= tol
        return not self.base.contains(x, 0.0)


def dist_to_set(x, region):
    """inf_{y in region} |x - y|; raises UnsupportedDistance without an oracle."""
    return region.distance(as_vector(x))


def contains(region, x, tol=DEFAULT_TOL):
    """True iff x is within distance tol of the region (predicate for Implicit).

    x, a 1-D float array or a list of floats, goes to region.contains as
    given: every region coerces it there.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    return region.contains(x, tol)


def sample_region(region, n, rng):
    """n points of region by rejection from its bounding box.

    Draws rng.uniform(lo, hi) and keeps the draws inside region, giving up
    with SamplingError after 1000 * n draws.
    """
    bbox = region.bounding_box()
    if bbox is None:
        raise SamplingError("sampled region needs a bounding box")
    out = []
    for _ in range(1000 * n):
        if len(out) == n:
            break
        p = rng.uniform(bbox.lo, bbox.hi)
        if contains(region, p, 0.0):
            out.append(p)
    if len(out) < n:
        raise SamplingError("could not draw %d points from region" % n)
    return out


class ProperIndicator:
    """omega(x) = |x|_target * (1 + 1/dist(x, domain^c)): zero exactly on
    the target, blowing up at the domain boundary and at infinity. Built by
    make_proper_indicator."""

    def __init__(self, target, domain):
        self.target = target
        self.domain = domain
        self.complement = Complement(domain)

    def __call__(self, x):
        x = as_vector(x)
        d_t = self.target.distance(x)
        if d_t == 0.0:
            return 0.0
        d_c = self.complement.distance(x)
        if d_c == 0.0:
            return np.inf
        if np.isinf(d_c):
            return d_t
        return d_t * (1.0 + 1.0 / d_c)


def _clearance_probes(region):
    # heuristic witness points of the target set used to sanity-check clearance
    probes = []
    if isinstance(region, Ball):
        probes.append(region.center)
        for i in range(region.center.size):
            e = np.zeros_like(region.center)
            e[i] = region.radius
            probes.append(region.center + e)
            probes.append(region.center - e)
    bb = region.bounding_box()
    if bb is not None and np.all(np.isfinite(bb.lo)) and np.all(np.isfinite(bb.hi)):
        probes.append((bb.lo + bb.hi) / 2.0)
        n = bb.lo.size
        if n <= 12:
            for mask in range(2 ** n):
                corner = np.where(
                    [(mask >> i) & 1 for i in range(n)], bb.hi, bb.lo
                ).astype(float)
                probes.append(corner)
    return [p for p in probes if region.contains(p, DEFAULT_TOL)]


def make_proper_indicator(target, domain):
    """omega(x) = |x|_target * (1 + 1/dist(x, domain^c)).

    target: compact with distance support; domain: open with complement
    distance support; target strictly inside domain (checked on witness
    probes of the target, a heuristic guard).
    """
    omega = ProperIndicator(target, domain)
    probes = _clearance_probes(target)
    if probes:
        clearance = min(omega.complement.distance(p) for p in probes)
        if clearance <= DEFAULT_TOL:
            raise DegenerateDomain(
                f"target within {clearance:.3e} of the domain boundary"
            )
    return omega
