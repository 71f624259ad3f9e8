"""Set primitives: membership, point-to-set distance, inflation, proper indicators.

State vectors are plain 1-D numpy arrays. Regions are immutable after
construction and safe for concurrent reads.

Every region answers for one point (``contains``, ``distance``) and for the
rows of a 2-D array of points (``contains_many``, ``distance_many``).  The
array forms give, row for row, the bits the one-point forms give; regions
built on user code (an Implicit predicate or sdf) loop over the rows.
"""

import numpy as np

DEFAULT_TOL = 1e-9


class UnsupportedDistance(ValueError):
    """No exact or oracle distance exists for this region variant."""


class DegenerateDomain(ValueError):
    """Indicator target is not strictly inside its open domain."""


class SamplingError(ValueError):
    """A sampled region has no bounding box, or too few draws land in it."""


_FLOAT64 = np.dtype(np.float64)


def as_vector(x):
    """Coerce to a 1-D float64 array without copying when possible."""
    # the solver's states and maps pass float64 arrays, which asarray would
    # return unchanged; this runs several times per flow call
    if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim:
        return x
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    return v


def as_rows(X):
    """Coerce to a C-contiguous 2-D float64 array, one point per row."""
    A = np.ascontiguousarray(X, dtype=float)
    if A.ndim != 2:
        raise ValueError("expected a 2-D array with one point per row")
    return A


def _row_norms(G):
    # np.linalg.norm of a 1-D array is sqrt(dot(x, x)); vecdot runs the same
    # dot on each row, so each row norm has the bits of its scalar form
    with np.errstate(all="ignore"):
        return np.sqrt(np.vecdot(G, G))


def _clip0(v):
    """max(0.0, v) per entry as Python computes it: NaN and -0.0 give 0.0."""
    return np.where(v > 0.0, v, 0.0)


class SetRegion:
    """Base region. Subclasses override distance and/or a membership predicate.

    contains_many and distance_many loop over rows here; the regions that
    run no user code override them with array forms.
    """

    # whether membership or distance calls user code, which the array forms
    # then call once per row
    runs_user_code = True

    def distance(self, x):
        raise UnsupportedDistance(f"{type(self).__name__} has no distance oracle")

    def contains(self, x, tol=DEFAULT_TOL):
        return self.distance(as_vector(x)) <= tol

    def distance_many(self, X):
        """[distance(x) for x in X] as a float array."""
        return np.array([self.distance(x) for x in as_rows(X)], dtype=float)

    def contains_many(self, X, tol=DEFAULT_TOL):
        """[contains(x, tol) for x in X] as a bool array."""
        return np.array([self.contains(x, tol) for x in as_rows(X)], dtype=bool)

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

    def distance_many(self, X):
        return np.full(as_rows(X).shape[0], np.inf)

    def contains_many(self, X, tol=DEFAULT_TOL):
        return np.zeros(as_rows(X).shape[0], dtype=bool)


class Ball(SetRegion):
    runs_user_code = False

    def __init__(self, center, radius):
        self.center = as_vector(center)
        if not radius >= 0:
            raise ValueError("ball radius must be >= 0")
        self.radius = float(radius)

    def distance(self, x):
        return max(0.0, float(np.linalg.norm(as_vector(x) - self.center)) - self.radius)

    def distance_many(self, X):
        return _clip0(_row_norms(as_rows(X) - self.center) - self.radius)

    def contains_many(self, X, tol=DEFAULT_TOL):
        return self.distance_many(X) <= tol

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
        if np.any(self.lo > self.hi):
            raise ValueError("box needs lo <= hi componentwise")
        # no point lies beyond an infinite face, so contains screens only
        # the finite ones
        self._lo_faces = [
            (i, float(v)) for i, v in enumerate(self.lo) if np.isfinite(v)
        ]
        self._hi_faces = [
            (i, float(v)) for i, v in enumerate(self.hi) if np.isfinite(v)
        ]

    def distance(self, x):
        v = as_vector(x)
        gap = v - np.minimum(np.maximum(v, self.lo), self.hi)
        d = float(np.linalg.norm(gap))
        if d == 0.0 and gap.any():
            # gaps below ~1.5e-162 square to 0; scaled by the largest gap,
            # such a point stays outside, as contains says
            s = float(np.max(np.abs(gap)))
            d = s * float(np.linalg.norm(gap / s))
        return d

    def contains(self, x, tol=DEFAULT_TOL):
        # componentwise screen without array temporaries: this sits in the
        # simulator's per-step loop; only borderline points pay for the
        # exact Euclidean distance
        v = as_vector(x)
        xs = v.tolist()
        borderline = False
        for i, lo in self._lo_faces:
            if xs[i] < lo:
                if xs[i] < lo - tol:
                    return False
                borderline = True
        for i, hi in self._hi_faces:
            if xs[i] > hi:
                if xs[i] > hi + tol:
                    return False
                borderline = True
        if not borderline:
            return True
        return self.distance(v) <= tol

    def distance_many(self, X):
        X = as_rows(X)
        with np.errstate(invalid="ignore"):
            gap = X - np.minimum(np.maximum(X, self.lo), self.hi)
        d = _row_norms(gap)
        for i in np.flatnonzero((d == 0.0) & gap.any(axis=1)):
            # a gap below ~1.5e-162: rescaled as the scalar form does
            d[i] = self.distance(X[i])
        return d

    def contains_many(self, X, tol=DEFAULT_TOL):
        X = as_rows(X)
        inside = np.ones(X.shape[0], dtype=bool)
        borderline = np.zeros(X.shape[0], dtype=bool)
        for i, lo in self._lo_faces:
            inside &= ~(X[:, i] < lo - tol)
            borderline |= X[:, i] < lo
        for i, hi in self._hi_faces:
            inside &= ~(X[:, i] > hi + tol)
            borderline |= X[:, i] > hi
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
    """

    def __init__(self, pred, bbox, sdf=None, complement_sdf=None):
        if bbox is None:
            raise ValueError("Implicit regions need a bounding box")
        self.pred = pred
        self.sdf = sdf
        self.complement_sdf = complement_sdf
        self.bbox = bbox

    def distance(self, x):
        if self.sdf is None:
            raise UnsupportedDistance("Implicit region lacks a distance oracle")
        return max(0.0, float(self.sdf(as_vector(x))))

    def contains(self, x, tol=DEFAULT_TOL):
        v = as_vector(x)
        if bool(self.pred(v)):
            return True
        if self.sdf is not None and tol > 0.0:
            return self.distance(v) <= tol
        return False

    def bounding_box(self):
        return self.bbox


class Inflated(SetRegion):
    """base + rB. Identity at r = 0; exact with base distance support.

    Without it, membership falls back to the base's own slack handling,
    which under-accepts the inflated set (a predicate-only base decides by
    the bare predicate); callers treating the band as "still inside" see
    exits earlier than the true inflated region would, never later.
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
        return max(0.0, self.base.distance(x) - self.r)

    def contains(self, x, tol=DEFAULT_TOL):
        if self.r == 0.0:
            return self.base.contains(x, tol)
        try:
            return self.base.distance(as_vector(x)) <= self.r + tol
        except UnsupportedDistance:
            return self.base.contains(x, self.r + tol)

    def distance_many(self, X):
        return _clip0(self.base.distance_many(X) - self.r)

    def contains_many(self, X, tol=DEFAULT_TOL):
        if self.r == 0.0:
            return self.base.contains_many(X, tol)
        try:
            return self.base.distance_many(X) <= self.r + tol
        except UnsupportedDistance:
            return self.base.contains_many(X, self.r + tol)

    def bounding_box(self):
        bb = self.base.bounding_box()
        if bb is None:
            return None
        return AxisBox(bb.lo - self.r, bb.hi + self.r)


def _decide_rows(parts, X, tol, decisive):
    """Per row, any (decisive True) or all (decisive False) of the parts'
    membership; like any() and all(), a part is tested only on the rows
    that no earlier part decided."""
    X = as_rows(X)
    out = np.full(X.shape[0], not decisive)
    open_rows = np.arange(X.shape[0])
    for p in parts:
        if not open_rows.size:
            break
        decided = p.contains_many(X[open_rows], tol) == decisive
        out[open_rows[decided]] = decisive
        open_rows = open_rows[~decided]
    return out


class Union(SetRegion):
    def __init__(self, parts):
        self.parts = tuple(parts)
        if not self.parts:
            raise ValueError("empty union")

    @property
    def runs_user_code(self):
        return any(p.runs_user_code for p in self.parts)

    def distance(self, x):
        return min(p.distance(x) for p in self.parts)

    def contains(self, x, tol=DEFAULT_TOL):
        return any(p.contains(x, tol) for p in self.parts)

    def distance_many(self, X):
        # min() keeps the earliest of equal values: replace on < only
        out = self.parts[0].distance_many(X)
        for p in self.parts[1:]:
            d = p.distance_many(X)
            out = np.where(d < out, d, out)
        return out

    def contains_many(self, X, tol=DEFAULT_TOL):
        return _decide_rows(self.parts, X, tol, True)

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
        return max(p.distance(x) for p in self.parts)

    def contains(self, x, tol=DEFAULT_TOL):
        return all(p.contains(x, tol) for p in self.parts)

    def distance_many(self, X):
        # max() keeps the earliest of equal values: replace on > only
        out = self.parts[0].distance_many(X)
        for p in self.parts[1:]:
            d = p.distance_many(X)
            out = np.where(d > out, d, out)
        return out

    def contains_many(self, X, tol=DEFAULT_TOL):
        return _decide_rows(self.parts, X, tol, False)

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
    Implicit bases carrying complement_sdf, unsupported otherwise."""

    def __init__(self, base):
        self.base = base

    @property
    def runs_user_code(self):
        return self.base.runs_user_code

    def distance(self, x):
        v = as_vector(x)
        b = self.base
        if isinstance(b, Ball):
            return max(0.0, b.radius - float(np.linalg.norm(v - b.center)))
        if isinstance(b, AxisBox):
            if not b.contains(v, 0.0):
                return 0.0
            gaps = np.minimum(v - b.lo, b.hi - v)
            g = float(np.min(gaps))
            return max(0.0, g) if np.isfinite(g) else np.inf
        if isinstance(b, Implicit) and b.complement_sdf is not None:
            return max(0.0, float(b.complement_sdf(v)))
        raise UnsupportedDistance(f"complement of {type(b).__name__} has no distance")

    def contains(self, x, tol=DEFAULT_TOL):
        try:
            return self.distance(x) <= tol
        except UnsupportedDistance:
            return not self.base.contains(x, 0.0)

    def distance_many(self, X):
        b = self.base
        if isinstance(b, Ball):
            return _clip0(b.radius - _row_norms(as_rows(X) - b.center))
        if isinstance(b, AxisBox):
            X = as_rows(X)
            with np.errstate(invalid="ignore"):
                g = np.minimum(X - b.lo, b.hi - X).min(axis=1)
            d = np.where(np.isfinite(g), _clip0(g), np.inf)
            return np.where(b.contains_many(X, 0.0), d, 0.0)
        # complement_sdf is user code; any other base raises at the first row
        return super().distance_many(X)

    def contains_many(self, X, tol=DEFAULT_TOL):
        try:
            return self.distance_many(X) <= tol
        except UnsupportedDistance:
            return ~self.base.contains_many(X, 0.0)


def dist_to_set(x, region):
    """inf_{y in region} |x - y|; raises UnsupportedDistance without an oracle."""
    return region.distance(as_vector(x))


def contains(region, x, tol=DEFAULT_TOL):
    """True iff x is within distance tol of the region (predicate for Implicit).

    x goes to region.contains as given: every region coerces it there.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    return region.contains(x, tol)


def inflate(region, r):
    """region + rB."""
    return Inflated(region, r)


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

    def many(self, X):
        """[float(self(x)) for x in X] as a float array."""
        d_t = self.target.distance_many(X)
        d_c = self.complement.distance_many(X)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = d_t * (1.0 + 1.0 / d_c)
        out = np.where(np.isinf(d_c), d_t, out)
        out = np.where(d_c == 0.0, np.inf, out)
        return np.where(d_t == 0.0, 0.0, out)


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
