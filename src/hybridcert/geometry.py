"""Set primitives: membership, point-to-set distance, inflation, proper indicators.

State vectors are plain 1-D numpy arrays. Regions are immutable after
construction and safe for concurrent reads.
"""

import numpy as np

DEFAULT_TOL = 1e-9


class UnsupportedDistance(Exception):
    """No exact or oracle distance exists for this region variant."""


class DegenerateDomain(Exception):
    """Indicator target is not strictly inside its open domain."""


class SamplingError(ValueError):
    """A sampled region has no bounding box, or too few draws land in it."""


def as_vector(x):
    """Coerce to a 1-D float64 array without copying when possible."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    return v


class SetRegion:
    """Base region. Subclasses override distance and/or a membership predicate."""

    def distance(self, x):
        raise UnsupportedDistance(f"{type(self).__name__} has no distance oracle")

    def contains(self, x, tol=DEFAULT_TOL):
        return self.distance(as_vector(x)) <= tol

    def bounding_box(self):
        """AxisBox enclosing the region for sampling, or None."""
        return None


class EmptySet(SetRegion):
    """The empty region (e.g. jump set of a pure-flow system)."""

    def distance(self, x):
        return np.inf

    def contains(self, x, tol=DEFAULT_TOL):
        return False


class Ball(SetRegion):
    def __init__(self, center, radius):
        self.center = as_vector(center)
        if radius < 0:
            raise ValueError("ball radius must be >= 0")
        self.radius = float(radius)

    def distance(self, x):
        return max(0.0, float(np.linalg.norm(as_vector(x) - self.center)) - self.radius)

    def bounding_box(self):
        return AxisBox(self.center - self.radius, self.center + self.radius)

    def __repr__(self):
        return f"Ball({self.center.tolist()}, {self.radius})"


class AxisBox(SetRegion):
    """Axis-aligned box; lo/hi entries may be -inf/+inf for half-bounded sets."""

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
        if r < 0:
            raise ValueError("inflation radius must be >= 0")
        self.base = base
        self.r = float(r)

    def distance(self, x):
        return max(0.0, self.base.distance(x) - self.r)

    def contains(self, x, tol=DEFAULT_TOL):
        if self.r == 0.0:
            return self.base.contains(x, tol)
        try:
            return self.base.distance(as_vector(x)) <= self.r + tol
        except UnsupportedDistance:
            return self.base.contains(x, self.r + tol)

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

    def distance(self, x):
        return min(p.distance(x) for p in self.parts)

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

    def distance(self, x):
        return max(p.distance(x) for p in self.parts)

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
    Implicit bases carrying complement_sdf, unsupported otherwise."""

    def __init__(self, base):
        self.base = base

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


def dist_to_set(x, region):
    """inf_{y in region} |x - y|; raises UnsupportedDistance without an oracle."""
    return region.distance(as_vector(x))


def contains(region, x, tol=DEFAULT_TOL):
    """True iff x is within distance tol of the region (predicate for Implicit)."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    return region.contains(as_vector(x), tol)


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
    """omega(x): zero exactly on the target, blowing up at the domain boundary
    and at infinity. Built by make_proper_indicator."""

    def __init__(self, target, domain, evaluator):
        self.target = target
        self.domain = domain
        self.evaluator = evaluator

    def __call__(self, x):
        return self.evaluator(as_vector(x))


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


def make_proper_indicator(target, domain, tol=DEFAULT_TOL):
    """omega(x) = |x|_target * (1 + 1/dist(x, domain^c)).

    target: compact with distance support; domain: open with complement
    distance support; target strictly inside domain (checked on witness
    probes of the target, a heuristic guard).
    """
    comp = Complement(domain)
    probes = _clearance_probes(target)
    if probes:
        clearance = min(comp.distance(p) for p in probes)
        if clearance <= tol:
            raise DegenerateDomain(
                f"target within {clearance:.3e} of the domain boundary"
            )

    def omega(x):
        d_t = target.distance(x)
        if d_t == 0.0:
            return 0.0
        d_c = comp.distance(x)
        if d_c == 0.0:
            return np.inf
        if np.isinf(d_c):
            return d_t
        return d_t * (1.0 + 1.0 / d_c)

    return ProperIndicator(target, domain, omega)
