"""Set primitives: distances, membership, inflation, proper indicators."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hybridcert import (
    AxisBox,
    Ball,
    Complement,
    DegenerateDomain,
    EmptySet,
    Implicit,
    Inflated,
    Intersection,
    SamplingError,
    Union,
    bouncing_ball,
    contains,
    dist_to_set,
    make_proper_indicator,
    predicate_fn,
    sample_region,
)
from hybridcert import geometry


def test_distance_to_ball():
    A = Ball((0.0, 0.0), 1.0)
    assert dist_to_set(np.array([2.0, 0.0]), A) == pytest.approx(1.0, abs=1e-15)
    assert dist_to_set(np.array([0.0, 0.0]), A) == 0.0
    # zero-radius ball degenerates to plain Euclidean distance
    assert dist_to_set(np.array([3.0, 4.0]), Ball((0.0, 0.0), 0.0)) == 5.0


def test_distance_to_box():
    A = AxisBox([0.0, 0.0], [1.0, 1.0])
    assert dist_to_set(np.array([0.5, 0.5]), A) == 0.0
    assert dist_to_set(np.array([2.0, 0.5]), A) == pytest.approx(1.0)
    assert dist_to_set(np.array([2.0, 2.0]), A) == pytest.approx(np.sqrt(2.0))


def test_contains_examples():
    box = AxisBox([0.0, 0.0], [1.0, 1.0])
    assert contains(box, np.array([0.5, 0.5]), 0.0)
    assert contains(box, np.array([1.0 + 1e-12, 0.5]), 1e-9)
    assert not contains(Ball((0.0, 0.0), 1.0), np.array([2.0, 0.0]), 0.5)


def test_axis_box_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        AxisBox([1.0], [-1.0])


def test_empty_set():
    E = EmptySet()
    assert dist_to_set(np.array([0.0]), E) == np.inf
    assert not contains(E, np.array([0.0]), 1e9)


def test_inflated_ball_acts_like_bigger_ball():
    A = Ball((1.0, -2.0), 0.5)
    B = Ball((1.0, -2.0), 0.8)
    infl = Inflated(A, 0.3)
    rng = np.random.default_rng(0)
    for p in rng.uniform(-4.0, 4.0, size=(300, 2)):
        assert contains(infl, p, 1e-9) == contains(B, p, 1e-9)


def test_inflate_zero_is_identity():
    A = AxisBox([-1.0, 0.0], [1.0, 2.0])
    infl = Inflated(A, 0.0)
    rng = np.random.default_rng(1)
    for p in rng.uniform(-3.0, 3.0, size=(1000, 2)):
        assert contains(infl, p, 0.0) == contains(A, p, 0.0)


def test_point_at_known_set_distance_is_in_inflation():
    A = Ball((0.0, 0.0), 1.0)
    x = np.array([1.3, 0.0])  # |x|_A = 0.3
    assert contains(Inflated(A, 0.3), x, 1e-9)


@st.composite
def inflation_case(draw):
    """A Ball and a free point, or a 2-D AxisBox with some +-inf faces and
    a point free or placed at +-{0, 0.5, 1, 2} (r + tol) off a face, then
    moved one ulp either way or not; with the radius r and the tol."""
    r = draw(st.one_of(st.floats(0.0, 1.5),
                       st.sampled_from([0.0, 1e-9, 0.25])))
    tol = draw(st.sampled_from([0.0, 1e-9, 0.25]))
    if draw(st.booleans()):
        center = (draw(st.floats(-3, 3)), draw(st.floats(-3, 3)))
        x = [draw(st.floats(-6, 6)), draw(st.floats(-6, 6))]
        return Ball(center, draw(st.floats(0.0, 2.0))), np.array(x), r, tol
    lo, hi, x = [], [], []
    for _ in range(2):
        ends = st.one_of(st.integers(-24, 24).map(lambda k: k / 8.0),
                         st.sampled_from([0.1, -0.3, 0.7]))
        a, b = sorted((draw(ends), draw(ends)))
        a = -np.inf if draw(st.booleans()) else a
        b = np.inf if draw(st.booleans()) else b
        lo.append(a)
        hi.append(b)
        place = draw(st.sampled_from(["free", "lo", "hi"]))
        if place == "free":
            x.append(draw(st.floats(-6, 6)))
            continue
        face = a if place == "lo" else b
        if not np.isfinite(face):
            face = 0.0
        s = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]))
        v = face + s * (r + tol)
        x.append(draw(st.sampled_from([v, np.nextafter(v, -np.inf),
                                       np.nextafter(v, np.inf)])))
    return AxisBox(lo, hi), np.array(x), r, tol


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(case=inflation_case())
@example(case=(AxisBox([0.1], [1.0]), np.array([-0.15000000000000002]),
               0.25, 0.0))
@example(case=(AxisBox([0.1], [1.0]), np.array([-0.15000000000000002]),
               0.125, 0.125))
@example(case=(AxisBox([-np.inf, 0.0], [0.5, np.inf]),
               np.array([-1e300, -0.25]), 0.25, 0.0))
def test_inflation_distance_duality(case):
    # contains(Inflated(A, r), x, tol) must agree with dist(x, A) <= r + tol
    A, x, r, tol = case
    inside = dist_to_set(x, A) <= r + tol
    infl = Inflated(A, r)
    assert contains(infl, x, tol) == inside
    assert contains(infl, x.tolist(), tol) == inside
    assert infl.contains_many(x[None, :], tol).tolist() == [inside]


@st.composite
def box_and_point(draw):
    """An axis box with some +-inf faces and a point that is free, far out
    along an infinite face, NaN or +-inf, or placed at +-{0, 0.5, 1, 2} tol
    off a face.  Finite coordinates are multiples of 1/8; the explicit
    examples of the test add gaps small enough to underflow when
    squared."""
    tol = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.25, np.inf]))
    dim = draw(st.integers(1, 4))
    lo, hi, x = [], [], []
    for _ in range(dim):
        a, b = sorted(draw(st.integers(-64, 64)) / 8.0 for _ in range(2))
        a = -np.inf if draw(st.booleans()) else a
        b = np.inf if draw(st.booleans()) else b
        lo.append(a)
        hi.append(b)
        place = draw(st.sampled_from(["free", "far", "nonfinite", "lo",
                                      "hi"]))
        if place == "free":
            x.append(draw(st.integers(-100, 100)) / 8.0)
        elif place == "far":
            x.append(draw(st.sampled_from([-1e6, 1e6])))
        elif place == "nonfinite":
            x.append(draw(st.sampled_from([np.nan, -np.inf, np.inf])))
        else:
            face = a if place == "lo" else b
            if not np.isfinite(face):
                face = 0.0
            s = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]))
            x.append(face + s * tol)
    return AxisBox(lo, hi), np.array(x), tol


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(case=box_and_point())
@example(case=(AxisBox([0.0], [1.0]), np.array([-5e-324]), 0.0))
@example(case=(AxisBox([0.0], [1.0]), np.array([1.0 + 2**-52]), 0.0))
@example(case=(AxisBox([0.0, 0.0], [1.0, 1.0]), np.array([-1e-160, 5e-324]),
               0.0))
@example(case=(AxisBox([0.0, -np.inf], [1.0, 0.0]),
               np.array([0.5, 5e-324]), 0.0))
@example(case=(AxisBox([0.0], [1.0]), np.array([-1e-160]), 1e-160))
@example(case=(AxisBox([0.0, 0.0], [1.0, 1.0]), np.array([np.nan, 0.5]),
               0.0))
@example(case=(AxisBox([-np.inf, 0.0], [np.inf, 1.0]),
               np.array([np.nan, 0.5]), 1e-9))
@example(case=(AxisBox([-np.inf], [np.inf]), np.array([np.inf]), np.inf))
@example(case=(AxisBox([0.0], [1.0]), np.array([-np.inf]), np.inf))
@example(case=(AxisBox([0.1], [1.0]), np.array([-0.15000000000000002]), 0.25))
@example(case=(AxisBox([0.0], [1.0]), np.array([-5.203930382783413e-155]),
               5.203930382783411e-155))
def test_axis_box_contains_is_the_distance_definition(case):
    box, x, tol = case
    inside = dist_to_set(x, box) <= tol
    assert contains(box, x, tol) == inside
    assert contains(box, x.tolist(), tol) == inside
    assert box.contains_many(x[None, :], tol).tolist() == [inside]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    lo=st.floats(-3, 0), hi=st.floats(0.1, 3),
    ax=st.floats(-5, 5), ay=st.floats(-5, 5),
    bx=st.floats(-5, 5), by=st.floats(-5, 5),
)
def test_distance_is_lipschitz(lo, hi, ax, ay, bx, by):
    A = AxisBox([lo, lo], [hi, hi])
    a, b = np.array([ax, ay]), np.array([bx, by])
    gap = abs(dist_to_set(a, A) - dist_to_set(b, A))
    assert gap <= np.linalg.norm(a - b) + 1e-12


def test_union_and_intersection():
    A = AxisBox([0.0], [1.0])
    B = AxisBox([2.0], [3.0])
    u = Union([A, B])
    assert contains(u, np.array([0.5]), 0.0)
    assert contains(u, np.array([2.5]), 0.0)
    assert not contains(u, np.array([1.5]), 0.0)
    assert dist_to_set(np.array([1.4]), u) == pytest.approx(0.4)
    i = Intersection([AxisBox([0.0], [2.0]), AxisBox([1.0], [3.0])])
    assert contains(i, np.array([1.5]), 0.0)
    assert not contains(i, np.array([0.5]), 0.0)


@pytest.mark.parametrize("kind", [Union, Intersection])
def test_a_nan_part_distance_wins_in_either_order(kind):
    nan = Implicit(lambda p: False, AxisBox([0.0], [1.0]),
                   sdf=lambda p: float("nan"))
    box = AxisBox([5.0], [6.0])
    for parts in ([nan, box], [box, nan]):
        assert np.isnan(kind(parts).distance([2.0]))
    # without a NaN part the nearest (union) or farthest (intersection)
    # part gives the distance
    near = AxisBox([2.5], [3.0])
    assert kind([near, box]).distance([2.0]) == (
        0.5 if kind is Union else 3.0)


def test_union_bounding_box_spans_its_parts():
    u = Union([AxisBox([0.0, -1.0], [1.0, 0.0]), Ball((3.0, 0.0), 0.5)])
    bb = u.bounding_box()
    assert bb.lo.tolist() == [0.0, -1.0]
    assert bb.hi.tolist() == [3.5, 0.5]
    # a part without a box leaves the union without one
    strip = AxisBox([0.0, -np.inf], [1.0, np.inf])
    assert Union([AxisBox([0.0, 0.0], [1.0, 1.0]),
                  strip]).bounding_box() is None


def test_complement_membership():
    A = Ball((0.0,), 1.0)
    C = Complement(A)
    assert contains(C, np.array([2.0]), 0.0)
    assert not contains(C, np.array([0.5]), 0.0)


# complements whose base has no complement distance: an Implicit without
# complement_sdf, a Union, an Intersection and an Inflated
UNMEASURED_BASES = {
    "implicit": Implicit(lambda p: p[0] + p[1] <= 1.0,
                         AxisBox([-2.0, -2.0], [2.0, 2.0])),
    "union": Union([Ball((0.0, 0.0), 1.0), AxisBox([1.0, -1.0], [3.0, 1.0])]),
    "intersection": Intersection([Ball((0.0, 0.0), 1.0),
                                  AxisBox([0.0, -2.0], [2.0, 2.0])]),
    "inflated": Inflated(AxisBox([0.0, 0.0], [1.0, 1.0]), 0.25),
}
COMPLEMENT_POINTS = np.array([
    [0.0, 0.0], [0.5, 0.5], [1.0, 0.0], [-0.0, -1.0], [2.5, 0.5],
    [1.25, 1.25], [1.2500000000000002, 1.0], [-3.0, 4.0], [np.nan, 0.0],
    [np.inf, 0.0], [-1e300, 1e300]])


@pytest.mark.parametrize("kind", sorted(UNMEASURED_BASES))
@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.25])
def test_a_complement_without_a_distance_is_outside_its_base(
        monkeypatch, kind, tol):
    # decided by the base's type at construction: no distance is asked
    base = UNMEASURED_BASES[kind]
    comp = Complement(base)
    for name in ("distance", "distance_many"):
        monkeypatch.setattr(comp, name, _no_distance)
    X = COMPLEMENT_POINTS
    want = [not base.contains(x, 0.0) for x in X]
    assert [comp.contains(x, tol) for x in X] == want
    assert [comp.contains(x.tolist(), tol) for x in X] == want
    got = comp.contains_many(X, tol)
    assert got.tobytes() == (~base.contains_many(X, 0.0)).tobytes()
    assert got.tolist() == want
    assert comp.contains_many(np.empty((0, 2)), tol).shape == (0,)


@pytest.mark.parametrize("base", [
    Ball((0.0, 0.0), 1.0), AxisBox([0.0, 0.0], [1.0, 1.0]),
    Implicit(lambda p: p[0] <= 0.5, AxisBox([-2.0, -2.0], [0.5, 2.0]),
             complement_sdf=lambda p: max(0.0, 0.5 - p[0])),
], ids=["ball", "box", "implicit-with-complement-sdf"])
def test_a_complement_with_a_distance_contains_by_it(base):
    comp = Complement(base)
    X = COMPLEMENT_POINTS
    with np.errstate(invalid="ignore"):
        for tol in (0.0, 0.25):
            want = [comp.distance(x) <= tol for x in X]
            assert [comp.contains(x, tol) for x in X] == want
            assert comp.contains_many(X, tol).tolist() == want
            assert (comp.distance_many(X) <= tol).tolist() == want


def test_implicit_set_uses_predicate_and_needs_bbox():
    I = Implicit(lambda p: p[0] ** 2 + p[1] ** 2 <= 1.0,
                 AxisBox([-1.0, -1.0], [1.0, 1.0]))
    assert contains(I, np.array([0.3, 0.3]), 0.0)
    assert not contains(I, np.array([2.0, 0.0]), 0.0)
    bb = I.bounding_box()
    assert np.allclose(bb.lo, [-1.0, -1.0]) and np.allclose(bb.hi, [1.0, 1.0])


def test_implicit_with_sdf_supports_inflation():
    def sdf(p):
        return max(0.0, float(np.hypot(p[0], p[1])) - 1.0)

    I = Implicit(lambda p: np.hypot(p[0], p[1]) <= 1.0,
                 AxisBox([-1.0, -1.0], [1.0, 1.0]), sdf=sdf)
    assert contains(Inflated(I, 0.5), np.array([1.4, 0.0]), 1e-9)
    assert not contains(Inflated(I, 0.5), np.array([1.6, 0.0]), 1e-9)


def test_inflating_a_predicate_only_set_falls_back_to_the_predicate():
    I = Implicit(lambda p: np.hypot(p[0], p[1]) <= 1.0,
                 AxisBox([-1.0, -1.0], [1.0, 1.0]))
    infl = Inflated(I, 0.5)
    # no distance oracle: the band under-accepts, the predicate decides
    assert contains(infl, np.array([0.9, 0.0]), 1e-9)
    assert not contains(infl, np.array([1.4, 0.0]), 1e-9)


def _no_distance(*args):
    raise AssertionError("the base's distance was asked")


def test_inflation_asks_no_distance_it_does_not_need(monkeypatch):
    # a predicate-only base is decided by its predicate, and an axis box by
    # its screen wherever each coordinate is inside its face or beyond it
    # by more than r + tol; neither asks the base for a distance
    pred_only = Implicit(lambda p: p[0] + p[1] <= 1.0,
                         AxisBox([-2.0, -2.0], [2.0, 2.0]))
    box = AxisBox([0.1, -np.inf], [1.0, 0.5])
    X = np.array([[0.5, 0.0], [0.1, -1e300], [1.0, 0.5], [-0.25, 0.0],
                  [0.5, 0.81], [1.31, 0.9], [-1e300, 1e300]])
    cases = [(pred_only, [True, True, False, True, False, False, True]),
             (box, [True, True, True, False, False, False, False])]
    for base, want in cases:
        for name in ("distance", "distance_many"):
            monkeypatch.setattr(base, name, _no_distance)
        infl = Inflated(base, 0.25)
        tol = 0.05
        assert [contains(infl, x, tol) for x in X] == want
        assert [contains(infl, x.tolist(), tol) for x in X] == want
        assert infl.contains_many(X, tol).tolist() == want


def test_proper_indicator_vanishes_on_target():
    omega = make_proper_indicator(Ball((0.0, 0.0), 1.0), Ball((0.0, 0.0), 3.0))
    assert omega(np.array([0.5, 0.0])) == 0.0
    assert omega(np.array([0.0, -1.0])) == 0.0


def test_proper_indicator_value_between_target_and_boundary():
    omega = make_proper_indicator(Ball((0.0, 0.0), 1.0), Ball((0.0, 0.0), 3.0))
    # |x|_A = 1 and dist to the domain complement = 1, so 1 * (1 + 1/1)
    assert omega(np.array([2.0, 0.0])) == pytest.approx(2.0, abs=1e-12)


def test_proper_indicator_blows_up_at_domain_boundary():
    omega = make_proper_indicator(Ball((0.0, 0.0), 1.0), Ball((0.0, 0.0), 3.0))
    vals = [omega(np.array([3.0 - 1.0 / n, 0.0])) for n in (10, 100, 1000, 10000)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 1e3


def test_proper_indicator_positive_off_target():
    omega = make_proper_indicator(Ball((0.0, 0.0), 1.0), Ball((0.0, 0.0), 3.0))
    rng = np.random.default_rng(3)
    A = Ball((0.0, 0.0), 1.0)
    for p in rng.uniform(-2.9, 2.9, size=(200, 2)):
        if contains(Ball((0.0, 0.0), 2.95), p, 0.0) and not contains(A, p, 1e-9):
            assert omega(p) > 0.0


def test_proper_indicator_rejects_touching_domain():
    with pytest.raises(DegenerateDomain):
        make_proper_indicator(Ball((0.0,), 1.0), Ball((0.0,), 1.0))


def test_inflated_keeps_base_reference():
    A = AxisBox([0.0], [1.0])
    infl = Inflated(A, 0.2)
    assert isinstance(infl, Inflated)
    assert dist_to_set(np.array([1.5]), infl) == pytest.approx(0.3)


def test_sample_region_keeps_in_region_draws_in_order():
    disk = Ball((0.0, 0.0), 1.0)
    pts = sample_region(disk, 5, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    expected = [p for p in (rng.uniform([-1.0, -1.0], [1.0, 1.0])
                            for _ in range(20)) if contains(disk, p, 0.0)]
    assert len(pts) == 5
    assert all(np.array_equal(a, b)
               for a, b in zip(pts, expected[:5], strict=True))


def test_sample_region_empty_unbounded_and_unreachable():
    rng = np.random.default_rng(0)
    assert sample_region(Ball((0.0,), 1.0), 0, rng) == []
    with pytest.raises(SamplingError):
        sample_region(AxisBox([0.0], [np.inf]), 1, rng)
    with pytest.raises(SamplingError):
        sample_region(Implicit(lambda x: False, AxisBox([0.0], [1.0])), 2, rng)


# ------------------------------------------------ array forms, row for row

EDGE_COORDS = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.25, 1e-170, -1e-170,
               5e-324, -5e-324, 1e-160, 1.0 + 1e-12, np.nan, np.inf, -np.inf]
coords = st.one_of(
    st.integers(-32, 32).map(lambda k: k / 8.0), st.sampled_from(EDGE_COORDS)
)
faces = st.one_of(st.integers(-24, 24).map(lambda k: k / 8.0),
                  st.sampled_from([-np.inf, np.inf, 0.0]))


def _half_plane(draw, log):
    """An Implicit set {x0 + w*x1 <= c}, with or without its sdf and its
    complement's; the predicate and the oracles log every point they see."""
    w = draw(st.sampled_from([0.0, 1.0, -0.5]))
    c = draw(st.sampled_from([0.0, 0.75, -1.5]))
    n = float(np.hypot(1.0, w))

    def pred(x):
        log.append(("pred", c, x.tobytes()))
        return x[0] + w * x[1] <= c

    def sdf(x):
        log.append(("sdf", c, x.tobytes()))
        return (x[0] + w * x[1] - c) / n

    def complement_sdf(x):
        return (c - x[0] - w * x[1]) / n

    return Implicit(
        pred, AxisBox([-4.0, -4.0], [4.0, 4.0]),
        sdf=sdf if draw(st.booleans()) else None,
        complement_sdf=complement_sdf if draw(st.booleans()) else None,
    )


@st.composite
def regions(draw, log, depth=3):
    kinds = ["box", "ball", "empty", "implicit"]
    if depth > 0:
        kinds += ["inflated", "union", "intersection", "complement"] * 2
    kind = draw(st.sampled_from(kinds))
    if kind == "box":
        lo, hi = [], []
        for _ in range(2):
            a, b = sorted((draw(faces), draw(faces)))
            lo.append(a)
            hi.append(b)
        return AxisBox(lo, hi)
    if kind == "ball":
        return Ball((draw(coords.filter(np.isfinite)),
                     draw(coords.filter(np.isfinite))),
                    draw(st.sampled_from([0.0, 0.5, 1.25])))
    if kind == "empty":
        return EmptySet()
    if kind == "implicit":
        return _half_plane(draw, log)
    sub = regions(log, depth - 1)
    if kind == "inflated":
        return Inflated(draw(sub), draw(st.sampled_from([0.0, 1e-9, 0.25])))
    if kind == "complement":
        return Complement(draw(sub))
    parts = draw(st.lists(sub, min_size=1, max_size=3))
    return Union(parts) if kind == "union" else Intersection(parts)


def _outcome(f):
    """f()'s float or bool array, or the type of the exception it raised."""
    try:
        return f()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def _same(a, b):
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(data=st.data(),
       tol=st.sampled_from([0.0, 1e-9, 1e-3, 0.25]),
       X=st.lists(st.tuples(coords, coords), min_size=1, max_size=8))
def test_array_forms_match_the_scalar_forms_row_for_row(data, tol, X):
    # every region kind, nested; NaN, +-inf and gaps that square to 0.  The
    # user code (predicates, sdfs) sees the same points either way, unless
    # the call raises: the scalar loop stops at the first row, while an
    # array form may have run an earlier part on every row
    log = []
    region = data.draw(regions(log))
    X = np.array(X, dtype=float)
    with np.errstate(invalid="ignore"):
        check_rows(region, X, tol, log)


def check_rows(region, X, tol, log):

    want = _outcome(lambda: np.array(
        [region.contains(x, tol) for x in X], dtype=bool))
    scalar_calls = sorted(log)
    log.clear()
    got = _outcome(lambda: region.contains_many(X, tol))
    assert _same(want, got), (region, X, tol, want, got)
    assert isinstance(want, type) or sorted(log) == scalar_calls

    log.clear()
    want = _outcome(lambda: np.array([region.distance(x) for x in X],
                                     dtype=float))
    scalar_calls = sorted(log)
    log.clear()
    got = _outcome(lambda: region.distance_many(X))
    assert _same(want, got), (region, X, want, got)
    assert isinstance(want, type) or sorted(log) == scalar_calls


def test_array_forms_take_lists_and_reject_flat_input():
    box = AxisBox([0.0, 0.0], [1.0, 1.0])
    assert box.contains_many([[0.5, 0.5], [2.0, 0.0]], 0.0).tolist() == [
        True, False]
    assert box.distance_many(np.empty((0, 2))).shape == (0,)
    with pytest.raises(ValueError):
        box.contains_many(np.array([0.5, 0.5]), 0.0)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(data=st.data(), tol=st.sampled_from([0.0, 1e-9, 0.25]),
       x=st.tuples(coords, coords))
def test_contains_gives_a_list_the_answer_of_its_array(data, tol, x):
    # contains hands x to the region uncoerced: each kind (the empty set,
    # unions, intersections and inflations among them) coerces it itself
    log = []
    region = data.draw(regions(log))
    with np.errstate(invalid="ignore"):
        want = _outcome(lambda: contains(region, np.array(x), tol))
        array_calls = list(log)
        log.clear()
        got = _outcome(lambda: contains(region, list(x), tol))
    assert want is got, (region, x, tol)
    assert log == array_calls


def _logging(fn, log):
    """fn, logging each point it gets."""
    def logged(x):
        log.append(list(x))
        return fn(x)

    return logged


def test_list_taking_batch_forms_match_the_one_point_forms(monkeypatch):
    # lists are made 1,024 rows at a time: 2,500 rows end in a short chunk
    rng = np.random.default_rng(7)
    X = rng.uniform(-1.0, 1.0, size=(2500, 3))
    X[::5, 1] = 0.0
    X[::11, 2] = 0.0
    log = []
    jump = bouncing_ball()[0].jump_set
    compiled = predicate_fn("y <= 0 and z < 0", ("x", "y", "z"))
    regions = [
        Implicit(_logging(jump.pred, log), jump.bbox,
                 sdf=_logging(jump.sdf, log)),
        Implicit(_logging(compiled, log), AxisBox([-1.0] * 3, [1.0] * 3)),
    ]
    for region in regions:
        for tol in (0.0, 1e-9, 0.25):
            log.clear()
            want = np.array([region.contains(x, tol) for x in X], dtype=bool)
            scalar_calls = list(log)
            log.clear()
            with monkeypatch.context() as m:
                # no row goes through an array on its way to a list
                m.setattr(geometry, "as_vector", None)
                got = region.contains_many(X, tol)
            assert got.tobytes() == want.tobytes()
            assert log == scalar_calls and len(log) >= len(X)
            assert all(type(v) is float for x in log for v in x)
    region = regions[0]
    want = np.array([region.distance(x) for x in X], dtype=float)
    assert region.distance_many(X).tobytes() == want.tobytes()


def test_list_taking_batch_forms_never_hold_all_rows_as_lists():
    # as lists of floats, the rows would take about six times the array's
    # memory; made a chunk at a time, the peak stays below the array's
    X = np.zeros((50_000, 3))
    jump = bouncing_ball()[0].jump_set
    tracemalloc.start()
    try:
        inside = jump.contains_many(X, 0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inside.all()
    assert peak < X.nbytes


def _counted(fn, calls):
    """fn, counting its calls in calls; it keeps fn's markers."""
    def counted(x):
        calls.append(1)
        return fn(x)

    counted.__dict__.update(fn.__dict__)
    return counted


# the ball's jump set is {y <= 1e-9, z < 0}: rows on and one ulp either side
# of its faces, signed zeros and NaN
JUMP_Y = [np.nan, 0.0, -0.0, 1e-9, np.nextafter(1e-9, 1.0),
          np.nextafter(1e-9, -1.0), -1.0, 5.0, np.inf, -np.inf]
JUMP_Z = [np.nan, 0.0, -0.0, -5e-324, 5e-324, -1e-9, -3.0, 2.0, -np.inf]
JUMP_ROWS = np.array([[x, y, z] for x in (0.0, np.nan) for y in JUMP_Y
                      for z in JUMP_Z])


def test_the_ball_jump_set_tests_rows_by_its_predicate_row_form(monkeypatch):
    jump = bouncing_ball()[0].jump_set
    X = JUMP_ROWS
    want = np.array([bool(jump.pred(x)) for x in X.tolist()])
    assert want.any() and not want.all()
    # at tol 0 the sdf is never asked: one array comparison, no per-row
    # predicate call, here and through H_0's inflation by 0
    calls = []
    monkeypatch.setattr(jump, "pred", _counted(jump.pred, calls))
    assert jump.contains_many(X, 0.0).tobytes() == want.tobytes()
    assert Inflated(jump, 0.0).contains_many(X, 0.0).tobytes() == \
        want.tobytes()
    assert calls == []
    # without an sdf, at every tol
    pred_only = Implicit(jump.pred, jump.bbox)
    assert pred_only.contains_many(X, 0.25).tobytes() == want.tobytes()
    assert calls == []
    # at tol > 0 the sdf can widen the set: one predicate call per row
    with np.errstate(invalid="ignore"):
        for tol in (1e-9, 0.25):
            per_row = np.array([jump.contains(x, tol) for x in X.tolist()])
            calls.clear()
            assert jump.contains_many(X, tol).tobytes() == per_row.tobytes()
            assert len(calls) == len(X)


NAN_POINTS = [[np.nan, 0.0], [0.5, np.nan], [np.nan, np.nan]]


@pytest.mark.parametrize("region", [
    Ball((0.0, 0.0), 1.0), Ball((0.5, -0.5), 0.0),
    Inflated(Ball((0.0, 0.0), 1.0), 0.5),
    Complement(Ball((0.0, 0.0), 1.0)),
    Complement(AxisBox([0.0, 0.0], [1.0, 1.0])),
    Complement(AxisBox([-np.inf, 0.0], [np.inf, 1.0])),
], ids=["ball", "point", "inflated-ball", "not-ball", "not-box", "not-slab"])
@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.25, np.inf])
def test_a_nan_coordinate_is_outside_balls_and_complements(region, tol):
    # their distance is NaN there, as an axis box's is, never 0
    for x in NAN_POINTS:
        assert np.isnan(dist_to_set(x, region))
        assert not contains(region, x, tol)
        assert not contains(region, np.array(x), tol)
    assert np.isnan(region.distance_many(NAN_POINTS)).all()
    assert not region.contains_many(NAN_POINTS, tol).any()


def test_a_negative_zero_distance_is_positive_zero():
    for region, x in [(Complement(AxisBox([0.0], [1.0])), [-0.0]),
                      (Complement(Ball((0.0,), 1.0)), [1.0]),
                      (Ball((0.0,), 0.0), [-0.0])]:
        d, (row,) = dist_to_set(x, region), region.distance_many([x])
        assert np.signbit([d, row]).tolist() == [False, False]
        assert d == row == 0.0


@pytest.mark.filterwarnings("error")
def test_distances_far_from_a_set_are_finite():
    # the squares of gaps beyond about 1.3e154 overflow; scaled by the
    # largest gap first, the norm stays finite wherever it is a float
    box, ball = AxisBox([0.0], [1.0]), Ball((0.0, 0.0), 1.0)
    assert dist_to_set([1e200], box) == 1e200 - 1.0
    assert dist_to_set([1e200, 0.0], ball) == 1e200 - 1.0
    assert box.distance_many([[1e200]]).tolist() == [1e200 - 1.0]
    square = AxisBox([0.0, 0.0], [1.0, 1.0])
    cases = [
        (box, [[1e200], [-1e200], [1.7e308], [-np.inf], [0.5]]),
        (ball, [[1e200, 0.0], [-1e200, 1e200], [1.7e308, 1.7e308],
                [np.inf, 0.0], [1e-200, 0.0]]),
        (square, [[1e200, 1e200], [-1e200, 0.5], [1.7e308, -1.7e308]]),
        (Complement(ball), [[1e200, 0.0], [0.0, 1e-300]]),
        (Inflated(square, 1e200), [[3e200, 0.5], [1e300, 1e300]]),
    ]
    for region, X in cases:
        one = np.array([dist_to_set(x, region) for x in X])
        assert region.distance_many(X).tobytes() == one.tobytes()
        for tol in (0.0, 1e200):
            want = np.array([contains(region, x, tol) for x in X])
            assert region.contains_many(X, tol).tobytes() == want.tobytes()
    assert dist_to_set([1e200, 1e200], square) == (1e200 - 1.0) * np.sqrt(2.0)
    # a norm beyond the largest float is inf, as at an infinite coordinate
    assert dist_to_set([1.7e308, 1.7e308], ball) == np.inf
    assert dist_to_set([-np.inf], box) == np.inf
    assert dist_to_set([3e200, 0.5], Inflated(square, 1e200)) == 2e200 - 1.0


def test_contains_rejects_a_negative_tol():
    box = AxisBox([0.0, 0.0], [1.0, 1.0])
    for x in ([0.5, 0.5], np.array([0.5, 0.5])):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            contains(box, x, -1e-9)


def test_only_regions_with_user_code_say_so():
    implicit = Implicit(lambda x: True, AxisBox([0.0], [1.0]))
    plain = [AxisBox([0.0], [1.0]), Ball((0.0,), 1.0), EmptySet()]
    for r in plain:
        assert not r.runs_user_code
        assert not Complement(Inflated(Union([r, r]), 0.5)).runs_user_code
    assert implicit.runs_user_code
    assert Intersection([plain[0], Complement(implicit)]).runs_user_code
