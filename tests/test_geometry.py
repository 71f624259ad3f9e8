"""Set primitives: distances, membership, inflation, proper indicators."""

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
    contains,
    dist_to_set,
    inflate,
    make_proper_indicator,
    sample_region,
)


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
    infl = inflate(A, 0.3)
    rng = np.random.default_rng(0)
    for p in rng.uniform(-4.0, 4.0, size=(300, 2)):
        assert contains(infl, p, 1e-9) == contains(B, p, 1e-9)


def test_inflate_zero_is_identity():
    A = AxisBox([-1.0, 0.0], [1.0, 2.0])
    infl = inflate(A, 0.0)
    rng = np.random.default_rng(1)
    for p in rng.uniform(-3.0, 3.0, size=(1000, 2)):
        assert contains(infl, p, 0.0) == contains(A, p, 0.0)


def test_point_at_known_set_distance_is_in_inflation():
    A = Ball((0.0, 0.0), 1.0)
    x = np.array([1.3, 0.0])  # |x|_A = 0.3
    assert contains(inflate(A, 0.3), x, 1e-9)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    cx=st.floats(-3, 3), cy=st.floats(-3, 3),
    rad=st.floats(0.0, 2.0),
    r=st.floats(0.0, 1.5),
    px=st.floats(-6, 6), py=st.floats(-6, 6),
)
def test_inflation_distance_duality(cx, cy, rad, r, px, py):
    # contains(inflate(A,r), x, tol) must agree with dist(x,A) <= r + tol
    A = Ball((cx, cy), rad)
    x = np.array([px, py])
    tol = 1e-9
    assert contains(inflate(A, r), x, tol) == (dist_to_set(x, A) <= r + tol)


@st.composite
def box_and_point(draw):
    """An axis box with some +-inf faces and a point that is free, far out
    along an infinite face, or placed at +-{0, 0.5, 1, 2} tol off a face.
    Coordinates are multiples of 1/8; the explicit examples of the test
    add gaps small enough to underflow when squared."""
    tol = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.25]))
    dim = draw(st.integers(1, 4))
    lo, hi, x = [], [], []
    for _ in range(dim):
        a, b = sorted(draw(st.integers(-64, 64)) / 8.0 for _ in range(2))
        a = -np.inf if draw(st.booleans()) else a
        b = np.inf if draw(st.booleans()) else b
        lo.append(a)
        hi.append(b)
        place = draw(st.sampled_from(["free", "far", "lo", "hi"]))
        if place == "free":
            x.append(draw(st.integers(-100, 100)) / 8.0)
        elif place == "far":
            x.append(draw(st.sampled_from([-1e6, 1e6])))
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
def test_axis_box_contains_is_the_distance_definition(case):
    box, x, tol = case
    assert contains(box, x, tol) == (dist_to_set(x, box) <= tol)


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


def test_complement_membership():
    A = Ball((0.0,), 1.0)
    C = Complement(A)
    assert contains(C, np.array([2.0]), 0.0)
    assert not contains(C, np.array([0.5]), 0.0)


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
    assert contains(inflate(I, 0.5), np.array([1.4, 0.0]), 1e-9)
    assert not contains(inflate(I, 0.5), np.array([1.6, 0.0]), 1e-9)


def test_inflating_a_predicate_only_set_falls_back_to_the_predicate():
    I = Implicit(lambda p: np.hypot(p[0], p[1]) <= 1.0,
                 AxisBox([-1.0, -1.0], [1.0, 1.0]))
    infl = inflate(I, 0.5)
    # no distance oracle: the band under-accepts, the predicate decides
    assert contains(infl, np.array([0.9, 0.0]), 1e-9)
    assert not contains(infl, np.array([1.4, 0.0]), 1e-9)


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
    infl = inflate(A, 0.2)
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


def test_only_regions_with_user_code_say_so():
    implicit = Implicit(lambda x: True, AxisBox([0.0], [1.0]))
    plain = [AxisBox([0.0], [1.0]), Ball((0.0,), 1.0), EmptySet()]
    for r in plain:
        assert not r.runs_user_code
        assert not Complement(Inflated(Union([r, r]), 0.5)).runs_user_code
    assert implicit.runs_user_code
    assert Intersection([plain[0], Complement(implicit)]).runs_user_code
