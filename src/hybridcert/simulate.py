"""Fixed-step hybrid simulator with bisection event refinement.

Flows are integrated with classical RK4; set-membership events (jump-set
entry, flow-set exit, bounds exit) are located by bisecting the step until
the state-space bracket width drops below ``event_tol``.  Disturbances are
held constant across each accepted step, which keeps perturbed runs
reproducible from a single seed.

The step loop keeps the state as a list of Python floats from one
accepted step to the next.  _rk4_fns generates two functions per system
shape from one stage template: the stages and their combination are float
arithmetic, the same IEEE operations in the same order as the array form,
so the arcs keep its bits without its numpy temporaries on short vectors.
The flow stretch takes consecutive plain steps in one call, up to the
horizon, the first proposal that enters D, leaves C or leaves the bounds,
or the first final sample outside the watch, and stores the accepted
samples itself.  Its first stage f(x) + d of the step that ends it is
shared by every bisection probe of that step, a call of the step
function, which then costs three flow calls.

The shape is what the generator writes into both functions: the
expressions of a flow map compiled by expressions.vector_fn, the face
tests of an AxisBox, and the expression of an Implicit set whose
predicate came from expressions.predicate_fn (where no sdf widens it).
Every other flow map (see hybrid.HybridSystem) is called on each stage
state as a list, and every other set through its own membership test
(region.contains), which solve binds once per run; only the checks of x0
go through geometry.contains.  Membership reads the lists, and the
disturbance sampler returns lists.  The functions of one shape are
generated once and kept, up to a fixed number; a solve finds them by the
forms they write in, without writing their source again.

Arrays are built only where they are needed: at jumps, for an event
bisection's gap norm when it lies within rounding of event_tol, and once
per phase of the returned arc.
"""

import ast
import copy
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .expressions import CONSTANTS, FUNCTIONS, compiled_form
from .geometry import (
    AxisBox,
    Implicit,
    UnsupportedDistance,
    contains,
    dist_to_set,
    sample_region,
)
from .hybrid import (
    DimensionMismatch,
    Disturbance,
    HybridArc,
    HybridSystem,
    Termination,
    _phase_interp,
    as_vector,
)
from .report import CheckReport, Counterexample

_MAX_BISECT = 200


class BadInitialCondition(ValueError):
    """Initial state outside bounds, or outside both flow and jump sets."""


class HorizonTooShort(ValueError):
    """Arc does not reach the requested total time."""


@dataclass
class SimConfig:
    """Solver knobs.

    t_min (>= 0; 0 turns the rule off) is the smallest positive gap
    allowed between consecutive jumps; a shorter (but still positive) gap
    triggers the system's zeno_map when present and a ZenoAccumulation
    stop otherwise.  Zero-gap jump chains
    are left alone so purely discrete systems run normally.  Where the flow
    and jump sets overlap, the solver jumps.
    """

    h: float = 1e-3
    T_max: float = 10.0
    J_max: int = 1000
    event_tol: float = 1e-9
    disturbance: Disturbance = Disturbance()
    t_min: float = 1e-6

    def __post_init__(self):
        if not self.h > 0.0 or not 0.0 < self.T_max < math.inf:
            raise ValueError("h must be positive, T_max positive and finite")
        if not self.J_max >= 0:
            raise ValueError("J_max must be nonnegative")
        if not 0.0 < self.event_tol < self.h:
            raise ValueError("event_tol must lie in (0, h)")
        if not self.t_min >= 0.0:
            raise ValueError("t_min must be >= 0")


@dataclass
class SolveReport:
    """A solve's arc and totals.  stopped_by names the bound that ended a
    HORIZON_REACHED run, "T_max" or "J_max"; it is None for every other
    ending."""

    arc: HybridArc
    flow_time: float
    jump_count: int
    zeno_snapped: bool = False
    stopped_by: str | None = None

    @property
    def termination(self):
        return self.arc.termination


# what ends a stretch of plain steps (see _rk4_fns)
_HORIZON, _WATCH, _JUMP, _FLOW, _BOUNDS = range(5)

# at most this many generated kernels are kept, by the forms they write in
_KERNELS = 64
# the deepest expression tree written into a kernel: ast.unparse, deepcopy
# and the compiler recurse once or more per level, and an expression that
# expressions accepts may be nested some hundreds of levels deep
_DEPTH = 100


def _rk4_fns(dim, f, in_jump, in_flow, in_bounds):
    """The RK4 functions (step, stretch) on states of dim floats for the
    flow map f and the membership tests in_jump, in_flow and in_bounds
    (bound contains methods), generated from one stage template.

    step(f, x, k1, dt, d) is one classical RK4 step over dt from x with
    first stage k1 = f(x) + d: x + (dt/6) ((k1 + 2 k2) + 2 k3 + k4),
    formed with the IEEE operations of the array form in the same order, so
    with the same bits.  x, k1 and d are sequences of dim floats, f is a
    flow map, and it returns a fresh list.

    stretch(f, draw, t, x, j, t_end, h, tol, in_jump, in_flow, in_bounds,
    in_watch, times, states) takes solve's plain steps from (t, x), a state
    outside D and inside C: while t < t_end, a step over min(h, t_end - t)
    under d = draw(t, j), with the stages and the operations of step.  A
    proposal in D (in_jump at 0), outside C (in_flow at tol) or outside the
    bounds (in_bounds at 0) ends the stretch unaccepted; an accepted one is
    stored in the phase's lists times and states under solve's rules (fold
    a sample at the last time into the last one, else test the last
    sample, now final, against the watch before storing), and the stretch
    ends at the first final sample outside the watch (in_watch at 0, None
    for no watch).  It returns (fired, t, x, dt, d, k1, x_prop), (t, x)
    being the last state it accepted: fired is _HORIZON, _WATCH, or the
    set test (_JUMP, _FLOW, _BOUNDS) that x_prop, the proposal from (t, x)
    over dt under d with first stage k1, failed; dt, d, k1 and x_prop are
    None at _HORIZON and _WATCH.

    The source is written out entry by entry, so a step runs no Python
    loop, and the code of three forms is written into it (_generated,
    _written_test): a flow map compiled by expressions.vector_fn, an
    AxisBox's test and an Implicit's test by an expressions.predicate_fn
    predicate.  Any other map or test is called, through the f, in_jump,
    in_flow and in_bounds that step and stretch are given; every value of
    a called f is checked for its length before it is unpacked, and every
    list f gets is fresh.  Either way the same IEEE operations run in the
    same order, so the arc keeps its bits.  The functions are kept by dim
    and the forms they may write in (the map's CompiledForm, _test_key),
    _KERNELS at most: systems of one shape share them, and a kept kernel
    is found without writing its source.
    """
    form = compiled_form(f)
    return _generated(
        dim, form if form is not None and form.kind == "vector_fn" else None,
        _test_key(in_jump, False), _test_key(in_flow, True),
        _test_key(in_bounds, False))


def _test_key(member, at_tol):
    """What the kernel may write in for the bound membership test member,
    asked at the event tolerance (at_tol) or at 0: ("box", faces) for an
    AxisBox's own contains; ("pred", form) for an Implicit's own contains
    whose predicate is a function of predicate_fn itself, with the
    predicate's CompiledForm, where an sdf cannot widen the set (there is
    none, or the test is at 0); None for any other test."""
    region = getattr(member, "__self__", None)
    test = getattr(member, "__func__", None)
    if test is AxisBox.contains:
        return "box", region._faces
    if test is Implicit.contains and (region.sdf is None or not at_tol):
        form = compiled_form(region.pred)
        if form is not None and form.kind == "predicate_fn":
            return "pred", form
    return None


@functools.lru_cache(maxsize=_KERNELS)
def _generated(dim, form, jump, flow, bounds):
    """(step, stretch) of _rk4_fns on dim floats, for a flow map of form
    (a vector_fn's CompiledForm, or None) and set tests of the keys jump,
    flow and bounds (_test_key).  The map's code is written in where it
    has dim variables and dim entries, none nested too deeply (_shallow);
    otherwise f is called."""
    if form is not None and not (
            len(form.variables) == len(form.sources) == dim
            and _shallow(form)):
        form = None

    def rows(pattern):
        return [pattern.replace("#", str(i)) for i in range(dim)]

    def each(pattern):
        return ", ".join(rows(pattern))

    def stage(into, arg):
        # f at the list of arg plus d: into0, into1, ...
        if form is None:
            return [
                "y = f([%s])" % each(arg),
                "if len(y) != %d:" % dim,
                "    raise DimensionMismatch(%r %% len(y))"
                % ("flow map returned shape (%%d,), wanted (%d,)" % dim),
                "%s, = y" % each("y#"),
                *rows("%s# = y# + d#" % into),
            ]
        # the entries are all evaluated before any is converted, as in
        # the compiled map, which is called to raise its own error
        names = rows("x#" if arg == "x#" else "p#")
        values = _written(form, tuple(names))
        lines = [] if arg == "x#" else rows("p# = %s" % arg)
        return [
            *lines,
            "try:",
            *["    y%d = %s" % (i, v) for i, (v, _) in enumerate(values)],
            "except ArithmeticError:",
            "    f([%s])" % ", ".join(names),
            "    raise",
            *["%s%d = %s + d%d" % (into, i, "y%d" % i if is_float
                                   else "float(y%d)" % i, i)
              for i, (_, is_float) in enumerate(values)],
        ]

    def ends(fired, key, name, tol, hit):
        # the stretch ends with fired where name(x_prop, tol) is hit
        return [
            *_written_test(key, name, tol, dim),
            "if %shit:" % ("" if hit else "not "),
            "    return %s, t, x, dt, d, [%s], x_prop" % (fired, each("a#")),
        ]

    # k2, k3 and k4 from x#, a# (k1) and d# over dt
    stages = [
        "half = 0.5 * dt",
        *stage("b", "x# + half * a#"),
        *stage("c", "x# + half * b#"),
        *stage("e", "x# + dt * c#"),
        "w = dt / 6.0",
    ]
    sum_ = "(((a# + 2.0 * b#) + 2.0 * c#) + e#) * w + x#"

    def block(depth, lines):
        return ["    " * depth + line for line in lines]

    lines = [
        "def step(f, x, k1, dt, d):",
        *block(1, [
            "%s, = x" % each("x#"),
            "%s, = k1" % each("a#"),
            "%s, = d" % each("d#"),
            *stages,
            "return [%s]" % each(sum_),
        ]),
        "def stretch(f, draw, t, x, j, t_end, h, tol, in_jump, in_flow,"
        " in_bounds, in_watch, times, states):",
        *block(1, [
            "%s, = x" % each("x#"),
            "while t < t_end:",
            *block(1, [
                "dt = min(h, t_end - t)",
                "d = draw(t, j)",
                "%s, = d" % each("d#"),
                *stage("a", "x#"),
                *stages,
                *rows("n# = " + sum_),
                "x_prop = [%s]" % each("n#"),
                *ends("JUMP", jump, "in_jump", "0.0", True),
                *ends("FLOW", flow, "in_flow", "tol", False),
                *ends("BOUNDS", bounds, "in_bounds", "0.0", False),
                "t += dt",
                # solve's rule: fold, or test the last sample, now final,
                # against the watch before storing
                "if t <= times[-1]:",
                "    states[-1] = x_prop",
                "elif in_watch is None or in_watch(states[-1], 0.0):",
                "    times.append(t)",
                "    states.append(x_prop)",
                "else:",
                "    return WATCH, t, x_prop, None, None, None, None",
                "x = x_prop",
                *rows("x# = n#"),
            ]),
            "return HORIZON, t, x, None, None, None, None",
        ]),
    ]
    scope = {
        **FUNCTIONS, **CONSTANTS,
        "DimensionMismatch": DimensionMismatch,
        "HORIZON": _HORIZON, "WATCH": _WATCH,
        "JUMP": _JUMP, "FLOW": _FLOW, "BOUNDS": _BOUNDS,
    }
    exec(compile("\n".join(lines), "<rk4 kernel>", "exec"), scope)
    return scope["step"], scope["stretch"]


def _written_test(key, name, tol, dim):
    """Lines that set hit to name(x_prop, tol), for the test of key (see
    _test_key); the proposal's entries are n0, n1, ...

    An AxisBox's test of dim faces is written in as its branches: every
    face screens, True; a face beyond tol, False; otherwise (a borderline
    or NaN coordinate) the call.  An Implicit's test by a predicate of dim
    variables, not nested too deeply (_shallow), is the predicate's truth;
    an ArithmeticError calls the test, so that the predicate raises its
    own ExpressionError.  Any other test is called.  tol is text: "0.0",
    or "tol" for the stretch's event tolerance.
    """
    call = "%s(x_prop, %s)" % (name, tol)
    written, of = key or (None, None)
    if written == "box" and len(of) == dim:
        faces = [(i, "(%r)" % lo, "(%r)" % hi) for i, lo, hi in of]
        screen = " and ".join("%s <= n%d <= %s" % (lo, i, hi)
                              for i, lo, hi in faces)
        beyond = " or ".join("%s - n%d > %s or n%d - %s > %s"
                             % (lo, i, tol, i, hi, tol)
                             for i, lo, hi in faces)
        return ["hit = %s or not (%s) and %s" % (screen, beyond, call)]
    if written == "pred" and len(of.variables) == dim and _shallow(of):
        (value, _), = _written(of, tuple("n%d" % i for i in range(dim)))
        return ["try:", "    hit = " + value,
                "except ArithmeticError:", "    " + call, "    raise"]
    return ["hit = " + call]


def _shallow(form):
    """Whether no tree of form is deeper than _DEPTH levels."""
    level = list(form.bodies)
    for _ in range(_DEPTH):
        level = [c for node in level for c in ast.iter_child_nodes(node)]
        if not level:
            return True
    return False


class _Rename(ast.NodeTransformer):
    """Gives each variable of an expression its name in the kernel."""

    def __init__(self, names):
        self.names = names

    def visit_Name(self, node):
        if node.id in self.names:
            return ast.copy_location(ast.Name(self.names[node.id]), node)
        return node


def _floating(node, variables):
    """Whether node's value is a float wherever it has one, the variables
    being floats: float() of it is the value itself and may be left out."""
    if isinstance(node, ast.Constant):
        return type(node.value) is float
    if isinstance(node, ast.Name):
        return node.id in variables or node.id in CONSTANTS
    if isinstance(node, ast.UnaryOp):
        return (isinstance(node.op, (ast.UAdd, ast.USub))
                and _floating(node.operand, variables))
    if isinstance(node, ast.BinOp):
        # a power of a negative base may be complex
        return (not isinstance(node.op, ast.Pow)
                and _floating(node.left, variables)
                and _floating(node.right, variables))
    return False


def _written(form, names):
    """Per source of form: (its validated tree as source text, the
    variables renamed to names in the tree, and whether its value is a
    float as it is, see _floating)."""
    rename = _Rename(dict(zip(form.variables, names)))
    return tuple(
        ("(%s)" % ast.unparse(rename.visit(copy.deepcopy(body))),
         _floating(body, form.variables))
        for body in form.bodies
    )


def _gap_norm(a, b):
    """|a - b| as np.linalg.norm computes it, bit for bit."""
    gap = np.subtract(a, b)
    return math.sqrt(gap.dot(gap))


def _tol_band(event_tol, dim):
    """(below, above) around event_tol for gap norms from math.dist.

    math.dist is within an ulp of the exact norm, and _gap_norm within
    about (dim / 2 + 1) ulps, its dot product summing dim nonnegative
    squares in its own order: the two differ by far less than the band of
    (dim + 4) * 2**-50 relative.  So a norm at most `below` is within
    event_tol by _gap_norm too, and one above `above` is beyond it.  That
    holds while the squares near event_tol**2 neither underflow nor
    overflow; outside that range every norm falls in the band.
    """
    if not 1e-140 < event_tol < 1e140:
        return -1.0, math.inf
    band = (dim + 4) * 2.0**-50
    return event_tol * (1.0 - band), event_tol * (1.0 + band)


def _bisect_event(f, step, x0, k1, dt, d, pred, x_full, event_tol):
    """Shrink [0, dt] around the first parameter where pred flips true.

    pred(x0) must be False and pred(x_full) True; x0 is a list of floats,
    k1 the step's first stage there and step the RK4 step of _rk4_fns.
    Returns (theta_in, x_in, theta_out, x_out) with |x_out - x_in| <=
    event_tol; both states are lists from a single RK4 substep off x0.
    The width is decided on floats, and by _gap_norm only inside the band
    of _tol_band (or for a NaN), so every break is np.linalg.norm's.
    """
    below, above = _tol_band(event_tol, len(x0))
    lo, x_lo = 0.0, x0
    hi, x_hi = dt, x_full
    for _ in range(_MAX_BISECT):
        gap = math.dist(x_hi, x_lo)
        if gap <= below or (not gap > above
                            and _gap_norm(x_hi, x_lo) <= event_tol):
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        x_mid = step(f, x0, k1, mid, d)
        if pred(x_mid):
            hi, x_hi = mid, x_mid
        else:
            lo, x_lo = mid, x_mid
    return lo, x_lo, hi, x_hi


def solve(system: HybridSystem, x0, config: SimConfig,
          watch=None) -> SolveReport:
    """Integrate one maximal solution from x0 under the stop rules in config.

    A step ends at its first event, in this order: D entry, C exit, bounds
    exit, which bisection brackets between x_in and x_out.  A D entry lands
    on x_out, and a bounds exit too, ending the run in ESCAPED_BOUNDS.  A C
    exit lands on x_in if that is in D, else on x_out if that is in D, else
    on x_in, ending the run in LEFT_FLOW_AND_JUMP_SETS.  D landings jump.

    With a watch region the run also ends at the first stored sample outside
    it, without bisection, as LEFT_WATCH_REGION: the arc is then the prefix
    of the unwatched arc up to and including that sample.  A sample is
    tested once final, when a later sample or a jump follows it; the
    sample or jump that made it final is not stored.
    """
    x0 = as_vector(x0)
    if x0.shape != (system.dim,):
        raise BadInitialCondition(
            "x0 has shape %s, system expects (%d,)" % (x0.shape, system.dim)
        )
    if not np.all(np.isfinite(x0)):
        raise BadInitialCondition("x0 is not finite")
    flow_set, jump_set, bounds = system.flow_set, system.jump_set, system.bounds
    if not contains(bounds, x0, 0.0):
        raise BadInitialCondition("x0 outside simulation bounds")
    tol = config.event_tol
    if not (contains(flow_set, x0, tol) or contains(jump_set, x0, 0.0)):
        raise BadInitialCondition("x0 outside both flow and jump sets")

    f = system.flow_map
    draw = config.disturbance.start(system.dim, system.delta)
    # each set's own membership test, bound once for the whole run
    in_flow, in_jump = flow_set.contains, jump_set.contains
    in_bounds = bounds.contains
    step, stretch = _rk4_fns(system.dim, f, in_jump, in_flow, in_bounds)
    # the watch's own membership test, or None
    in_watch = None if watch is None else watch.contains
    x = x0.tolist()
    # the phase being built, which the stretch appends to, keeps its states
    # as given; it becomes two arrays when it is closed
    phases, times, states = [], [0.0], [x]
    t, j = 0.0, 0
    zeno_snapped = False
    last_jump_t = -math.inf  # no gap before the first jump is short
    termination = stopped_by = None

    while termination is None:
        if t >= config.T_max:
            termination, stopped_by = Termination.HORIZON_REACHED, "T_max"
            break
        if in_jump(x, 0.0):
            if j >= config.J_max:
                termination = Termination.HORIZON_REACHED
                stopped_by = "J_max"
                break
            snap = 0.0 < t - last_jump_t < config.t_min
            if snap and system.zeno_map is None:
                termination = Termination.ZENO_ACCUMULATION
                break
            if in_watch is not None and not in_watch(states[-1], 0.0):
                termination = Termination.LEFT_WATCH_REGION
                break
            if snap:
                # a copy: no map holds the solver's own state
                x_plus = np.array(system.zeno_map(list(x)), dtype=float,
                                  ndmin=1)
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
            x = x_plus.tolist()
            phases.append((np.array(times), np.array(states, dtype=float)))
            times, states = [t], [x]
            j += 1
            last_jump_t = t
            continue
        if not in_flow(x, tol):
            termination = Termination.LEFT_FLOW_AND_JUMP_SETS
            break

        # plain steps up to the first proposal that fails a set test
        fired, t, x, dt, d, k1, x_prop = stretch(
            f, draw, t, x, j, config.T_max, config.h, tol, in_jump, in_flow,
            in_bounds, in_watch, times, states,
        )
        # pred is True past the event; stop is the run's end at it
        if fired == _JUMP:
            pred = lambda y: in_jump(y, 0.0)
            stop = None
        elif fired == _FLOW:
            pred = lambda y: not in_flow(y, tol)
            stop = Termination.LEFT_FLOW_AND_JUMP_SETS
        elif fired == _BOUNDS:
            pred = lambda y: not in_bounds(y, 0.0)
            stop = Termination.ESCAPED_BOUNDS
        elif fired == _WATCH:
            termination = Termination.LEFT_WATCH_REGION
            break
        else:
            termination, stopped_by = Termination.HORIZON_REACHED, "T_max"
            break

        th_in, x_in, th_out, x_out = _bisect_event(
            f, step, x, k1, dt, d, pred, x_prop, tol
        )
        if stop is not Termination.LEFT_FLOW_AND_JUMP_SETS:
            th, x = th_out, x_out
        elif in_jump(x_in, 0.0):
            th, x, stop = th_in, x_in, None
        elif in_jump(x_out, 0.0):
            th, x, stop = th_out, x_out, None
        else:
            th, x = th_in, x_in
        t += th
        if t <= times[-1]:
            # the landing is within float resolution of the last sample:
            # fold it in rather than storing a dead segment
            states[-1] = x
        elif in_watch is None or in_watch(states[-1], 0.0):
            times.append(t)
            states.append(x)
        else:
            stop = Termination.LEFT_WATCH_REGION
        termination = stop

    phases.append((np.array(times), np.array(states, dtype=float)))
    arc = HybridArc(phases, termination=termination)
    flow_time = sum(times[-1] - times[0] for times, _ in arc.phases)
    return SolveReport(
        arc=arc, flow_time=flow_time, jump_count=j, zeno_snapped=zeno_snapped,
        stopped_by=stopped_by,
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


def _segment_dist2(x, a, b):
    """Squared distance from x to each segment [a[r], b[r]] (x one point or
    one point per segment).  Row r's value depends on row r's inputs alone."""
    ab = b - a
    denom = np.vecdot(ab, ab)
    # projection onto each segment, clipped to it; 0 on zero-length ones
    s = np.divide(np.vecdot(x - a, ab), denom, out=np.zeros_like(denom),
                  where=denom != 0.0)
    np.clip(s, 0.0, 1.0, out=s)
    gap = x - (a + s[:, None] * ab)
    return np.vecdot(gap, gap)


def _window_dist(x, times, states, s0, s1):
    """Min distance from x to the polyline restricted to times in [s0, s1],
    or None when the window misses [times[0], times[-1]].

    The window's vertices are its ends, the states HybridArc.eval gives
    there, and the stored samples strictly inside (s0, s1); all its
    segments are measured in one pass, with np.vecdot's row products.  At
    s0 == s1 the window is one point, a segment of length 0.
    """
    s0 = max(s0, times[0])
    s1 = min(s1, times[-1])
    if s0 > s1:
        return None
    i0 = np.searchsorted(times, s0, side="right")
    i1 = np.searchsorted(times, s1, side="left")
    pts = np.vstack([_phase_interp(times, states, s0), states[i0:i1],
                     _phase_interp(times, states, s1)])
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
    state.  The polyline HybridArc.eval reads, exact at each stored sample,
    stands in for the unstored continuum.
    Each sample first tries the other arc's segment at its own time, in one
    array pass per phase; only samples that fail it scan their whole
    window, at O(samples in the window) array work each.  Needs tau >= 0
    and eps > 0.
    """
    if not tau >= 0.0:
        raise ValueError("tau must be >= 0")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
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
    if not T > 0.0:
        raise ValueError("T must be positive")
    if arc.max_total_time() < T:
        raise HorizonTooShort(
            "arc spans total time %.6g < %.6g" % (arc.max_total_time(), T)
        )
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
    """Empirical Lipschitz constant of fn over an axis box via random pairs;
    NaN if a pair's ratio is NaN."""
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
        if ratio != ratio:
            return ratio  # a NaN wins, as a violation does
        best = max(best, ratio)
    return best


def companion_radius_bound(delta, tau, lip_flow, lip_jump, delta_prime=0.0):
    """Largest initial offset r with a guaranteed delta-inflated companion:
    r <= (delta - delta') / max(1, 1/tau + L_C, 1 + L_D)."""
    if not (math.isfinite(delta) and math.isfinite(delta_prime)
            and delta > delta_prime):
        raise ValueError("need finite delta > delta_prime")
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    if not (lip_flow >= 0.0 and lip_jump >= 0.0):
        raise ValueError("Lipschitz constants must be >= 0")
    scale = max(1.0, 1.0 / tau + lip_flow, 1.0 + lip_jump)
    return (delta - delta_prime) / scale


def verify_solution(system, arc, slope_tol=1e-3, t_min=None):
    """Check an arc against a system's data: membership, slopes, jumps.

    (a) every flow sample lies in the flow set or the jump set within 1e-9,
    (b) each stored segment's chord slope matches the flow map at the
        segment midpoint state within delta + slope_tol,
    (c) each jump departs from the jump set and lands within
        delta + slope_tol of some jump-map candidate, or of zeno_map(x_minus)
        where the solver's Zeno rule fires: the system has a zeno_map and
        0 < t_jump - t_prev_jump < t_min, t_min being the solve's
        (stats["zeno_snaps"] counts these jumps; none without t_min).

    A phase is checked in row form: one contains_many per set on its
    samples, one flow_many on its segments' midpoints.  The departures are
    one contains_many; each landing takes one jump_candidates call.
    Counterexamples come phase by phase (flow-membership, then flow-slope,
    each in sample order), then jump by jump (departure, then landing).
    A NaN slope or landing margin is a violation.
    """
    delta = system.delta
    # set inflation lives in flow_set/jump_set themselves (see perturb);
    # delta only widens the slack on map mismatches here
    set_tol = 1e-9
    slack = delta + slope_tol
    ces = []
    n_samples = 0
    n_segments = 0

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
            margin = _membership_margin(system.flow_set, states[k], set_tol)
            ces.append(Counterexample("flow-membership", states[k], margin,
                                      (j, float(times[k]))))
        dt = times[1:] - times[:-1]
        seg = np.flatnonzero(dt > 1e-12)
        n_segments += seg.size
        if not seg.size:
            continue
        a, b = states[seg], states[seg + 1]
        mid = 0.5 * (a + b)
        # the chord of one RK4 step deviates from f at the midpoint by
        # O(dt^2) plus whatever constant disturbance acted on the step
        err = (b - a) / dt[seg][:, None] - system.flow_many(mid)
        # sqrt of the row's dot product: np.linalg.norm of it, bit for bit
        margin = np.sqrt(np.vecdot(err, err)) - slack
        for k in np.flatnonzero(~(margin <= 0.0)).tolist():
            ces.append(Counterexample("flow-slope", mid[k], float(margin[k]),
                                      (j, float(times[seg[k]]))))

    pre = np.array([states[-1] for _, states in arc.phases[:-1]],
                   dtype=float).reshape(-1, arc.dim)
    departs = system.jump_set.contains_many(pre, set_tol)
    snaps = system.zeno_map is not None and t_min is not None
    n_snaps = 0
    t_prev = -math.inf  # as in solve: no gap before the first jump is short
    for j, x_minus in enumerate(pre):
        t_jump = float(arc.phases[j][0][-1])
        if not departs[j]:
            margin = _membership_margin(system.jump_set, x_minus, set_tol)
            ces.append(Counterexample("jump-departure", x_minus, margin,
                                      (j, t_jump)))
        targets = system.jump_candidates(x_minus)
        if snaps and 0.0 < t_jump - t_prev < t_min:
            targets.append(as_vector(system.zeno_map(x_minus.tolist())))
            n_snaps += 1
        t_prev = t_jump
        x_plus = arc.phases[j + 1][1][0]
        # np.min, unlike min, lets a NaN gap win
        gap = float(np.min([np.linalg.norm(x_plus - g) for g in targets]))
        if not gap - slack <= 0.0:
            ces.append(Counterexample("jump-landing", x_plus, gap - slack,
                                      (j + 1, t_jump)))

    return CheckReport.judge(ces, {
        "samples": n_samples,
        "segments": n_segments,
        "jumps": arc.num_phases - 1,
        "zeno_snaps": n_snaps,
        "delta": delta,
        "slope_tol": slope_tol,
    })


def _membership_margin(region, x, tol):
    """dist(x, region) - tol, or inf when the region has no distance."""
    try:
        return dist_to_set(x, region) - tol
    except UnsupportedDistance:
        return float("inf")
