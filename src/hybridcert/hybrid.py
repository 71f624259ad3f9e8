"""Core hybrid-systems data model.

A hybrid time domain is a union of intervals [t_j, t_{j+1}] x {j}; a hybrid
arc samples a solution on such a domain, one phase of continuous flow per
jump index. Systems pair a flow set/map with a jump set/map plus the
perturbation level delta realized through bounded disturbances.
"""

import csv
import json
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .geometry import Inflated, SetRegion, _norm, as_rows, as_vector, contains

# how far outside a phase's times HybridArc.eval clamps instead of raising
EVAL_SLACK = 1e-12


class DimensionMismatch(ValueError):
    """A map or set disagrees with the declared state dimension."""


class OutOfDomain(LookupError):
    """Hybrid time (t, j) outside the arc's domain."""


class Termination(Enum):
    HORIZON_REACHED = "HorizonReached"
    LEFT_FLOW_AND_JUMP_SETS = "LeftFlowAndJumpSets"
    ESCAPED_BOUNDS = "EscapedBounds"
    ZENO_ACCUMULATION = "ZenoAccumulation"
    # only runs under a watch region end so (see simulate.solve)
    LEFT_WATCH_REGION = "LeftWatchRegion"


class HybridArc:
    """Sampled hybrid arc: per jump index j an ordered list of (t, x) samples.

    phases: list of (times, states) with times shape (m,), states (m, dim).
    The time domain is the union of [t_0, t_last] x {j} over the phases;
    validate() checks that it starts at t = 0 and that each jump keeps its
    t (phase j starts at phase j-1's last time).
    """

    def __init__(self, phases, termination):
        if not phases:
            raise ValueError("arc needs at least one phase")
        self.phases = [
            (np.asarray(t, dtype=float), np.atleast_2d(np.asarray(x, dtype=float)))
            for t, x in phases
        ]
        self.termination = termination
        self.validate()

    @property
    def dim(self):
        return self.phases[0][1].shape[1]

    @property
    def num_phases(self):
        return len(self.phases)

    def validate(self):
        dim = self.dim
        t_prev = 0.0
        for j, (t, x) in enumerate(self.phases):
            if t.ndim != 1 or t.size == 0 or x.shape != (t.size, dim):
                raise ValueError(f"phase {j}: malformed sample arrays")
            if t.size > 1 and not np.all(np.diff(t) > 0):
                raise ValueError(f"phase {j}: times not strictly increasing")
            if t[0] != t_prev:
                raise ValueError(
                    f"phase {j} starts at t={t[0]}, not at {t_prev}"
                )
            t_prev = t[-1]
            if not np.all(np.isfinite(x)):
                raise ValueError(f"phase {j}: non-finite state")
        return True

    def samples(self):
        """Yield (j, t, x) over all stored samples in domain order."""
        for j, (t, x) in enumerate(self.phases):
            for k in range(t.size):
                yield j, float(t[k]), x[k]

    def last(self):
        """(t, j, x) of the final stored sample."""
        j = len(self.phases) - 1
        t, x = self.phases[j]
        return float(t[-1]), j, x[-1]

    def max_total_time(self):
        t, j, _ = self.last()
        return t + j

    def eval(self, t, j):
        """_phase_interp within phase j; raises OutOfDomain outside."""
        if not 0 <= j < len(self.phases):
            raise OutOfDomain(f"no phase {j}")
        times, states = self.phases[j]
        if not (times[0] - EVAL_SLACK <= t <= times[-1] + EVAL_SLACK):
            raise OutOfDomain(f"t={t} outside phase {j} interval")
        return _phase_interp(times, states, t)


def _phase_interp(times, states, t):
    """The state at time t, clamped to [times[0], times[-1]], on the
    polyline through one phase's samples: (1 - w) a + w b between the
    samples a and b around t, so exactly the stored sample at each sample
    time.  HybridArc.eval and closeness both read the arc through it."""
    if times.size == 1:
        return states[0].copy()
    t = min(max(t, times[0]), times[-1])
    k = int(np.searchsorted(times, t, side="right") - 1)
    k = min(max(k, 0), times.size - 2)
    # validate() keeps times strictly increasing, so t1 - t0 > 0
    t0, t1 = times[k], times[k + 1]
    w = (t - t0) / (t1 - t0)
    return (1.0 - w) * states[k] + w * states[k + 1]


@dataclass
class HybridSystem:
    """H = (C, F, D, G) with perturbation level delta.

    Every map gets the state one way: as a list of dim Python floats (a
    map written in array arithmetic wraps its argument with np.asarray).
    flow_map is the nominal single-valued selection of F and returns a
    sequence of dim floats; set-valuedness is realized through
    disturbances of norm <= delta.  jump_map returns a nonempty list of
    candidate successors.  zeno_map, when present, replaces a jump whose
    gap from the previous jump is below the solver's t_min (the
    example-specific Zeno completion).  flow and jump_candidates are the
    entry points for a state array or list.  flow_map_rows, when present,
    is the row form of flow_map: it maps an (n, dim) array to the (n, dim)
    flow values, equal bit for bit to flow row by row.
    """

    dim: int
    flow_set: SetRegion
    flow_map: object
    jump_set: SetRegion
    jump_map: object
    bounds: SetRegion
    delta: float = 0.0
    zeno_map: object = None
    flow_map_rows: object = None

    def flow(self, x):
        """flow_map at the state array x, as a float64 array."""
        fx = np.array(self.flow_map(as_vector(x).tolist()), dtype=float)
        if fx.shape != (self.dim,):
            raise DimensionMismatch(
                "flow map returned shape %s, wanted (%d,)" % (fx.shape, self.dim)
            )
        return fx

    def flow_many(self, X):
        """[self.flow(x) for x in X] as an (n, dim) array: the row form,
        or else a loop over the rows."""
        X = as_rows(X)
        if self.flow_map_rows is not None:
            return np.asarray(self.flow_map_rows(X), dtype=float)
        return np.array([self.flow(x) for x in X],
                        dtype=float).reshape(X.shape)

    def jump_candidates(self, x):
        """jump_map at the state x, its candidates as float64 arrays."""
        return [as_vector(c) for c in self.jump_map(as_vector(x).tolist())]


def make_system(dim, flow_set, flow_map, jump_set, jump_map, bounds):
    """Construct an unperturbed system, probing the maps for dimension sanity."""
    if dim < 1:
        raise DimensionMismatch("dim must be >= 1")
    sys = HybridSystem(
        dim=int(dim),
        flow_set=flow_set,
        flow_map=flow_map,
        jump_set=jump_set,
        jump_map=jump_map,
        bounds=bounds,
        delta=0.0,
    )
    sys.flow(_probe_point(bounds, dim))
    jp = _probe_point(jump_set, dim)
    if jp is not None and contains(jump_set, jp, 0.0):
        cands = sys.jump_candidates(jp)
        if not cands:
            raise DimensionMismatch("jump map returned no candidate on the jump set")
        g0 = cands[0]
        if g0.shape != (dim,):
            raise DimensionMismatch(
                f"jump map returned shape {g0.shape}, wanted ({dim},)"
            )
    return sys


def _probe_point(region, dim):
    bb = region.bounding_box() if region is not None else None
    if bb is None:
        return np.zeros(dim)
    mid = (bb.lo + bb.hi) / 2.0
    mid = np.where(np.isfinite(mid), mid, 0.0)
    if mid.shape != (dim,):
        raise DimensionMismatch(
            f"set bounding box has dimension {mid.size}, wanted {dim}"
        )
    return mid


def perturb(sys, delta):
    """H_delta: flow/jump sets inflated by delta, every other field
    unchanged.

    The inflation of the map values is realized by the disturbance at solve
    time. Always call on the nominal system; applying twice compounds the
    set inflation.
    """
    if not 0.0 <= delta < np.inf:
        raise ValueError("delta must be >= 0 and finite")
    return replace(sys, flow_set=Inflated(sys.flow_set, delta),
                   jump_set=Inflated(sys.jump_set, delta), delta=float(delta))


@dataclass(frozen=True)
class Disturbance:
    """Realized perturbation d with |d| <= delta at every evaluation.

    With a seed: random, uniform in the delta-ball (one fresh generator
    per solve call).  With a signal: the fixed signal (t, j) -> vector,
    its values norm-clamped to delta (a non-finite value is a ValueError).
    With neither: none.
    """

    seed: object = None
    signal: object = None

    def __post_init__(self):
        if self.seed is not None and self.signal is not None:
            raise ValueError("a disturbance is random or fixed, not both")

    def reseed(self, seed):
        """A random disturbance with a different seed, any other one
        itself (used by batch fan-out)."""
        if self.seed is None:
            return self
        return Disturbance(seed=seed)

    def start(self, dim, delta):
        """Per-solve sampler closure: (t, j) -> disturbance vector, as a
        list of dim floats."""
        if self.signal is not None:

            def clamp(t, j):
                v = as_vector(self.signal(t, j))
                if v.shape != (dim,):
                    raise DimensionMismatch(
                        f"disturbance signal returned shape {v.shape}, "
                        f"wanted ({dim},)"
                    )
                if not np.isfinite(v).all():
                    raise ValueError(
                        "disturbance signal returned a non-finite value "
                        f"at (t, j) = ({t!r}, {j!r})"
                    )
                n = _norm(v)
                if n > delta:
                    v = v * (delta / n) if delta > 0 else np.zeros(dim)
                return v.tolist()

            return clamp
        if self.seed is None or delta == 0.0:
            zero = [0.0] * dim
            return lambda t, j: zero
        rng = np.random.default_rng(self.seed)

        def draw(t, j):
            v = rng.standard_normal(dim)
            n = np.linalg.norm(v)
            if n == 0.0:
                return [0.0] * dim
            radius = delta * rng.uniform() ** (1.0 / dim)
            return (v * (radius / n)).tolist()

        return draw


# ---------------------------------------------------------------------------
# Arc serialization: CSV rows (j, t, x_1..x_n) with a termination footer,
# JSON mirror carrying the domain intervals. See csv_schema.md.

def write_phase_rows(fh, j, times, columns):
    """Write the CSV rows (j, t, c_1, ...) of phase j with one fh.write.

    times is a list of floats; each column is a list of floats or, when
    every value in the phase has the same bits, one float. The bytes are
    csv.writer's: a float is written as its repr (inf, -inf and nan too),
    which never needs quoting, and each row ends in \\r\\n. The phase gets
    one format string, with a constant column's repr written into it.
    """
    parts = ["%d" % j, "%r"]
    varying = [times]
    for c in columns:
        if isinstance(c, float):
            parts.append(repr(c))
        else:
            parts.append("%r")
            varying.append(c)
    fmt = ",".join(parts) + "\r\n"
    fh.write("".join(map(fmt.__mod__, zip(*varying))))


def arc_to_csv(arc, path):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["j", "t"] + [f"x_{k + 1}" for k in range(arc.dim)])
                 + "\r\n")
        # a column whose values in a phase all have the same bits (a
        # sample-and-hold loop's held inputs) is written as one float;
        # comparing bits, not values, keeps the reprs of 0.0 and -0.0 apart
        for j, (times, states) in enumerate(arc.phases):
            bits = states.view(np.uint64)
            constant = (bits == bits[0]).all(axis=0).tolist()
            columns = [
                v if same else states[:, k].tolist()
                for k, (same, v) in enumerate(zip(constant, states[0].tolist()))
            ]
            write_phase_rows(fh, j, times.tolist(), columns)
        fh.write("termination,%s\r\n" % arc.termination.value)


def arc_from_csv(path):
    phases = {}
    termination = None
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if header[:2] != ["j", "t"]:
            raise ValueError("not an arc CSV")
        for row in r:
            if not row:
                continue
            if row[0] == "termination":
                termination = Termination(row[1])
                continue
            j = int(row[0])
            phases.setdefault(j, []).append(
                (float(row[1]), [float(v) for v in row[2:]])
            )
    if termination is None:
        raise ValueError("arc CSV missing termination footer")
    _check_jump_indices(sorted(phases))
    ordered = []
    for j in sorted(phases):
        ts = [t for t, _ in phases[j]]
        xs = [x for _, x in phases[j]]
        ordered.append((np.array(ts), np.array(xs)))
    return HybridArc(ordered, termination)


def _check_jump_indices(js):
    """Raise ValueError unless the phases' jump indices js, in phase
    order, are 0, 1, 2, ...; it names the first index missing."""
    for k, j in enumerate(js):
        if j != k:
            raise ValueError("arc has no phase j = %d" % k)


def arc_to_json_obj(arc):
    return {
        "domain": [[float(t[0]), float(t[-1])] for t, _ in arc.phases],
        "phases": [
            {"j": j, "t": t.tolist(), "x": x.tolist()}
            for j, (t, x) in enumerate(arc.phases)
        ],
        "termination": arc.termination.value,
    }


def arc_from_json_obj(obj):
    _check_jump_indices([p["j"] for p in obj["phases"]])
    phases = [(np.array(p["t"]), np.array(p["x"])) for p in obj["phases"]]
    return HybridArc(phases, Termination(obj["termination"]))


def arc_from_json(path):
    with open(path) as fh:
        return arc_from_json_obj(json.load(fh))
