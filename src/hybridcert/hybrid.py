"""Core hybrid-systems data model.

A hybrid time domain is a union of intervals [t_j, t_{j+1}] x {j}; a hybrid
arc samples a solution on such a domain, one phase of continuous flow per
jump index. Systems pair a flow set/map with a jump set/map plus the
perturbation level delta realized through bounded disturbances.
"""

import csv
import json
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

import numpy as np

from .geometry import SetRegion, as_rows, as_vector, contains, inflate

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
        """Linear interpolation within phase j; raises OutOfDomain outside."""
        if not 0 <= j < len(self.phases):
            raise OutOfDomain(f"no phase {j}")
        times, states = self.phases[j]
        if not (times[0] - EVAL_SLACK <= t <= times[-1] + EVAL_SLACK):
            raise OutOfDomain(f"t={t} outside phase {j} interval")
        if times.size == 1:
            return states[0].copy()
        t = min(max(t, times[0]), times[-1])
        k = int(np.searchsorted(times, t, side="right") - 1)
        k = min(max(k, 0), times.size - 2)
        t0, t1 = times[k], times[k + 1]
        if t1 == t0:
            return states[k].copy()
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * states[k] + w * states[k + 1]


@dataclass
class HybridSystem:
    """H = (C, F, D, G) with perturbation level delta.

    flow_map is the nominal single-valued selection of F; set-valuedness is
    realized through disturbances of norm <= delta.  The checks call
    flow_map with the state as a 1-D float64 array and read its value as
    one.  A flow map may also carry a list form as its ``floats``
    attribute (see from_floats): the same map from a list of dim Python
    floats to a sequence of dim floats, with the same bits.  The solver
    then calls that form with its stage states as lists, and calls
    flow_map itself otherwise.  jump_map returns a nonempty list of
    candidate successors.  zeno_map, when present, replaces a jump whose
    gap from the previous jump is below the solver's t_min (the
    example-specific Zeno completion).  flow_map_rows, when present, is
    the row form of flow_map: it maps an (n, dim) array to the (n, dim)
    flow values, equal bit for bit to flow_map row by row.
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
        return as_vector(self.flow_map(x))

    def flow_many(self, X):
        """[self.flow(x) for x in X] as an (n, dim) array: the row form,
        or else a loop over the rows."""
        X = as_rows(X)
        if self.flow_map_rows is not None:
            return np.asarray(self.flow_map_rows(X), dtype=float)
        return np.array([self.flow(x) for x in X],
                        dtype=float).reshape(X.shape)

    def jump_candidates(self, x):
        cands = self.jump_map(x)
        return [as_vector(c) for c in cands]


def from_floats(floats):
    """The flow map whose list form is floats, for HybridSystem.flow_map.

    floats maps a state, a list of Python floats, to its value, a sequence
    of floats.  The returned map takes a state array and returns that
    value as a float64 array, and carries floats as its ``floats``
    attribute.  A map that wraps or replaces it has no such attribute, so
    the solver calls the wrapper on arrays; functools.wraps would copy the
    attribute onto the wrapper, which the solver would then bypass.
    """

    def flow_map(x):
        return np.array(floats(as_vector(x).tolist()), dtype=float)

    flow_map.floats = floats
    return flow_map


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
    probe = _probe_point(bounds, dim)
    fx = as_vector(flow_map(probe))
    if fx.shape != (dim,):
        raise DimensionMismatch(f"flow map returned shape {fx.shape}, wanted ({dim},)")
    jp = _probe_point(jump_set, dim)
    if jp is not None and contains(jump_set, jp, 0.0):
        cands = jump_map(jp)
        if not cands:
            raise DimensionMismatch("jump map returned no candidate on the jump set")
        g0 = as_vector(cands[0])
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
    """H_delta: flow/jump sets inflated by delta, maps (and the row form
    of the flow map) unchanged.

    The inflation of the map values is realized by the disturbance at solve
    time. Always call on the nominal system; applying twice compounds the
    set inflation.
    """
    if not 0.0 <= delta < np.inf:
        raise ValueError("delta must be >= 0 and finite")
    return HybridSystem(
        dim=sys.dim,
        flow_set=inflate(sys.flow_set, delta),
        jump_set=inflate(sys.jump_set, delta),
        flow_map=sys.flow_map,
        jump_map=sys.jump_map,
        bounds=sys.bounds,
        delta=float(delta),
        zeno_map=sys.zeno_map,
        flow_map_rows=sys.flow_map_rows,
    )


class Disturbance:
    """Realized perturbation d with |d| <= delta at every evaluation.

    modes: none, random uniform in the delta-ball (seeded, one fresh
    generator per solve call), or a fixed signal (t, j) -> vector whose
    values are norm-clamped to delta.
    """

    NONE = "none"
    RANDOM = "random-uniform-ball"
    FIXED = "fixed"

    def __init__(self, mode=NONE, seed=None, signal=None):
        self.mode = mode
        self.seed = seed
        self.signal = signal
        if mode == self.RANDOM and seed is None:
            raise ValueError("random disturbance needs a seed")
        if mode == self.FIXED and signal is None:
            raise ValueError("fixed disturbance needs a signal")

    @classmethod
    def none(cls):
        return cls(cls.NONE)

    @classmethod
    def random_uniform_ball(cls, seed):
        return cls(cls.RANDOM, seed=seed)

    @classmethod
    def fixed(cls, signal):
        return cls(cls.FIXED, signal=signal)

    def reseed(self, seed):
        """Same mode with a different seed (used by batch fan-out)."""
        if self.mode != self.RANDOM:
            return self
        return Disturbance(self.RANDOM, seed=seed)

    def start(self, dim, delta):
        """Per-solve sampler closure: (t, j) -> disturbance vector."""
        if self.mode == self.NONE or delta == 0.0 and self.mode != self.FIXED:
            zero = np.zeros(dim)
            return lambda t, j: zero
        if self.mode == self.RANDOM:
            rng = np.random.default_rng(self.seed)

            def draw(t, j):
                v = rng.standard_normal(dim)
                n = np.linalg.norm(v)
                if n == 0.0:
                    return np.zeros(dim)
                radius = delta * rng.uniform() ** (1.0 / dim)
                return v * (radius / n)

            return draw
        if self.mode == self.FIXED:

            def clamp(t, j):
                v = as_vector(self.signal(t, j))
                if v.shape != (dim,):
                    raise DimensionMismatch(
                        f"disturbance signal returned shape {v.shape}, "
                        f"wanted ({dim},)"
                    )
                n = float(np.linalg.norm(v))
                if n > delta:
                    v = v * (delta / n) if delta > 0 else np.zeros(dim)
                return v

            return clamp
        raise ValueError(f"unknown disturbance mode {self.mode}")


# ---------------------------------------------------------------------------
# Arc serialization: CSV rows (j, t, x_1..x_n) with a termination footer,
# JSON mirror carrying the domain intervals. See csv_schema.md.

def arc_to_csv(arc, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["j", "t"] + [f"x_{k + 1}" for k in range(arc.dim)])
        # csv writes a float as its repr
        for j, (times, states) in enumerate(arc.phases):
            w.writerows(zip(repeat(j), times.tolist(), *states.T.tolist()))
        w.writerow(["termination", arc.termination.value])


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
    ordered = []
    for j in sorted(phases):
        ts = [t for t, _ in phases[j]]
        xs = [x for _, x in phases[j]]
        ordered.append((np.array(ts), np.array(xs)))
    return HybridArc(ordered, termination)


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
    phases = [(np.array(p["t"]), np.array(p["x"])) for p in obj["phases"]]
    return HybridArc(phases, Termination(obj["termination"]))


def arc_to_json(arc, path):
    with open(path, "w") as fh:
        json.dump(arc_to_json_obj(arc), fh, indent=1)


def arc_from_json(path):
    with open(path) as fh:
        return arc_from_json_obj(json.load(fh))
