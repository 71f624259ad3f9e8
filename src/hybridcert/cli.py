"""Command line front end: scenario files in, reports and CSV out.

A scenario is one YAML document.  The system comes either from a built-in
study by name or from an inline declaration whose maps and predicates are
expression strings (see expressions.py); exactly one of the two.  A
command computes its files and a single summary line without touching
either; main then writes the files (atomically, temp + rename), prints the
line on stdout, and reports a failure, like each log record, as one JSON
object per stderr line.  Exit codes: 0 pass/done, 1 fail/counterexample,
2 bad initial condition, 3 inconclusive, 4 usage, scenario or file error.
"""

import argparse
import collections
import csv
import dataclasses
import json
import logging
import math
import os
import sys
import warnings

import numpy as np
import yaml

from . import examples as ex
from .certificates import (
    DEFAULT_TOL,
    CertificatePair,
    GridSpec,
    ScalarField,
    check_pair_VB,
    check_single_V,
    falsify,
)
from .expressions import predicate_fn, quote, scalar_fn, vector_fn
from .geometry import (
    AxisBox,
    Ball,
    Implicit,
    Inflated,
    Intersection,
    Union,
    make_proper_indicator,
)
from .hybrid import (
    arc_to_csv, arc_to_json_obj, make_system, perturb, write_phase_rows,
)
from .monitor import (
    RASSpec,
    StabSafeSpec,
    check_forward_invariance,
    check_ras,
    check_stability_safety,
)
from .report import Verdict, _jsonable
from .simulate import BadInitialCondition, SimConfig, solve

# one table for check verdicts and falsify results; simulate and example
# pass once they have a result
VERDICT_EXIT = {Verdict.PASS: 0, Verdict.FAIL: 1, Verdict.INCONCLUSIVE: 3}
EXIT_BAD_INIT = 2
EXIT_ERROR = 4

# what a rejected command line or scenario raises: exit 4, except for a
# BadInitialCondition (a ValueError), which exits 2
INPUT_ERRORS = (ValueError, TypeError, LookupError, AttributeError,
                ArithmeticError, RuntimeError, OSError, MemoryError,
                yaml.YAMLError)

# Caps on the work a scenario may ask for, far above what the studies, the
# README and the benchmark use (the shipped 100 s Moore-Greitzer loop is
# 1e5 steps).  A scenario past one is rejected as it is parsed, before
# anything is allocated or run.
MAX_STARTS = 100_000  # solves of a check: starts times disturbance draws
MAX_BUDGET = 1_000_000  # margin evaluations of falsify
MAX_GRID_POINTS = 1_000_000
MAX_STEPS = 1_000_000  # RK4 steps of one solve, t_max / h
MAX_JUMPS = 100_000  # jumps of one solve, decisions of the MG loop

CHECK_MODES = ("ras", "stability-safety", "single-v", "pair-vb", "invariance")
RANDOM_MODES = ("ras", "stability-safety", "invariance")


class ScenarioError(ValueError):
    """Scenario file is missing, ambiguous, or inconsistent."""


class UsageError(ValueError):
    """The command line does not parse."""


# ---------------------------------------------------------------- scenario
#
# SECTIONS lists every key a scenario may hold: each kind of mapping (a set
# or spec kind, "bbox", a section, or "scenario", the document itself)
# maps its keys to their defaults.  params takes the fields of the study's
# params dataclass instead.  _section reads a mapping by its entry, so a
# misspelt key is rejected rather than leaving its default in force.

REQUIRED = object()  # the default of a key that must be given

SECTIONS = {
    "scenario": {"system": REQUIRED, "delta": 0.0, "spec": None,
                 "certificates": None, "sim": None, "check": None,
                 "params": None},
    "system": {"variables": REQUIRED, "flow_map": REQUIRED,
               "flow_set": REQUIRED, "jump_map": REQUIRED,
               "jump_set": REQUIRED, "bounds": None},
    "axis_box": {"kind": REQUIRED, "lo": REQUIRED, "hi": REQUIRED},
    "ball": {"kind": REQUIRED, "center": REQUIRED, "radius": REQUIRED},
    "implicit": {"kind": REQUIRED, "predicate": REQUIRED, "bbox": REQUIRED},
    "inflated": {"kind": REQUIRED, "of": REQUIRED, "r": REQUIRED},
    "union": {"kind": REQUIRED, "of": REQUIRED},
    "intersection": {"kind": REQUIRED, "of": REQUIRED},
    "bbox": {"lo": REQUIRED, "hi": REQUIRED},
    "ras": {"kind": "ras", "x0": REQUIRED, "unsafe": REQUIRED,
            "target": REQUIRED, "t_spec": REQUIRED},
    "stability-safety": {"kind": REQUIRED, "x0": REQUIRED,
                         "unsafe": REQUIRED, "attractor": REQUIRED,
                         "eps_levels": StabSafeSpec.eps_levels},
    "certificates": {"V": REQUIRED, "B": None, "region": None,
                     "attractor": None},
    # t_max None: the study's t_spec, SimConfig.T_max for an inline system
    "sim": {"h": SimConfig.h, "t_max": None, "j_max": 400,
            "event_tol": SimConfig.event_tol},
    "check": {"grid": None, "budget": 2000, "n_init": 16, "n_dist": 3,
              "seed": None, "tol": DEFAULT_TOL, "invariant": None},
    "check.grid": {"lo": REQUIRED, "hi": REQUIRED, "counts": REQUIRED},
}
SET_KINDS = ("axis_box", "ball", "implicit", "inflated", "union",
             "intersection")
SPEC_KINDS = ("ras", "stability-safety")


def _section(node, name, keys=None):
    """The mapping node read as SECTIONS[name] (or keys): a dict of every
    key, with its default where node does not give it.  An unknown or a
    missing required key is a ScenarioError; None reads as an empty
    mapping, and any other node that is not a mapping raises
    AttributeError."""
    keys = SECTIONS[name] if keys is None else keys
    node = {} if node is None else node
    unknown = node.keys() - keys
    if unknown:
        raise ScenarioError("unknown keys %s in %s"
                            % (quote(sorted(map(str, unknown))), name))
    read = {key: node.get(key, default) for key, default in keys.items()}
    missing = [key for key, value in read.items() if value is REQUIRED]
    if missing:
        raise ScenarioError("missing keys %s in %s" % (quote(missing), name))
    return read


def _count(value, key):
    """value as an int, or a ScenarioError naming key when it is not a
    whole number >= 0; int() comes first, so an infinity still raises
    OverflowError and a NaN ValueError."""
    count = int(value)
    if not (count == value and count >= 0):
        raise ScenarioError("%s must be a whole number >= 0, not %s"
                            % (key, quote(value)))
    return count


def _capped(value, cap, what):
    """value, or a ScenarioError naming what when value is not at most cap
    (a NaN is not)."""
    if not value <= cap:
        raise ScenarioError("%s asks for %s, above the cap of %d"
                            % (what, quote(value), cap))
    return value


def _grid(lo, hi, counts, what):
    """GridSpec(lo, hi, counts), capped at MAX_GRID_POINTS points."""
    grid = GridSpec(lo, hi, counts)
    _capped(math.prod(grid.counts), MAX_GRID_POINTS, what + " (grid points)")
    return grid


def parse_set(node, variables=None):
    """Build a SetRegion from a {kind: ...} mapping."""
    kind = node.get("kind") if isinstance(node, dict) else None
    if kind not in SET_KINDS:
        raise ScenarioError("set needs a mapping with a 'kind' of %s: %s"
                            % (", ".join(SET_KINDS), quote(node)))
    s = _section(node, kind)
    if kind == "axis_box":
        return AxisBox(s["lo"], s["hi"])
    if kind == "ball":
        return Ball(s["center"], float(s["radius"]))
    if kind == "implicit":
        if not variables:
            raise ScenarioError("implicit sets need system variables")
        bbox = _section(s["bbox"], "bbox")
        return Implicit(predicate_fn(s["predicate"], variables),
                        AxisBox(bbox["lo"], bbox["hi"]))
    if kind == "inflated":
        return Inflated(parse_set(s["of"], variables), float(s["r"]))
    members = [parse_set(m, variables) for m in s["of"]]
    return Union(members) if kind == "union" else Intersection(members)


def _parse_spec(node, variables):
    kind = node.get("kind", "ras")
    if kind not in SPEC_KINDS:
        raise ScenarioError("unknown spec kind %s" % quote(kind))
    s = _section(node, kind)
    try:
        x0 = list(np.atleast_2d(np.asarray(s["x0"], dtype=float)))
    except (TypeError, ValueError):
        raise ScenarioError("spec.x0 must be a point or a list of points of"
                            " one length, with numbers for entries: %s"
                            % quote(s["x0"])) from None
    unsafe = parse_set(s["unsafe"], variables)
    if kind == "ras":
        return RASSpec(x0, unsafe, parse_set(s["target"], variables),
                       float(s["t_spec"]))
    return StabSafeSpec(x0, unsafe, parse_set(s["attractor"], variables),
                        tuple(float(e) for e in s["eps_levels"]))


def _row_fn(source, variables):
    """The compiled expression as a row form: its value at each row."""
    fn = scalar_fn(source, variables)
    return lambda X: [fn(x) for x in X.tolist()]


def _parse_certificates(node, variables, example, default):
    if node is None:
        return default
    if isinstance(node, str):
        if node != example:
            raise ScenarioError(
                "certificate name %s is not the scenario's system"
                % quote(node)
            )
        return default
    if not variables:
        raise ScenarioError("expression certificates need system variables")
    c = _section(node, "certificates")
    V = ScalarField(_row_fn(c["V"], variables))
    B = (None if c["B"] is None
         else ScalarField(_row_fn(c["B"], variables)))
    region = (None if c["region"] is None
              else parse_set(c["region"], variables))
    omega = None
    if c["attractor"] is not None:
        if region is None:
            raise ScenarioError("certificates.attractor needs"
                                " certificates.region, the domain of its"
                                " proper indicator")
        omega = make_proper_indicator(parse_set(c["attractor"], variables),
                                      region)
    return CertificatePair(V=V, B=B, omega=omega, region=region)


def _parse_sim(node, t_default):
    s = _section(node, "sim")
    h = float(s["h"])
    t_max = float(t_default if s["t_max"] is None else s["t_max"])
    _capped(t_max / h if h else math.inf, MAX_STEPS,
            "sim.t_max / sim.h (steps)")
    j_max = _capped(_count(s["j_max"], "sim.j_max"), MAX_JUMPS, "sim.j_max")
    return SimConfig(h=h, T_max=t_max, J_max=j_max,
                     event_tol=float(s["event_tol"]))


def _parse_check(node, variables):
    ck = _section(node, "check")
    if ck["grid"] is not None:
        g = _section(ck["grid"], "check.grid")
        ck["grid"] = _grid(g["lo"], g["hi"], g["counts"], "check.grid.counts")
    for key in ("n_init", "n_dist", "budget"):
        ck[key] = _count(ck[key], "check." + key)
    if ck["seed"] is not None:
        ck["seed"] = _count(ck["seed"], "check.seed")
    # n_init alone sets the starts of the checks that draw no disturbances
    _capped(ck["n_init"] * max(ck["n_dist"], 1), MAX_STARTS,
            "check.n_init x check.n_dist (starts)")
    _capped(ck["budget"], MAX_BUDGET, "check.budget")
    ck["tol"] = float(ck["tol"])
    if ck["invariant"] is not None:
        ck["invariant"] = parse_set(ck["invariant"], variables)
    return ck


@dataclasses.dataclass
class Scenario:
    system: object
    delta: float
    spec: object
    cert: object
    sim: SimConfig
    check: dict
    example: str = None
    params: object = None


def parse_scenario(doc):
    top = _section(doc, "scenario")
    sys_node = top["system"]
    variables = None
    example = None
    params = None
    cert0 = spec0 = None
    t_default = SimConfig.T_max

    if isinstance(sys_node, str):
        example = sys_node
        if example == "bouncing-ball":
            params = _apply_params(ex.BouncingBallParams(), top["params"])
            system, cert0, spec0 = ex.bouncing_ball(params)
            dim = system.dim
        elif example == "moore-greitzer":
            params = _apply_params(ex.MooreGreitzerParams(), top["params"])
            plant, cert0, spec0, _ = ex.moore_greitzer(params)
            system = None  # closed loop is assembled at run time
            dim = plant.dim_x
        else:
            raise ScenarioError("unknown system name %s" % quote(sys_node))
        t_default = spec0.t_spec
    elif isinstance(sys_node, dict):
        if "params" in doc:
            raise ScenarioError("'params' tune a built-in study; an inline"
                                " system has none")
        s = _section(sys_node, "system")
        variables = tuple(s["variables"])
        dim = len(variables)
        jump_vec = vector_fn(s["jump_map"], variables)
        bounds = (parse_set(s["bounds"], variables) if s["bounds"]
                  else AxisBox([-1e9] * dim, [1e9] * dim))
        system = make_system(
            dim=dim,
            flow_set=parse_set(s["flow_set"], variables),
            flow_map=vector_fn(s["flow_map"], variables),
            jump_set=parse_set(s["jump_set"], variables),
            jump_map=lambda x: [jump_vec(x)],
            bounds=bounds,
        )
    else:
        raise ScenarioError("'system' must be a name or an inline mapping")

    spec = spec0
    if top["spec"] is not None:
        spec = _parse_spec(top["spec"], variables)
        for x in spec.x0:
            if x.shape != (dim,):
                raise ScenarioError("spec.x0 row has shape %s, system "
                                    "expects (%d,)" % (x.shape, dim))
    cert = _parse_certificates(top["certificates"], variables, example, cert0)
    sim = _parse_sim(top["sim"], t_default)
    if example == "moore-greitzer":
        # the loop sets its own j_max, one decision per period, and runs at
        # the default event_tol; a given one would be ignored
        for key in ("j_max", "event_tol"):
            if key in (top["sim"] or {}):
                raise ScenarioError("the moore-greitzer loop sets its own"
                                    " sim.%s" % key)
        _capped(sim.T_max / params.period, MAX_JUMPS,
                "sim.t_max / params.period (decisions)")
    check = _parse_check(top["check"], variables)
    if spec is not None:
        _capped(len(spec.x0) * check["n_dist"], MAX_STARTS,
                "spec.x0 rows x check.n_dist (starts)")
    return Scenario(
        system=system,
        delta=float(top["delta"]),
        spec=spec,
        cert=cert,
        sim=sim,
        check=check,
        example=example,
        params=params,
    )


def _apply_params(params, node):
    """params with the fields that node gives replaced, a list given for a
    tuple field as a tuple."""
    if not node:
        return params
    fields = {f.name: getattr(params, f.name)
              for f in dataclasses.fields(params)}
    _section(node, "params", fields)
    return dataclasses.replace(params, **{
        key: tuple(val) if isinstance(fields[key], tuple) else val
        for key, val in node.items()})


def load_scenario(path, overrides=(), seed=None):
    """The scenario of the YAML file at path (see scenario_from)."""
    # bytes, so that yaml decodes them and rejects what is not text
    with open(path, "rb") as fh:
        doc = yaml.safe_load(fh)
    return scenario_from(doc, overrides, seed)


def scenario_from(doc, overrides=(), seed=None):
    """Parse a scenario document once its overrides are applied, and then
    the seed as the override check.seed=N."""
    if seed is not None:
        overrides = [*overrides, "check.seed=%d" % seed]
    return parse_scenario(apply_overrides(doc, overrides))


def apply_overrides(doc, pairs):
    """Apply repeatable key=value flags; keys are dotted paths into the
    document, values are parsed as YAML scalars."""
    for pair in pairs:
        if "=" not in pair:
            raise ScenarioError(
                "override needs key=value, got %s" % quote(pair)
            )
        key, _, value = pair.partition("=")
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            # a null section reads as an empty one, as the parser reads it
            if node.get(part) is None:
                node[part] = {}
            node = node[part]
            if not isinstance(node, dict):
                raise ScenarioError("cannot override through %s" % quote(part))
        node[parts[-1]] = yaml.safe_load(value)
    return doc


# ---------------------------------------------------------------- output

def _atomic_write(path, write_fn):
    tmp = "%s.tmp%d" % (path, os.getpid())
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_json(path, obj):
    def _write(tmp):
        with open(tmp, "w") as fh:
            fh.write(json.dumps(obj, indent=1, allow_nan=False) + "\n")

    _atomic_write(path, _write)


def write_csv_rows(path, table):
    """Write a (header, rows) pair as CSV."""
    header, rows = table

    def _write(tmp):
        with open(tmp, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)

    _atomic_write(path, _write)


def _write_arc_csv(path, arc):
    _atomic_write(path, lambda tmp: arc_to_csv(arc, tmp))


def _solve_report_obj(report):
    t_end, j_end, x_end = report.arc.last()
    return {
        "termination": report.termination.value,
        "flow_time": report.flow_time,
        "jump_count": report.jump_count,
        "zeno_snapped": report.zeno_snapped,
        "stopped_by": report.stopped_by,
        "final_time": [t_end, j_end],
        "final_state": [float(v) for v in x_end],
    }


def _require_seed(scenario, what):
    seed = scenario.check["seed"]
    if seed is None:
        raise ScenarioError("%s samples randomly; set --seed or check.seed"
                            % what)
    return seed


def _perturbed(scenario):
    if scenario.system is None:
        raise ScenarioError(
            "the moore-greitzer study is closed-loop only; use"
            " 'example moore-greitzer' or command 'simulate'"
        )
    # perturb rejects a delta that is negative or not a number
    if scenario.delta != 0.0:
        return perturb(scenario.system, scenario.delta)
    return scenario.system


def _grid_or_default(scenario, bbox=None):
    grid = scenario.check["grid"]
    if grid is not None:
        return grid
    if bbox is None:
        bbox = scenario.system.bounds.bounding_box()
    if bbox is None:
        raise ScenarioError("no check.grid and system bounds are unbounded")
    return _grid(bbox.lo, bbox.hi, 21,
                 "the default check.grid of 21 points per axis")


def _solve_scenario(scenario):
    """The scenario's one run, as (solve report, decision log, plant dim).

    For moore-greitzer that is the sample-and-hold loop from its
    equilibrium: its states carry the held input and the timer after the
    first dim coordinates.  Otherwise the perturbed system is solved from
    spec.x0[0] and the decision log is None.
    """
    if scenario.example == "moore-greitzer":
        if scenario.delta != 0.0:
            raise ScenarioError(
                "the moore-greitzer loop runs without disturbances;"
                " delta must be 0"
            )
        report, decisions, _, plant, _ = ex.mg_closed_loop(
            scenario.params, horizon=scenario.sim.T_max, h=scenario.sim.h
        )
        return report, decisions, plant.dim_x
    if scenario.spec is None:
        raise ScenarioError("simulate needs spec.x0")
    x0 = np.asarray(scenario.spec.x0[0], dtype=float)
    system = _perturbed(scenario)
    return solve(system, x0, scenario.sim), None, system.dim


# ---------------------------------------------------------------- commands
#
# Each command maps a scenario, the --mode and the --out path (named in its
# summary only) to (files, summary line, verdict) and does no I/O: files
# are (name, writer, content) entries in the order main writes them.

def cmd_simulate(scenario, mode, out_dir):
    report, _, _ = _solve_scenario(scenario)
    obj = _solve_report_obj(report)
    files = [
        ("arc.csv", _write_arc_csv, report.arc),
        ("arc.json", write_json, arc_to_json_obj(report.arc)),
        ("report.json", write_json, obj),
    ]
    summary = "simulate: %s T=%.6g J=%d -> %s" % (
        obj["termination"], obj["flow_time"], obj["jump_count"], out_dir
    )
    return files, summary, Verdict.PASS


def _pair_spec(scenario):
    if isinstance(scenario.spec, StabSafeSpec):
        return scenario.spec
    if scenario.example == "bouncing-ball":
        return StabSafeSpec(
            x0=scenario.spec.x0,
            unsafe=scenario.spec.unsafe,
            attractor=ex.ball_attractor(),
        )
    raise ScenarioError("pair-vb needs a stability-safety spec")


def cmd_check(scenario, mode, out_dir):
    if mode not in CHECK_MODES:
        raise ScenarioError(
            "check mode must be one of %s" % ", ".join(CHECK_MODES)
        )
    ck = scenario.check
    if mode in RANDOM_MODES:
        seed = _require_seed(scenario, "check mode %r" % mode)
    sysd = _perturbed(scenario)

    if mode == "ras":
        if not isinstance(scenario.spec, RASSpec):
            raise ScenarioError("ras check needs a ras spec")
        rpt = check_ras(sysd, scenario.spec, ck["n_dist"], scenario.sim,
                        seed=seed)
    elif mode == "stability-safety":
        if not isinstance(scenario.spec, StabSafeSpec):
            raise ScenarioError("stability-safety check needs that spec kind")
        rpt = check_stability_safety(
            sysd, scenario.spec, ck["n_init"], scenario.sim, seed=seed
        )
    elif mode == "single-v":
        if scenario.cert is None:
            raise ScenarioError("single-v needs certificates")
        rpt = check_single_V(
            sysd, scenario.cert, _grid_or_default(scenario), tol=ck["tol"]
        )
    elif mode == "pair-vb":
        if scenario.cert is None:
            raise ScenarioError("pair-vb needs certificates")
        rpt = check_pair_VB(
            sysd, scenario.cert, _pair_spec(scenario),
            _grid_or_default(scenario), tol=ck["tol"],
        )
    else:  # invariance
        K = ck["invariant"]
        if K is None:
            K = getattr(scenario.spec, "target", None)
        if K is None:
            raise ScenarioError("invariance needs check.invariant or a target")
        rpt = check_forward_invariance(
            sysd, K, ck["n_init"], scenario.sim, seed=seed
        )

    obj = rpt.to_json_obj()
    obj["mode"] = mode
    summary = "check[%s]: %s" % (mode, rpt.verdict.value)
    return [("check_report.json", write_json, obj)], summary, rpt.verdict


def cmd_falsify(scenario, condition_id, out_dir):
    if not condition_id:
        raise ScenarioError("falsify needs --mode <condition id>")
    seed = _require_seed(scenario, "falsify")
    sysd = _perturbed(scenario)
    if scenario.cert is None:
        raise ScenarioError("falsify needs certificates")
    grid = scenario.check["grid"]
    region = (
        AxisBox(grid.lo, grid.hi) if grid is not None else scenario.system.bounds
    )
    found = falsify(
        sysd, scenario.cert, condition_id, region,
        scenario.check["budget"], seed=seed, spec=scenario.spec,
    )
    obj = {"condition": condition_id, "found": found is not None}
    if found is not None:
        point, margin = found
        obj["counterexample"] = {"x": [float(v) for v in point],
                                 "margin": _jsonable(margin)}
    summary = "falsify[%s]: %s" % (
        condition_id, "counterexample" if obj["found"] else "none"
    )
    verdict = Verdict.FAIL if obj["found"] else Verdict.PASS
    return [("falsify.json", write_json, obj)], summary, verdict


def _barrier_series(arc, cert, dim):
    """(times, V, B) per phase, V and B evaluated once per phase on its
    plant states, all before any file is written."""
    return [
        (times, cert.V.value_many(states[:, :dim]),
         cert.B.value_many(states[:, :dim]))
        for times, states in arc.phases
    ]


def _write_barrier_series(path, series):
    def _write(tmp):
        with open(tmp, "w", newline="") as fh:
            fh.write("j,t,V,B\r\n")
            for j, (times, V, B) in enumerate(series):
                write_phase_rows(fh, j, times.tolist(),
                                 [V.tolist(), B.tolist()])

    _atomic_write(path, _write)


def _control_rows(arc, decisions):
    # decision k is taken at the jump into phase k+1
    rows = []
    for k, dec in enumerate(decisions):
        t_k = float(arc.phases[k + 1][0][0]) if k + 1 < len(arc.phases) \
            else arc.last()[0]
        rows.append(
            [k, k + 1, repr(t_k), dec["level"], repr(dec["sigma"]),
             repr(float(dec["u"][0])), repr(float(dec["u"][1])),
             repr(dec["margin_V"]), repr(dec["margin_B"])]
        )
    return rows


def cmd_example(scenario, mode, out_dir):
    """A built-in study: its simulate run plus what the study adds, the
    ball's V/B pair check on its operating box or the loop's decisions."""
    report, decisions, dim = _solve_scenario(scenario)
    arc = report.arc
    obj = {"study": scenario.example, "simulate": _solve_report_obj(report)}
    files = [
        ("arc.csv", _write_arc_csv, arc),
        ("barrier_series.csv", _write_barrier_series,
         _barrier_series(arc, scenario.cert, dim)),
    ]
    if decisions is None:
        grid = _grid_or_default(scenario, ex.ball_operating_box())
        check = check_pair_VB(
            _perturbed(scenario), scenario.cert, _pair_spec(scenario), grid,
            tol=scenario.check["tol"], exclude_radius=0.05,
        )
        obj["check_pair_vb"] = check.to_json_obj()
        result = "pair check %s" % check.verdict.value
    else:
        zeta = np.asarray(scenario.params.zeta, dtype=float)
        x_end = arc.last()[2][:dim]
        levels = collections.Counter(dec["level"] for dec in decisions)
        unsafe = scenario.spec.unsafe
        in_unsafe = sum(
            int(np.count_nonzero(unsafe.contains_many(states[:, :dim], 0.0)))
            for _, states in arc.phases
        )
        obj["final_plant_state"] = [float(v) for v in x_end]
        obj["distance_to_equilibrium"] = float(np.linalg.norm(x_end - zeta))
        obj["decision_levels"] = {str(k): v for k, v in sorted(levels.items())}
        obj["samples_in_unsafe"] = int(in_unsafe)
        result = "final distance %.4g" % obj["distance_to_equilibrium"]
        files.append(
            ("controls.csv", write_csv_rows,
             (["k", "j", "t", "level", "sigma", "v", "gamma",
               "margin_V", "margin_B"], _control_rows(arc, decisions)))
        )
    files.append(("report.json", write_json, obj))
    summary = "example[%s]: %s, %s -> %s" % (
        scenario.example, obj["simulate"]["termination"], result, out_dir
    )
    return files, summary, Verdict.PASS


# ---------------------------------------------------------------- dispatch

COMMANDS = {"simulate": cmd_simulate, "check": cmd_check,
            "falsify": cmd_falsify, "example": cmd_example}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    p = _Parser(
        prog="hybridcert",
        description="Simulate hybrid systems and check their certificates.",
    )
    p.add_argument("command", choices=tuple(COMMANDS))
    p.add_argument("name", nargs="?", help="study name of the example command")
    p.add_argument("--scenario", help="path to a scenario YAML file")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--mode",
        help="check mode (%s) or falsify condition id" % ", ".join(CHECK_MODES),
    )
    p.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE",
        help="scenario override, dotted path (repeatable)",
    )
    return p


def _load(args):
    """`example NAME` is the document {system: NAME}; the other commands
    read theirs from --scenario.  The one a command does not read is an
    error, not ignored, and so is --mode for a command without modes."""
    if args.mode is not None and args.command in ("example", "simulate"):
        raise UsageError("%s takes no --mode" % args.command)
    if args.command == "example":
        if args.scenario is not None:
            raise UsageError("example takes a study name, not --scenario")
        if not args.name:
            raise ScenarioError("example needs a study name")
        return scenario_from({"system": args.name}, args.override, args.seed)
    if args.name is not None:
        raise UsageError("%s takes --scenario, not a study name"
                         % args.command)
    if not args.scenario:
        raise ScenarioError("%s needs --scenario" % args.command)
    return load_scenario(args.scenario, args.override, args.seed)


def _bounded(message):
    """message cut so that its JSON stays under 800 bytes: messages can
    quote input (float() of a string does), and JSON escapes a character
    in up to 12 bytes, so a stderr line stays under 1 kB."""
    message = message[:500]
    while len(json.dumps(message, allow_nan=False)) > 800:
        message = message[:len(message) // 2]
    return message


class _JsonRecord(logging.Formatter):
    """A log record as one JSON object on one line."""

    def format(self, record):
        return json.dumps({"level": record.levelname, "logger": record.name,
                           "message": _bounded(record.getMessage())},
                          allow_nan=False)


def _warning_record(message, category, filename, lineno, file=None,
                    line=None):
    """warnings.showwarning that logs the warning instead of printing it
    with its source line."""
    logging.getLogger("py.warnings").warning(
        "%s:%d: %s: %s", os.path.basename(filename), lineno,
        category.__name__, message,
    )


def main(argv=None):
    """Run one command and return its exit code.  Log records, and Python
    warnings as log records, reach stderr as JSON lines while it runs; the
    handler and warnings.showwarning are put back at the end, so that
    repeated in-process calls do not stack handlers."""
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_JsonRecord())
    logging.getLogger().addHandler(handler)
    showwarning = warnings.showwarning
    warnings.showwarning = _warning_record
    try:
        return _run(argv)
    finally:
        warnings.showwarning = showwarning
        logging.getLogger().removeHandler(handler)


def _run(argv):
    """The only place that writes files, prints, and turns the outcome or
    a rejected input into the exit code."""
    try:
        args = build_parser().parse_args(argv)
        scenario = _load(args)
        files, summary, verdict = COMMANDS[args.command](
            scenario, args.mode, args.out
        )
        os.makedirs(args.out, exist_ok=True)
        for name, writer, content in files:
            writer(os.path.join(args.out, name), content)
    except INPUT_ERRORS as exc:
        payload = {"error": type(exc).__name__, "message": _bounded(str(exc))}
        print(json.dumps(payload, allow_nan=False), file=sys.stderr)
        if isinstance(exc, BadInitialCondition):
            return EXIT_BAD_INIT
        return EXIT_ERROR
    print(summary)
    return VERDICT_EXIT[verdict]


if __name__ == "__main__":
    sys.exit(main())
