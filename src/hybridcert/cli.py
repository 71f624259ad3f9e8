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
import os
import sys
import warnings
from itertools import repeat

import numpy as np
import yaml

from . import examples as ex
from .certificates import (
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
from .hybrid import arc_to_csv, arc_to_json_obj, make_system, perturb
from .monitor import (
    RASSpec,
    StabSafeSpec,
    check_forward_invariance,
    check_ras,
    check_stability_safety,
)
from .report import Verdict
from .simulate import BadInitialCondition, SimConfig, solve

# one table for check verdicts and falsify results; simulate and example
# pass once they have a result
VERDICT_EXIT = {Verdict.PASS: 0, Verdict.FAIL: 1, Verdict.INCONCLUSIVE: 3}
EXIT_BAD_INIT = 2
EXIT_ERROR = 4

# what a rejected command line or scenario raises: exit 4, except for a
# BadInitialCondition (a ValueError), which exits 2
INPUT_ERRORS = (ValueError, TypeError, LookupError, AttributeError,
                ArithmeticError, RuntimeError, OSError, yaml.YAMLError)

CHECK_MODES = ("ras", "stability-safety", "single-v", "pair-vb", "invariance")
RANDOM_MODES = ("ras", "stability-safety", "invariance")


class ScenarioError(ValueError):
    """Scenario file is missing, ambiguous, or inconsistent."""


class UsageError(ValueError):
    """The command line does not parse."""


# ---------------------------------------------------------------- scenario
#
# Each parser reads a fixed set of keys from its mapping and rejects any
# other: a misspelt key would otherwise leave its default in force.

SET_KEYS = {
    "axis_box": {"kind", "lo", "hi"},
    "ball": {"kind", "center", "radius"},
    "implicit": {"kind", "predicate", "bbox"},
    "inflated": {"kind", "of", "r"},
    "union": {"kind", "of"},
    "intersection": {"kind", "of"},
}
SPEC_KEYS = {
    "ras": {"kind", "x0", "unsafe", "target", "t_spec"},
    "stability-safety": {"kind", "x0", "unsafe", "attractor", "eps_levels"},
}


def _known_keys(node, keys, where):
    """Reject the keys of a mapping node that its parser does not read.  A
    node that is not a mapping is left to the parser's own error."""
    if isinstance(node, dict):
        unknown = set(node) - keys
        if unknown:
            raise ScenarioError("unknown keys %s in %s"
                                % (quote(sorted(map(str, unknown))), where))


def parse_set(node, variables=None):
    """Build a SetRegion from a {kind: ...} mapping."""
    if not isinstance(node, dict) or "kind" not in node:
        raise ScenarioError(
            "set needs a mapping with a 'kind' key: %s" % quote(node)
        )
    kind = node["kind"]
    if not isinstance(kind, str) or kind not in SET_KEYS:
        raise ScenarioError("unknown set kind %s" % quote(kind))
    _known_keys(node, SET_KEYS[kind], "a set of kind %s" % kind)
    if kind == "axis_box":
        return AxisBox(node["lo"], node["hi"])
    if kind == "ball":
        return Ball(node["center"], float(node["radius"]))
    if kind == "implicit":
        if not variables:
            raise ScenarioError("implicit sets need system variables")
        bbox = node.get("bbox")
        if bbox is None:
            raise ScenarioError("implicit sets need a bbox")
        _known_keys(bbox, {"lo", "hi"}, "bbox")
        return Implicit(
            predicate_fn(node["predicate"], variables),
            AxisBox(bbox["lo"], bbox["hi"]),
        )
    if kind == "inflated":
        return Inflated(parse_set(node["of"], variables), float(node["r"]))
    members = [parse_set(m, variables) for m in node["of"]]
    return Union(members) if kind == "union" else Intersection(members)


def _parse_points(node):
    return list(np.atleast_2d(np.asarray(node, dtype=float)))


def _parse_spec(node, variables=None):
    kind = node.get("kind", "ras")
    if isinstance(kind, str) and kind in SPEC_KEYS:
        _known_keys(node, SPEC_KEYS[kind], "a spec of kind %s" % kind)
    if kind == "ras":
        return RASSpec(
            x0=_parse_points(node["x0"]),
            unsafe=parse_set(node["unsafe"], variables),
            target=parse_set(node["target"], variables),
            t_spec=float(node["t_spec"]),
        )
    if kind == "stability-safety":
        spec = StabSafeSpec(
            x0=_parse_points(node["x0"]),
            unsafe=parse_set(node["unsafe"], variables),
            attractor=parse_set(node["attractor"], variables),
        )
        if "eps_levels" in node:
            spec = dataclasses.replace(
                spec, eps_levels=tuple(float(e) for e in node["eps_levels"])
            )
        return spec
    raise ScenarioError("unknown spec kind %s" % quote(kind))


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
    _known_keys(node, {"V", "B", "region", "attractor"}, "certificates")
    V = ScalarField(scalar_fn(node["V"], variables), name="V")
    B = None
    if node.get("B") is not None:
        B = ScalarField(scalar_fn(node["B"], variables), name="B")
    region = None
    if node.get("region") is not None:
        region = parse_set(node["region"], variables)
    omega = None
    attractor = node.get("attractor")
    if attractor is not None and region is not None:
        omega = make_proper_indicator(parse_set(attractor, variables), region)
    return CertificatePair(V=V, B=B, omega=omega, region=region)


def _parse_sim(node, t_default):
    node = node or {}
    _known_keys(node, {"h", "t_max", "j_max", "event_tol"}, "sim")
    return SimConfig(
        h=float(node.get("h", 1e-3)),
        T_max=float(node.get("t_max", t_default)),
        J_max=int(node.get("j_max", 400)),
        event_tol=float(node.get("event_tol", 1e-9)),
    )


def _parse_check(node):
    node = node or {}
    _known_keys(node, {"grid", "budget", "n_init", "n_dist", "seed", "tol",
                       "invariant"}, "check")
    grid = None
    if "grid" in node:
        g = node["grid"]
        _known_keys(g, {"lo", "hi", "counts"}, "check.grid")
        grid = GridSpec(g["lo"], g["hi"], g["counts"])
    return {
        "grid": grid,
        "budget": int(node.get("budget", 2000)),
        "n_init": int(node.get("n_init", 16)),
        "n_dist": int(node.get("n_dist", 3)),
        "seed": node.get("seed"),
        "tol": float(node.get("tol", 1e-7)),
        "invariant": node.get("invariant"),
    }


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
    variables: tuple = None


def parse_scenario(doc):
    if not isinstance(doc, dict) or "system" not in doc:
        raise ScenarioError("scenario needs a top-level 'system' entry")
    sys_node = doc["system"]
    keys = {"system", "delta", "spec", "certificates", "sim", "check"}
    # params tune a built-in study; an inline system has none
    if isinstance(sys_node, str):
        keys.add("params")
    _known_keys(doc, keys, "the scenario")
    variables = None
    example = None
    params = None
    cert0 = spec0 = None
    t_default = 10.0

    if isinstance(sys_node, str):
        example = sys_node
        if example == "bouncing-ball":
            params = _apply_params(ex.BouncingBallParams(), doc.get("params"))
            system, cert0, spec0 = ex.bouncing_ball(params)
            t_default = spec0.t_spec
        elif example == "moore-greitzer":
            params = _apply_params(ex.MooreGreitzerParams(), doc.get("params"))
            _, cert0, spec0, _ = ex.moore_greitzer(params)
            system = None  # closed loop is assembled at run time
            t_default = params.t_spec
        else:
            raise ScenarioError("unknown system name %s" % quote(sys_node))
    elif isinstance(sys_node, dict):
        if "variables" not in sys_node:
            raise ScenarioError("inline system needs 'variables'")
        _known_keys(sys_node, {"variables", "flow_map", "flow_set",
                               "jump_map", "jump_set", "bounds"}, "system")
        variables = tuple(sys_node["variables"])
        dim = len(variables)
        jump_vec = vector_fn(sys_node["jump_map"], variables)
        bounds_node = sys_node.get("bounds")
        bounds = (
            parse_set(bounds_node, variables)
            if bounds_node
            else AxisBox([-1e9] * dim, [1e9] * dim)
        )
        system = make_system(
            dim=dim,
            flow_set=parse_set(sys_node["flow_set"], variables),
            flow_map=vector_fn(sys_node["flow_map"], variables),
            jump_set=parse_set(sys_node["jump_set"], variables),
            jump_map=lambda x: [jump_vec(x)],
            bounds=bounds,
        )
    else:
        raise ScenarioError("'system' must be a name or an inline mapping")

    spec = spec0
    if doc.get("spec") is not None:
        spec = _parse_spec(doc["spec"], variables)
    cert = _parse_certificates(
        doc.get("certificates"), variables, example, cert0
    )
    sim = _parse_sim(doc.get("sim"), t_default)
    return Scenario(
        system=system,
        delta=float(doc.get("delta", 0.0)),
        spec=spec,
        cert=cert,
        sim=sim,
        check=_parse_check(doc.get("check")),
        example=example,
        params=params,
        variables=variables,
    )


def _apply_params(params, node):
    if not node:
        return params
    _known_keys(node, {f.name for f in dataclasses.fields(params)}, "params")
    coerced = {}
    for key, val in node.items():
        cur = getattr(params, key)
        coerced[key] = tuple(val) if isinstance(cur, tuple) else val
    return dataclasses.replace(params, **coerced)


def load_scenario(path, overrides=(), seed=None):
    """The scenario of the YAML file at path (see scenario_from)."""
    # bytes, so that yaml decodes them and rejects what is not text
    with open(path, "rb") as fh:
        doc = yaml.safe_load(fh)
    return scenario_from(doc, overrides, seed)


def scenario_from(doc, overrides=(), seed=None):
    """Parse a scenario document once its overrides and seed are applied."""
    doc = apply_overrides(doc, overrides)
    if seed is not None:
        doc.setdefault("check", {})["seed"] = int(seed)
    return parse_scenario(doc)


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
            node = node.setdefault(part, {})
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
            fh.write(json.dumps(obj, indent=1) + "\n")

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
    arc = report.arc
    t_end = arc.phases[-1][0][-1]
    x_end = arc.phases[-1][1][-1]
    return {
        "termination": report.termination.value,
        "flow_time": report.flow_time,
        "jump_count": report.jump_count,
        "zeno_snapped": report.zeno_snapped,
        "final_time": [float(t_end), len(arc.phases) - 1],
        "final_state": [float(v) for v in x_end],
    }


def _require_seed(scenario, what):
    seed = scenario.check.get("seed")
    if seed is None:
        raise ScenarioError("%s samples randomly; set --seed or check.seed"
                            % what)
    return int(seed)


def _perturbed(scenario):
    if scenario.system is None:
        raise ScenarioError(
            "the moore-greitzer study is closed-loop only; use"
            " 'example moore-greitzer' or command 'simulate'"
        )
    if scenario.delta > 0.0:
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
    return GridSpec(bbox.lo, bbox.hi, 21)


def _solve_scenario(scenario):
    """The scenario's one run, as (solve report, decision log, plant dim).

    For moore-greitzer that is the sample-and-hold loop from its
    equilibrium: its states carry the held input and the timer after the
    first dim coordinates.  Otherwise the perturbed system is solved from
    spec.x0[0] and the decision log is None.
    """
    if scenario.example == "moore-greitzer":
        if scenario.delta > 0.0:
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
        rpt = check_ras(
            sysd, scenario.spec, ck["n_init"], ck["n_dist"], scenario.sim,
            seed=seed,
        )
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
        inv = ck["invariant"]
        K = (
            parse_set(inv, scenario.variables)
            if inv is not None
            else getattr(scenario.spec, "target", None)
        )
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
                                 "margin": float(margin)}
    summary = "falsify[%s]: %s" % (
        condition_id, "counterexample" if obj["found"] else "none"
    )
    verdict = Verdict.FAIL if obj["found"] else Verdict.PASS
    return [("falsify.json", write_json, obj)], summary, verdict


def _barrier_series(arc, cert, dim):
    """(j, t, V, B) rows at every stored sample, V and B evaluated once per
    phase on its plant states; the values are floats, which csv writes as
    their repr."""
    rows = []
    for j, (times, states) in enumerate(arc.phases):
        plant = states[:, :dim]
        rows.extend(zip(repeat(j), times.tolist(),
                        cert.V.value_many(plant).tolist(),
                        cert.B.value_many(plant).tolist()))
    return rows


def _control_rows(arc, decisions):
    # decision k is taken at the jump into phase k+1
    rows = []
    for k, dec in enumerate(decisions):
        t_k = float(arc.phases[k + 1][0][0]) if k + 1 < len(arc.phases) \
            else float(arc.phases[-1][0][-1])
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
        ("barrier_series.csv", write_csv_rows,
         (["j", "t", "V", "B"], _barrier_series(arc, scenario.cert, dim))),
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
        x_end = arc.phases[-1][1][-1][:dim]
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
    error, not ignored."""
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
    while len(json.dumps(message)) > 800:
        message = message[:len(message) // 2]
    return message


class _JsonRecord(logging.Formatter):
    """A log record as one JSON object on one line."""

    def format(self, record):
        return json.dumps({"level": record.levelname, "logger": record.name,
                           "message": _bounded(record.getMessage())})


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
        print(json.dumps(payload), file=sys.stderr)
        if isinstance(exc, BadInitialCondition):
            return EXIT_BAD_INIT
        return EXIT_ERROR
    print(summary)
    return VERDICT_EXIT[verdict]


if __name__ == "__main__":
    sys.exit(main())
