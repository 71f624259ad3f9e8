"""Command line front end: scenario files in, reports and CSV out.

A scenario is one YAML document.  The system comes either from a built-in
study by name or from an inline declaration whose maps and predicates are
expression strings (see expressions.py); exactly one of the two.  Commands
print a single summary line on stdout, write everything else to files
(atomically, temp + rename), and report failures as a JSON object on
stderr.  Exit codes: 0 pass/done, 1 fail/counterexample, 2 bad initial
condition, 3 inconclusive, 4 usage or scenario error.
"""

import argparse
import collections
import dataclasses
import json
import os
import sys

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
from .expressions import ExpressionError, predicate_fn, scalar_fn, vector_fn
from .geometry import (
    AxisBox,
    Ball,
    Implicit,
    Inflated,
    Intersection,
    Union,
    contains,
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

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INIT = 2
EXIT_INCONCLUSIVE = 3
EXIT_ERROR = 4

CHECK_MODES = ("ras", "stability-safety", "single-v", "pair-vb", "invariance")
RANDOM_MODES = ("ras", "stability-safety", "invariance")


class ScenarioError(ValueError):
    """Scenario file is missing, ambiguous, or inconsistent."""


# ---------------------------------------------------------------- scenario

def parse_set(node, variables=None):
    """Build a SetRegion from a {kind: ...} mapping."""
    if not isinstance(node, dict) or "kind" not in node:
        raise ScenarioError("set needs a mapping with a 'kind' key: %r" % node)
    kind = node["kind"]
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
        return Implicit(
            predicate_fn(node["predicate"], variables),
            AxisBox(bbox["lo"], bbox["hi"]),
        )
    if kind == "inflated":
        return Inflated(parse_set(node["of"], variables), float(node["r"]))
    if kind == "union":
        return Union([parse_set(m, variables) for m in node["of"]])
    if kind == "intersection":
        return Intersection([parse_set(m, variables) for m in node["of"]])
    raise ScenarioError("unknown set kind %r" % kind)


def _parse_points(node):
    pts = np.atleast_2d(np.asarray(node, dtype=float))
    return [pts[i] for i in range(pts.shape[0])]


def _parse_spec(node, variables=None):
    kind = node.get("kind", "ras")
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
    raise ScenarioError("unknown spec kind %r" % kind)


def _parse_certificates(node, variables, example, default):
    if node is None:
        return default
    if isinstance(node, str):
        if node != example:
            raise ScenarioError(
                "certificate name %r needs 'system: %s'" % (node, node)
            )
        return default
    if not variables:
        raise ScenarioError("expression certificates need system variables")
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
    return SimConfig(
        h=float(node.get("h", 1e-3)),
        T_max=float(node.get("t_max", t_default)),
        J_max=int(node.get("j_max", 400)),
        event_tol=float(node.get("event_tol", 1e-9)),
    )


def _parse_check(node):
    node = node or {}
    grid = None
    if "grid" in node:
        g = node["grid"]
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
            raise ScenarioError("unknown system name %r" % sys_node)
    elif isinstance(sys_node, dict):
        if "variables" not in sys_node:
            raise ScenarioError("inline system needs 'variables'")
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
    fields = {f.name for f in dataclasses.fields(params)}
    unknown = set(node) - fields
    if unknown:
        raise ScenarioError("unknown params %s" % sorted(unknown))
    coerced = {}
    for key, val in node.items():
        cur = getattr(params, key)
        coerced[key] = tuple(val) if isinstance(cur, tuple) else val
    return dataclasses.replace(params, **coerced)


def load_scenario(path, overrides=None, seed=None):
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    doc = apply_overrides(doc, overrides or [])
    if seed is not None:
        doc.setdefault("check", {})["seed"] = int(seed)
    return parse_scenario(doc)


def apply_overrides(doc, pairs):
    """Apply repeatable key=value flags; keys are dotted paths into the
    document, values are parsed as YAML scalars."""
    for pair in pairs:
        if "=" not in pair:
            raise ScenarioError("override needs key=value, got %r" % pair)
        key, _, value = pair.partition("=")
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ScenarioError("cannot override through %r" % part)
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


def write_csv_rows(path, header, rows):
    def _write(tmp):
        import csv

        with open(tmp, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)

    _atomic_write(path, _write)


def _write_arc_csv(arc, out_dir):
    _atomic_write(
        os.path.join(out_dir, "arc.csv"), lambda tmp: arc_to_csv(arc, tmp)
    )


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


def _error_json(exc):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)


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

def cmd_simulate(scenario, out_dir):
    report, _, _ = _solve_scenario(scenario)
    obj = _solve_report_obj(report)
    os.makedirs(out_dir, exist_ok=True)
    _write_arc_csv(report.arc, out_dir)
    write_json(os.path.join(out_dir, "arc.json"), arc_to_json_obj(report.arc))
    write_json(os.path.join(out_dir, "report.json"), obj)
    print(
        "simulate: %s T=%.6g J=%d -> %s"
        % (obj["termination"], obj["flow_time"], obj["jump_count"], out_dir)
    )
    return EXIT_OK


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
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "check_report.json"), obj)
    print("check[%s]: %s" % (mode, rpt.verdict.value))
    return {
        Verdict.PASS: EXIT_OK,
        Verdict.FAIL: EXIT_FAIL,
        Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    }[rpt.verdict]


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
        obj["counterexample"] = {
            "x": [float(v) for v in point],
            "margin": float(margin),
        }
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "falsify.json"), obj)
    print(
        "falsify[%s]: %s"
        % (condition_id, "counterexample" if obj["found"] else "none")
    )
    return EXIT_FAIL if obj["found"] else EXIT_OK


def _barrier_series(arc, cert, dim):
    return [
        [j, repr(t), repr(cert.V(x)), repr(cert.B(x))]
        for j, (times, states) in enumerate(arc.phases)
        for t, x in zip(times.tolist(), states[:, :dim])
    ]


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


def cmd_example(scenario, out_dir):
    """A built-in study: its simulate run plus what the study adds, the
    ball's V/B pair check on its operating box or the loop's decisions."""
    name = scenario.example
    report, decisions, dim = _solve_scenario(scenario)
    arc = report.arc
    obj = {"study": name, "simulate": _solve_report_obj(report)}
    if decisions is None:
        grid = _grid_or_default(scenario, ex.ball_operating_box())
        check = check_pair_VB(
            _perturbed(scenario), scenario.cert, _pair_spec(scenario), grid,
            tol=scenario.check["tol"], exclude_radius=0.05,
        )
        obj["check_pair_vb"] = check.to_json_obj()
        summary = "pair check %s" % check.verdict.value
    else:
        zeta = np.asarray(scenario.params.zeta, dtype=float)
        x_end = arc.phases[-1][1][-1][:dim]
        levels = collections.Counter(dec["level"] for dec in decisions)
        unsafe = scenario.spec.unsafe
        in_unsafe = sum(
            1 for _, states in arc.phases for x in states[:, :dim]
            if contains(unsafe, x, 0.0)
        )
        obj["final_plant_state"] = [float(v) for v in x_end]
        obj["distance_to_equilibrium"] = float(np.linalg.norm(x_end - zeta))
        obj["decision_levels"] = {str(k): v for k, v in sorted(levels.items())}
        obj["samples_in_unsafe"] = int(in_unsafe)
        summary = "final distance %.4g" % obj["distance_to_equilibrium"]

    os.makedirs(out_dir, exist_ok=True)
    _write_arc_csv(arc, out_dir)
    write_csv_rows(
        os.path.join(out_dir, "barrier_series.csv"),
        ["j", "t", "V", "B"],
        _barrier_series(arc, scenario.cert, dim),
    )
    if decisions is not None:
        write_csv_rows(
            os.path.join(out_dir, "controls.csv"),
            ["k", "j", "t", "level", "sigma", "v", "gamma",
             "margin_V", "margin_B"],
            _control_rows(arc, decisions),
        )
    write_json(os.path.join(out_dir, "report.json"), obj)
    print(
        "example[%s]: %s, %s -> %s"
        % (name, obj["simulate"]["termination"], summary, out_dir)
    )
    return EXIT_OK


# ---------------------------------------------------------------- dispatch

def build_parser():
    p = argparse.ArgumentParser(
        prog="hybridcert",
        description="Simulate hybrid systems and check their certificates.",
    )
    p.add_argument(
        "command", choices=("simulate", "check", "falsify", "example")
    )
    p.add_argument(
        "name", nargs="?",
        help="study name for the example command",
    )
    p.add_argument("--scenario", help="path to a scenario YAML file")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--mode",
        help="check mode, falsify condition id, or example study name",
    )
    p.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE",
        help="scenario override, dotted path (repeatable)",
    )
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "example":
            name = args.name or args.mode
            if not name:
                raise ScenarioError("example needs a study name")
            scenario = parse_scenario(
                apply_overrides({"system": name}, args.override)
            )
            return cmd_example(scenario, args.out)
        if not args.scenario:
            raise ScenarioError("%s needs --scenario" % args.command)
        scenario = load_scenario(args.scenario, args.override, args.seed)
        if args.command == "simulate":
            return cmd_simulate(scenario, args.out)
        if args.command == "check":
            if not args.mode:
                raise ScenarioError("check needs --mode")
            return cmd_check(scenario, args.mode, args.out)
        return cmd_falsify(scenario, args.mode, args.out)
    except BadInitialCondition as exc:
        _error_json(exc)
        return EXIT_BAD_INIT
    except (
        ScenarioError,
        ExpressionError,
        OSError,
        KeyError,
        TypeError,
        ValueError,
        ex.NoConvergence,
        ex.DomainViolation,
    ) as exc:
        _error_json(exc)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
