"""The benchmark's workloads: what each sets up, times and checks.

A workload is a set-up step and a list of timed operations.  Every
operation calls one public entry point of hybridcert; its check runs after
the timing stops and returns the problems it found (an empty list means
the output is correct), exact counts read from the output, and sha256
digests of the output so that a bitwise drift between runs shows.

The program is always reached through its module attribute at call time
(``cli.main``, ``monitor.estimate_invariant_core``, ...), so the traced run
sees the same calls as the timed run.
"""

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from hybridcert import (
    certificates, cli, examples, geometry, hybrid, monitor, simulate,
)
from hybridcert.report import Verdict

# ball-sweep: initial points of the ras scenario are drawn from this box;
# the bounce model settles by total time ~24 from any of them, inside t_spec
RAS_Y = (2.0, 12.0)
RAS_Z = (-5.0, 5.0)
RAS_N_DIST = 3  # the CLI's default check.n_dist
RAS_G = 9.8  # the scenario's gravity

# c09's band and the ballistic peak-height oracle for its invariant core
BAND_Y = 0.1
BAND_Z = 2.0
BALL_A = 9.8
BALL_LAMBDA = 0.8

# ball-certify: size of the start offset of the companion arc
OFFSET = 1e-2
CLOSE_TAU = 2.0
CLOSE_EPS = 0.05
CLOSE_EPS_NEGATIVE = 1e-3


@dataclass
class Outcome:
    problems: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)


@dataclass
class Op:
    """One timed call.  ``call(state, out_dir)`` is timed; ``check(state,
    out_dir, result)`` is not.  ``seeded`` says whether the inputs depend on
    the seed, so that counts of unseeded ops must match across all runs."""

    name: str
    call: object
    check: object
    seeded: bool
    # count name -> tracer key that must read the same in the traced run
    trace_keys: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    setup: object  # seed, work_dir -> state
    ops: list


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def bytes_in(out_dir):
    return sum(
        os.path.getsize(os.path.join(out_dir, name))
        for name in os.listdir(out_dir)
    )


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------- mg-loop

def mg_loop(horizon=20.0):
    """The Moore-Greitzer surge loop through ``hybridcert example``, with the
    horizon overridden from the shipped 100 s to 20 s: c07's asserts hold
    there (final distance 0.0018) and one call is short enough to repeat
    many times in a run.

    Seed-free: the study has no random input.
    """

    def setup(seed, work_dir):
        doc = {"system": "moore-greitzer", "sim": {"t_max": horizon}}
        return {"scenario": cli.parse_scenario(doc)}

    def call(state, out_dir):
        return cli.main(
            ["example", "moore-greitzer", "--out", out_dir,
             "--override", "sim.t_max=%r" % horizon]
        )

    def check(state, out_dir, rc):
        out = Outcome()
        if rc != 0:
            out.problems.append("exit code %r" % rc)
            return out
        params = state["scenario"].params
        report = _read_json(os.path.join(out_dir, "report.json"))
        rows = _read_csv(os.path.join(out_dir, "controls.csv"))[1:]
        arc_path = os.path.join(out_dir, "arc.csv")
        with open(arc_path, "rb") as fh:
            arc_lines = sum(1 for _ in fh)

        if report["samples_in_unsafe"] != 0:
            out.problems.append("%d unsafe samples" % report["samples_in_unsafe"])
        if not report["distance_to_equilibrium"] <= 0.01:
            out.problems.append(
                "final distance %r" % report["distance_to_equilibrium"]
            )
        gammas = [params.gamma0]
        for row in rows:
            v, gamma = float(row[5]), float(row[6])
            if not -params.v_max <= v <= params.v_max:
                out.problems.append("v %r outside its box" % v)
            if not params.gamma_box[0] <= gamma <= params.gamma_box[1]:
                out.problems.append("gamma %r outside its box" % gamma)
            gammas.append(gamma)
        worst_step = max(abs(b - a) for a, b in zip(gammas, gammas[1:]))
        if worst_step > 0.005 + 1e-12:
            out.problems.append("gamma step %r" % worst_step)

        levels = [int(row[3]) for row in rows]
        out.counts = {
            "samples": arc_lines - 2,  # header and termination footer
            "jumps": report["simulate"]["jump_count"],
            "decisions": len(rows),
            # level L means levels 0..L were tried; level 10 is the hold
            # fallback after all ten QPs failed
            "solve_qp_calls": sum(min(level + 1, 10) for level in levels),
            "bytes_written": bytes_in(out_dir),
        }
        out.digests = {
            "arc.csv": sha256_file(arc_path),
            "controls.csv": sha256_file(os.path.join(out_dir, "controls.csv")),
        }
        return out

    return Workload(
        "mg-loop",
        setup,
        [
            Op("mg_example", call, check, seeded=False, trace_keys={
                "samples": "simulate.samples",
                "jumps": "simulate.jumps",
                "decisions": "controller.qp_policy",
                "solve_qp_calls": "controller.solve_qp",
            }),
        ],
    )


# ---------------------------------------------------------------- ball-sweep

RAS_SCENARIO = """\
system:
  variables: [y, z]
  flow_map: ["z", "-9.8"]
  flow_set: {{kind: axis_box, lo: [0.0, -50.0], hi: [100.0, 50.0]}}
  jump_set:
    kind: implicit
    predicate: "y <= 0 and z < 0"
    bbox: {{lo: [-1.0, -50.0], hi: [0.0, 0.0]}}
  jump_map: ["y", "-0.8*z"]
  bounds: {{kind: axis_box, lo: [-1.0, -50.0], hi: [100.0, 50.0]}}
certificates: {{V: "z**2/2 + 9.8*y"}}
spec:
  kind: ras
  x0: [{x0}]
  unsafe: {{kind: axis_box, lo: [50.0, -50.0], hi: [100.0, 50.0]}}
  target:
    kind: implicit
    predicate: "y <= 0.1"
    bbox: {{lo: [0.0, -50.0], hi: [0.1, 50.0]}}
  t_spec: 30.0
check: {{seed: {seed}, n_init: {n}}}
sim: {{h: 0.002, t_max: 30.0}}
"""


def ras_scenario_text(seed, n_points):
    """The README's falling-mass scenario with n_points seeded starts.

    The work of a start is set by its energy z**2/2 + G*y (the impact speed
    and so every later bounce), so the starts come in antithetic pairs:
    energies E_lo + u*(E_hi - E_lo) and E_lo + (1 - u)*(E_hi - E_lo) with u
    drawn from the seed, over the energies the box y in RAS_Y, z in RAS_Z
    reaches.  Each energy is then split between height and speed, and the
    speed given a sign, by further draws.  The total work of a check hardly
    moves with the seed while every coordinate does.
    """
    if n_points % 2:
        raise ValueError("n_points must be even")
    rng = np.random.default_rng([seed, 1])
    e_lo = RAS_G * RAS_Y[0]
    e_hi = RAS_G * RAS_Y[1] + RAS_Z[1] ** 2 / 2.0
    us = rng.uniform(size=n_points // 2)
    energies = e_lo + (e_hi - e_lo) * np.concatenate([us, 1.0 - us])
    starts = []
    for e in energies:
        # heights that leave a speed within RAS_Z
        y_lo = max(RAS_Y[0], (e - RAS_Z[1] ** 2 / 2.0) / RAS_G)
        y_hi = min(RAS_Y[1], e / RAS_G)
        y = y_lo + (y_hi - y_lo) * rng.uniform()
        z = math.sqrt(max(0.0, 2.0 * (e - RAS_G * y)))
        starts.append((y, z if rng.uniform() < 0.5 else -z))
    x0 = ", ".join("[%r, %r]" % (float(y), float(z)) for y, z in starts)
    return RAS_SCENARIO.format(x0=x0, seed=int(seed), n=n_points)


def _band():
    def pred(s):
        return 0.0 <= s[1] <= BAND_Y and abs(s[2]) <= BAND_Z

    def sdf(s):
        dy = max(0.0 - s[1], s[1] - BAND_Y, 0.0)
        dz = max(0.0, abs(s[2]) - BAND_Z)
        return math.hypot(dy, dz)

    box = geometry.AxisBox([0.0, 0.0, -BAND_Z], [0.0, BAND_Y, BAND_Z])
    return geometry.Implicit(pred, box, sdf=sdf)


def peak_oracle(band, grid_n):
    """Grid points whose ballistic peak stays in the band: a falling state
    bounces first and so peaks at the restitution-discounted height."""
    lo, hi = band.bounding_box().lo, band.bounding_box().hi
    axes = [np.linspace(lo[k], hi[k], n) for k, n in enumerate(grid_n)]
    mesh = np.stack(
        [m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1
    )

    def forward_peak(p):
        peak = p[1] + p[2] ** 2 / (2.0 * BALL_A)
        return peak if p[2] >= 0.0 else BALL_LAMBDA**2 * peak

    return sorted(tuple(p) for p in mesh if forward_peak(p) <= BAND_Y + 1e-6)


def ball_sweep(n_points=2, core_grid=(1, 5, 5)):
    """Many short bouncing arcs: a ras check over seeded starts through the
    CLI (compiled expression maps), and c09's invariant-core sweep (native
    maps, predicate membership).  The core sweep is seed-free."""

    def setup(seed, work_dir):
        path = os.path.join(work_dir, "ras.yaml")
        with open(path, "w") as fh:
            fh.write(ras_scenario_text(seed, n_points))
        system, _, _ = examples.bouncing_ball()
        return {
            "path": path,
            "n_points": n_points,
            "scenario": cli.load_scenario(path),
            "system": system,
            "band": _band(),
            "cfg": simulate.SimConfig(h=2e-3, T_max=4.0, J_max=120),
        }

    def ras_call(state, out_dir):
        return cli.main(
            ["check", "--mode", "ras", "--scenario", state["path"],
             "--out", out_dir]
        )

    def ras_check(state, out_dir, rc):
        out = Outcome()
        path = os.path.join(out_dir, "check_report.json")
        if rc != 0 or not os.path.exists(path):
            out.problems.append("exit code %r" % rc)
            return out
        report = _read_json(path)
        arcs = report["stats"]["arcs"]
        if report["verdict"] != Verdict.PASS.value:
            out.problems.append("ras verdict %s" % report["verdict"])
        if arcs != state["n_points"] * RAS_N_DIST:
            out.problems.append("%d arcs" % arcs)
        if report["counterexamples"]:
            out.problems.append(
                "%d counterexamples" % len(report["counterexamples"])
            )
        out.counts = {
            "points": state["n_points"],
            "solves": arcs,
            "samples": report["stats"]["samples"],
            "bytes_written": bytes_in(out_dir),
        }
        out.digests = {"check_report.json": sha256_file(path)}
        return out

    def core_call(state, out_dir):
        return monitor.estimate_invariant_core(
            state["system"], state["band"], core_grid, 1, state["cfg"]
        )

    def core_check(state, out_dir, survivors):
        out = Outcome()
        got = sorted(tuple(float(v) for v in p) for p in survivors)
        if got != peak_oracle(state["band"], core_grid):
            out.problems.append("survivors differ from the peak oracle")
        out.counts = {"survivors": len(got)}
        out.digests = {"survivors": sha256_text(repr(got))}
        return out

    return Workload(
        "ball-sweep",
        setup,
        [
            Op("ras_check", ras_call, ras_check, seeded=True, trace_keys={
                "solves": "simulate.solve",
                "samples": "simulate.samples",
            }),
            Op("invariant_core", core_call, core_check, seeded=False),
        ],
    )


# ---------------------------------------------------------------- ball-certify

PAIR_CONDITIONS = (
    "i-flow-decrease", "i-jump-decrease", "ii-X0-in-S",
    "iii-unsafe-negative", "iv-barrier-flow", "iv-barrier-jump",
)


def unit_direction(seed, dim=3):
    rng = np.random.default_rng([seed, 2])
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def ball_certify(grid_n=33):
    """Grid checks and arc post-processing with almost no simulation: c04's
    V/B pair check (seed-free) and closeness of the c08 arc to a companion
    started a seeded 1e-2 step away."""

    def setup(seed, work_dir):
        system, cert, spec = examples.bouncing_ball()
        box = examples.ball_operating_box()
        x0 = np.asarray(spec.x0[0])
        arc = simulate.solve(
            system, x0, simulate.SimConfig(h=1e-3, T_max=3.0, J_max=5)
        ).arc
        return {
            "sys_delta": hybrid.perturb(system, 0.0),
            "cert": cert,
            "spec": monitor.StabSafeSpec(
                x0=spec.x0, unsafe=spec.unsafe,
                attractor=examples.ball_attractor(),
            ),
            "grid": certificates.GridSpec(box.lo, box.hi, grid_n),
            "arc": arc,
            "x_new": x0 + OFFSET * unit_direction(seed),
        }

    def pair_call(state, out_dir):
        return certificates.check_pair_VB(
            state["sys_delta"], state["cert"], state["spec"], state["grid"],
            tol=1e-7, exclude_radius=0.05,
        )

    def pair_check(state, out_dir, report):
        out = Outcome()
        if report.verdict != Verdict.PASS:
            out.problems.append("pair verdict %s" % report.verdict.value)
        missing = [
            c for c in PAIR_CONDITIONS
            if c not in report.stats["worst_margins"]
        ]
        if missing:
            out.problems.append("conditions not visited: %s" % missing)
        fitted_c = report.stats["fitted_c"]
        if fitted_c is None or not fitted_c > 0.0:
            out.problems.append("fitted c %r" % fitted_c)
        stats = json.dumps(report.to_json_obj()["stats"], sort_keys=True)
        out.counts = {"condition_probes": sum(report.stats["counts"].values())}
        out.digests = {"pair_stats": sha256_text(stats)}
        return out

    def close_call(state, out_dir):
        psi = simulate.construct_perturbed(
            state["arc"], state["x_new"], CLOSE_TAU
        )
        return psi, simulate.closeness(state["arc"], psi, CLOSE_TAU, CLOSE_EPS)

    def close_check(state, out_dir, result):
        psi, close = result
        out = Outcome()
        if close is not True:
            out.problems.append("not close at eps=%g" % CLOSE_EPS)
        # negative control: the start offset alone exceeds this eps
        if simulate.closeness(
            state["arc"], psi, CLOSE_TAU, CLOSE_EPS_NEGATIVE
        ) is not False:
            out.problems.append("close at eps=%g" % CLOSE_EPS_NEGATIVE)
        out.counts = {"companion_samples": sum(t.size for t, _ in psi.phases)}
        return out

    return Workload(
        "ball-certify",
        setup,
        [
            Op("pair_check", pair_call, pair_check, seeded=False),
            Op("closeness", close_call, close_check, seeded=True),
        ],
    )


WORKLOADS = {"mg-loop": mg_loop, "ball-sweep": ball_sweep,
             "ball-certify": ball_certify}
