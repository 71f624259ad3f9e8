"""End-to-end command line runs, in this process through cli.main and,
for one run per command, through python -m hybridcert.cli."""

import contextlib
import csv
import hashlib
import io
import json
import logging
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

import hybridcert
from hybridcert import certificates, cli, examples, hybrid, monitor, simulate

# The children run from a temporary directory, where a relative entry such
# as PYTHONPATH=src resolves to nothing.  Put the directory holding the
# package this process imported first on their path, so they run that copy.
PACKAGE_ROOT = str(Path(hybridcert.__file__).resolve().parents[1])

DECAY_SCENARIO = """\
system:
  variables: [x]
  flow_map: ["-x"]
  flow_set: {kind: axis_box, lo: [-5.0], hi: [5.0]}
  jump_set: {kind: ball, center: [10.0], radius: 0.1}
  jump_map: ["x"]
  bounds: {kind: axis_box, lo: [-20.0], hi: [20.0]}
spec:
  kind: ras
  x0: [[1.0]]
  unsafe: {kind: axis_box, lo: [4.0], hi: [5.0]}
  target: {kind: ball, center: [0.0], radius: 0.5}
  t_spec: 5.0
sim: {h: 0.01, t_max: 6.0}
"""

EXPANSION_SCENARIO = """\
system:
  variables: [x]
  flow_map: ["x"]
  flow_set: {kind: axis_box, lo: [-5.0], hi: [5.0]}
  jump_set: {kind: ball, center: [10.0], radius: 0.1}
  jump_map: ["x"]
  bounds: {kind: axis_box, lo: [-20.0], hi: [20.0]}
certificates: {V: "x**2"}
check:
  grid: {lo: [-1.0], hi: [1.0], counts: [5]}
  budget: 300
"""

BALL_SCENARIO = """\
system: bouncing-ball
sim: {h: 0.002, t_max: 2.0}
"""

# the README's falling mass: its target is implicit, with no distance oracle
FALLING_MASS_SCENARIO = """\
system:
  variables: [y, z]
  flow_map: ["z", "-9.8"]
  flow_set: {kind: axis_box, lo: [0.0, -50.0], hi: [100.0, 50.0]}
  jump_set:
    kind: implicit
    predicate: "y <= 0 and z < 0"
    bbox: {lo: [-1.0, -50.0], hi: [0.0, 0.0]}
  jump_map: ["y", "-0.8*z"]
  bounds: {kind: axis_box, lo: [-1.0, -50.0], hi: [100.0, 50.0]}
certificates: {V: "z**2/2 + 9.8*y"}
spec:
  kind: ras
  x0: [[10.0, 0.0]]
  unsafe: {kind: axis_box, lo: [50.0, -50.0], hi: [100.0, 50.0]}
  target:
    kind: implicit
    predicate: "y <= 0.1"
    bbox: {lo: [0.0, -50.0], hi: [0.1, 50.0]}
  t_spec: 30.0
check: {seed: 0, n_init: 4}
sim: {h: 0.002, t_max: 30.0}
"""


def child_env():
    env = os.environ.copy()
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (PACKAGE_ROOT + os.pathsep + inherited
                         if inherited else PACKAGE_ROOT)
    return env


def run_python(args, cwd):
    proc = subprocess.run([sys.executable] + args, cwd=cwd,
                          capture_output=True, text=True, env=child_env())
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(args, cwd):
    return run_python(["-m", "hybridcert.cli"] + args, cwd)


@pytest.fixture
def run_main(monkeypatch, capfd):
    """run_cli's (code, stdout, stderr) from cli.main in this process, run
    from cwd: the same exit code, summary, files and stderr JSON lines,
    without a child interpreter's start.  Each command keeps one run_cli
    test, and so do the inputs meant to exhaust a resource."""
    def run(args, cwd):
        monkeypatch.chdir(cwd)
        capfd.readouterr()
        code = cli.main(args)
        stdout, stderr = capfd.readouterr()
        return code, stdout, stderr
    return run


# hostile cases meant to exhaust a resource (nesting depth, a huge source):
# they run in a child, so that a regression fails one child, not the run
CHILD_CASES = {"floor-power", "deep-nesting", "100kB-source",
               "30000-zero-flow-set", "100kB-set-kind", "100kB-system-name",
               "100kB-radius", "non-ascii-radius", "3000-nested-unions"}


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def rejected(code, stderr, out):
    """The error object of a run that exits 4 with one JSON object of
    under 1 kB on stderr and creates no --out directory."""
    assert code == 4, stderr[:1000]
    assert len(stderr.splitlines()) == 1
    assert len(stderr.encode()) < 1024
    assert not out.exists()
    payload = json.loads(stderr)
    assert isinstance(payload, dict)
    return payload


def test_child_imports_package_under_test(tmp_path):
    code, stdout, stderr = run_python(
        ["-c", "import hybridcert; print(hybridcert.__file__)"], tmp_path
    )
    assert code == 0, stderr
    child_file = Path(stdout.strip()).resolve()
    assert child_file == Path(hybridcert.__file__).resolve(), (
        "CLI children import a different hybridcert than the tests: "
        f"{child_file} instead of {hybridcert.__file__}"
    )


def test_example_bouncing_ball(tmp_path):
    out = tmp_path / "out"
    code, stdout, stderr = run_cli(
        ["example", "bouncing-ball", "--out", str(out)], tmp_path
    )
    assert code == 0, stderr
    assert len(stdout.strip().splitlines()) == 1
    assert {p.name for p in out.iterdir()} == {
        "arc.csv", "barrier_series.csv", "report.json"
    }
    report = json.loads((out / "report.json").read_text())
    assert report["check_pair_vb"]["verdict"] == "PASS"
    assert report["simulate"]["termination"] == "HorizonReached"
    assert report["simulate"]["stopped_by"] == "T_max"
    header = (out / "barrier_series.csv").read_text().splitlines()[0]
    assert header == "j,t,V,B"
    # many short phases and Zeno snaps, the bytes csv.writer gave them
    assert sha256_of(out, "arc.csv", "barrier_series.csv") == GOLDEN_BALL


GOLDEN_BALL = [
    "f85e4733029e281118b3abbf7d062e02e41a035730f58e7ed7f741424b3109e2",
    "221400383393f2917abd0e6f81884bfcf85816f366470ba65cbe6c5ccda8d111",
]


def test_example_moore_greitzer(tmp_path, run_main):
    out = tmp_path / "out"
    code, stdout, stderr = run_main(
        ["example", "moore-greitzer", "--out", str(out),
         "--override", "sim.t_max=20.0"],
        tmp_path,
    )
    assert code == 0, stderr
    assert len(stdout.strip().splitlines()) == 1
    assert {p.name for p in out.iterdir()} == {
        "arc.csv", "barrier_series.csv", "controls.csv", "report.json"
    }
    lines = (out / "controls.csv").read_text().splitlines()
    assert lines[0] == "k,j,t,level,sigma,v,gamma,margin_V,margin_B"
    # one decision per half-period, endpoints included: t = 0, 0.5, ..., 20
    assert len(lines) == 1 + 41
    report = json.loads((out / "report.json").read_text())
    assert report["samples_in_unsafe"] == 0
    assert report["distance_to_equilibrium"] < 0.05
    # the bytes the loop has written since the solver moved onto floats
    assert sha256_of(out, "arc.csv", "barrier_series.csv", "controls.csv") \
        == GOLDEN_MG_LOOP


def sha256_of(out, *names):
    return [hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in names]


GOLDEN_MG_LOOP = [
    "4b3e62f09e86bc76f3b7640a1f26a1e146752f1db0fb6c1ee722caeeec7f852a",
    "02272013e6aaa0d45fc996c49d444a73cc04ce6cd98a5758c064e593038c7ac1",
    "826966f528f47a8e091e24cb6a87ae1000318bc69977095473eb4b916b93fe1a",
]


def barrier_series_per_value(arc, cert, dim, path):
    """The barrier series with every value handed to csv on its own."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["j", "t", "V", "B"])
        for j, (times, states) in enumerate(arc.phases):
            plant = states[:, :dim]
            for t, v, b in zip(times.tolist(),
                               cert.V.value_many(plant).tolist(),
                               cert.B.value_many(plant).tolist()):
                w.writerow([j, t, v, b])


def state_column(k):
    return types.SimpleNamespace(value_many=lambda X: X[:, k].copy())


def test_barrier_series_is_the_per_value_writer_byte_for_byte(tmp_path):
    inf, nan = float("inf"), float("nan")
    phases = [
        # (V, B, an input column the slice to the plant drops)
        ([0.0, 0.1, 0.2, 0.3],
         [[1.0, -inf, 7.0], [-0.0, inf, 7.0], [5e-324, nan, 7.0],
          [1e-300, -inf, 7.0]]),
        ([0.3], [[nan, -inf, 0.5]]),  # one sample
        ([0.3, 0.4], [[inf, -0.0, 0.5], [-inf, 1.0 / 3.0, 0.5]]),
        ([0.4], [[0.1, 5e-324, 0.5]]),  # one sample
        ([0.4, 0.5, 0.6], [[-inf, -inf, 0.5]] * 3),
    ]
    # HybridArc keeps its states finite; the stub certificate reads the
    # states as V and B, so the writer is fed past that check
    arc = hybrid.HybridArc(
        [(np.array(t), np.zeros((len(t), 3))) for t, _ in phases],
        hybrid.Termination.HORIZON_REACHED)
    for (_, states), (_, x) in zip(arc.phases, phases):
        states[:] = x
    cert = types.SimpleNamespace(V=state_column(0), B=state_column(1))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    cli._write_barrier_series(str(got), cli._barrier_series(arc, cert, 2))
    barrier_series_per_value(arc, cert, 2, str(want))
    assert got.read_bytes() == want.read_bytes()
    assert b"\r\n1,0.3,nan,-inf\r\n" in got.read_bytes()


def test_barrier_series_writes_the_loop_sentinel_as_csv_does(tmp_path):
    # the loop's B is B_SENTINEL (-inf) inside its protected box
    _, cert, _, _ = examples.moore_greitzer()
    center = examples.MooreGreitzerParams().protect_center
    inside, outside = list(center), [0.45, 0.65]
    arc = hybrid.HybridArc(
        [(np.array([0.0, 0.5]), np.array([outside + [0.0, 0.64],
                                           inside + [0.0, 0.64]])),
         (np.array([0.5]), np.array([inside + [0.01, 0.64]]))],
        hybrid.Termination.HORIZON_REACHED)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    cli._write_barrier_series(str(got), cli._barrier_series(arc, cert, 2))
    barrier_series_per_value(arc, cert, 2, str(want))
    assert got.read_bytes() == want.read_bytes()
    assert got.read_bytes().count(b",-inf\r\n") == 2


class CountingFile:
    """A text file that records every write handed to it."""

    def __init__(self, fh, writes):
        self.fh, self.writes = fh, writes

    def write(self, text):
        self.writes.append(text)
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_csv_writers_write_once_per_phase(tmp_path, monkeypatch):
    system, cert, spec = examples.bouncing_ball()
    arc = simulate.solve(system, np.asarray(spec.x0[0]),
                         simulate.SimConfig(h=1e-3, T_max=10.0, J_max=20)).arc
    assert arc.num_phases == 8
    writes = []

    def counting_open(*args, **kwargs):
        return CountingFile(open(*args, **kwargs), writes)

    monkeypatch.setattr(hybrid, "open", counting_open, raising=False)
    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    for name, write in [
        ("arc.csv", lambda path: hybrid.arc_to_csv(arc, path)),
        ("barrier_series.csv", lambda path: cli._write_barrier_series(
            path, cli._barrier_series(arc, cert, 3))),
    ]:
        writes.clear()
        write(str(tmp_path / name))
        footer = name == "arc.csv"
        # the header, one write per phase, the footer
        assert len(writes) == 1 + arc.num_phases + footer
        text = "".join(writes)
        assert text.encode() == (tmp_path / name).read_bytes()
        assert max(map(len, writes)) < len(text) / 3


def test_pair_check_stats_keep_their_golden_digest():
    # c04's V/B pair check on the 33^3 grid of the ball's operating box,
    # the bits the grid's row forms give
    system, cert, spec = examples.bouncing_ball()
    box = examples.ball_operating_box()
    report = certificates.check_pair_VB(
        hybrid.perturb(system, 0.0), cert,
        monitor.StabSafeSpec(x0=spec.x0, unsafe=spec.unsafe,
                             attractor=examples.ball_attractor()),
        certificates.GridSpec(box.lo, box.hi, 33),
        tol=1e-7, exclude_radius=0.05,
    )
    stats = json.dumps(report.to_json_obj()["stats"], sort_keys=True)
    assert hashlib.sha256(stats.encode()).hexdigest() == GOLDEN_PAIR_STATS


GOLDEN_PAIR_STATS = \
    "b0e04d3bbbe0b99e179254046189628d9804cea47e77fbe3a12473f518173481"


def test_ras_check_report_keeps_its_golden_digest(tmp_path, capsys):
    # compiled maps and predicates, six arcs with impacts and Zeno stops
    scen = write(tmp_path, "ras.yaml", edited(
        FALLING_MASS_SCENARIO, lambda doc: (
            doc["spec"].update(x0=[[10.0, 0.0], [6.5, -3.0]]),
            doc.update(check={"seed": 7}))))
    out = tmp_path / "out"
    code = cli.main(["check", "--mode", "ras", "--scenario", scen,
                     "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert sha256_of(out, "check_report.json") == [
        "7a653d92ffca9dd6d546c26b80713d7ae3a656ef3b9ab280ba5ab404d478e7c5"
    ]


@pytest.mark.parametrize("args, code, digest", [
    # the watch is the implicit target inflated by the event tol
    (["--mode", "invariance"], 1,
     "173d71cdda6f730b0571a7bdc3d8703bc94c7ceb87cb5dcd50f17fc4f348158c"),
    # the flow and jump sets and the monitor's slack inflated by delta
    (["--mode", "ras", "--override", "delta=0.05"], 0,
     "badc0ea201fefb65ddb0aea5cafd29eb016025450b241ec86e08cbca69fa9e3b"),
])
def test_checks_through_inflated_sets_keep_their_golden_digests(
        tmp_path, capsys, args, code, digest):
    scen = write(tmp_path, "falling.yaml", FALLING_MASS_SCENARIO)
    out = tmp_path / "out"
    got = cli.main(["check"] + args + ["--scenario", scen, "--out", str(out)])
    assert got == code, capsys.readouterr().err
    assert sha256_of(out, "check_report.json") == [digest]


def test_example_unknown_name(tmp_path, run_main):
    code, _, stderr = run_main(["example", "no-such-study"], tmp_path)
    assert code == 4, stderr
    assert json.loads(stderr.splitlines()[-1])["error"] == "ScenarioError"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, overrides", [
    ("bouncing-ball", []),
    ("moore-greitzer", ["sim.t_max=5"]),
])
def test_example_and_simulate_write_the_same_arc(tmp_path, run_main, name,
                                                  overrides):
    scen = write(tmp_path, "study.yaml", "system: %s\n" % name)
    runs = [["example", name], ["simulate", "--scenario", scen]]
    extra = [a for pair in overrides for a in ("--override", pair)]
    arcs = []
    for k, args in enumerate(runs):
        out = tmp_path / str(k)
        code, _, stderr = run_main(args + extra + ["--out", str(out)],
                                   tmp_path)
        assert code == 0, stderr
        arcs.append((out / "arc.csv").read_bytes())
    assert arcs[0] == arcs[1]


def test_simulate_rejects_delta_on_moore_greitzer(tmp_path, run_main):
    scen = write(tmp_path, "mg.yaml", "system: moore-greitzer\ndelta: 0.01\n")
    out = tmp_path / "sim"
    code, _, stderr = run_main(
        ["simulate", "--scenario", scen, "--out", str(out)], tmp_path
    )
    assert code == 4, stderr
    payload = json.loads(stderr.splitlines()[-1])
    assert payload["error"] == "ScenarioError"
    assert "delta" in payload["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["example", "simulate"])
@pytest.mark.parametrize("key, value", [("j_max", "10"),
                                        ("event_tol", "1.0e-6")])
def test_moore_greitzer_rejects_the_sim_keys_its_loop_sets(
        tmp_path, capsys, command, key, value):
    # the loop sets its own jump cap and runs at the default event
    # tolerance, so a given one would be ignored
    if command == "example":
        args = ["example", "moore-greitzer",
                "--override", "sim.%s=%s" % (key, value)]
    else:
        scen = write(tmp_path, "mg.yaml",
                     "system: moore-greitzer\nsim: {%s: %s}\n" % (key, value))
        args = ["simulate", "--scenario", scen]
    out = tmp_path / "out"
    code = cli.main(args + ["--out", str(out)])
    payload = rejected(code, capsys.readouterr().err, out)
    assert payload["error"] == "ScenarioError"
    assert "sim.%s" % key in payload["message"]


PLANE_BOX = {"kind": "axis_box", "lo": [-1.0, -1.0], "hi": [1.0, 0.5]}
PLANE_BALL = {"kind": "ball", "center": [1.0, 0.0], "radius": 0.75}
PLANE_HALF = {"kind": "implicit", "predicate": "x + y <= 0.5",
              "bbox": {"lo": [-2.0, -2.0], "hi": [2.0, 2.0]}}


def plane_half():
    return hybridcert.Implicit(lambda s: s[0] + s[1] <= 0.5,
                               hybridcert.AxisBox([-2.0, -2.0], [2.0, 2.0]))


def plane_box():
    return hybridcert.AxisBox([-1.0, -1.0], [1.0, 0.5])


def plane_ball():
    return hybridcert.Ball([1.0, 0.0], 0.75)


@pytest.mark.parametrize("node, hand", [
    ({"kind": "inflated", "r": 0.25,
      "of": {"kind": "union", "of": [PLANE_BOX, PLANE_BALL]}},
     lambda: hybridcert.Inflated(hybridcert.Union([plane_box(), plane_ball()]),
                                 0.25)),
    ({"kind": "union",
      "of": [{"kind": "inflated", "of": PLANE_BALL, "r": 0.5}, PLANE_BOX]},
     lambda: hybridcert.Union([hybridcert.Inflated(plane_ball(), 0.5),
                               plane_box()])),
    ({"kind": "intersection",
      "of": [{"kind": "union", "of": [PLANE_BOX, PLANE_BALL]}, PLANE_HALF]},
     lambda: hybridcert.Intersection(
         [hybridcert.Union([plane_box(), plane_ball()]), plane_half()])),
], ids=["inflated", "union", "intersection"])
def test_parse_set_builds_the_composite_sets(node, hand):
    grid = np.linspace(-2.0, 2.0, 17)
    P = np.array([[x, y] for x in grid for y in grid])
    parsed, want = cli.parse_set(node, ("x", "y")), hand()
    assert type(parsed) is type(want)
    inside = want.contains_many(P, 0.0)
    assert 0 < inside.sum() < len(P)
    assert parsed.contains_many(P, 0.0).tolist() == inside.tolist()


def test_invariance_checks_check_invariant_and_not_the_target(tmp_path,
                                                              capsys):
    # -x decays into the target ball around 0, so the target is invariant;
    # the arcs leave the band [0.5, 1.5] through its lower end
    band = {"kind": "axis_box", "lo": [0.5], "hi": [1.5]}
    reports = []
    for k, extra in enumerate([[], ["--override", "check.invariant=%s"
                                    % json.dumps(band)]]):
        scen = write(tmp_path, "decay.yaml", DECAY_SCENARIO)
        out = tmp_path / str(k)
        code = cli.main(["check", "--mode", "invariance", "--scenario", scen,
                         "--seed", "0", "--override", "check.n_init=4",
                         "--out", str(out)] + extra)
        capsys.readouterr()
        reports.append((code, json.loads(
            (out / "check_report.json").read_text())))
    (code_target, target), (code_band, band_report) = reports
    assert code_target == 0 and target["verdict"] == "PASS"
    assert code_band == 1 and band_report["verdict"] == "FAIL"
    assert band_report["stats"]["arcs"] == 4
    ces = band_report["counterexamples"]
    assert ces and {ce["condition"] for ce in ces} == {"invariance"}
    assert all(ce["x"][0] < 0.5 for ce in ces)


def flow(source):
    return [('["-x"]', json.dumps([source]))]


def variable(name):
    return [("variables: [x]", "variables: [%s]" % name),
            ('["-x"]', '["1.0"]'), ('jump_map: ["x"]', 'jump_map: ["0.0"]')]


def power_tower(base, levels):
    """(b)**(b) nested: levels 1, 2, 3, 4 of 2.0 are 2, 4, 256, 2**2048."""
    for _ in range(levels - 1):
        base = "(%s)**(%s)" % (base, base)
    return base


# each case is a list of (old, new) edits of DECAY_SCENARIO and a piece of
# the message; 100kB-source is a flat source with an unknown name, which
# the message quotes
@pytest.mark.parametrize("edits, message", [
    (flow("10**400"), "OverflowError"),
    # floor and comparisons feed arithmetic as floats, never as exact ints
    # that grow without bound
    (flow("floor(1e7)**floor(1e7)"), "OverflowError"),
    (flow(power_tower("((x>0)+(x>0))", 4)), "OverflowError"),
    (flow("-" * 5000 + "x"), "nested too deeply"),
    (flow("x/0"), "ZeroDivisionError"),
    (flow("max(" + "x, " * 34000 + "q)"), "unknown name 'q'"),
    # names that cannot be parameters of the compiled function, and a
    # number where a name belongs
    (variable("lambda"), "variable name"),
    (variable("None"), "variable name"),
    (variable("__debug__"), "variable name"),
    (variable("1"), "variable name"),
    # lists where one source belongs
    ([("target: {kind: ball, center: [0.0], radius: 0.5}",
       'target: {kind: implicit, predicate: ["x*x < 0.25"], '
       "bbox: {lo: [-0.5], hi: [0.5]}}")], "'List' not allowed"),
    ([("sim:", 'certificates: {V: ["x**2"]}\nsim:')], "'List' not allowed"),
], ids=["overflow", "floor-power", "bool-power-tower", "deep-nesting",
        "zero-division", "100kB-source", "keyword-variable", "None-variable",
        "__debug__-variable", "number-variable", "list-predicate",
        "list-certificate"])
def test_hostile_expression_exits_4_with_one_json_object(
        tmp_path, request, run_main, edits, message):
    text = DECAY_SCENARIO
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    scen = write(tmp_path, "hostile.yaml", text)
    out = tmp_path / "sim"
    run = run_cli if request.node.callspec.id in CHILD_CASES else run_main
    code, _, stderr = run(
        ["simulate", "--scenario", scen, "--out", str(out)], tmp_path
    )
    payload = rejected(code, stderr, out)
    assert payload["error"] == "ExpressionError"
    assert message in payload["message"]


def test_overflowing_jump_map_exits_4_with_an_expression_error(tmp_path,
                                                               run_main):
    # the jump map runs on Python floats, as the flow map does: on numpy
    # floats z**400 would be inf with a warning, and the arc non-finite
    scen = write(tmp_path, "jump.yaml", FALLING_MASS_SCENARIO.replace(
        'jump_map: ["y", "-0.8*z"]', 'jump_map: ["y", "-0.8*z**400"]'))
    out = tmp_path / "sim"
    code, _, stderr = run_main(
        ["simulate", "--scenario", scen, "--out", str(out)], tmp_path
    )
    payload = rejected(code, stderr, out)
    assert payload["error"] == "ExpressionError"
    assert "OverflowError" in payload["message"]


def edited(text, edit):
    """A scenario text after edit(doc), as JSON (which is YAML)."""
    doc = yaml.safe_load(text)
    edit(doc)
    return json.dumps(doc)


def nested_unions(depth):
    node = '{"kind": "axis_box", "lo": [-5.0], "hi": [5.0]}'
    for _ in range(depth):
        node = '{"kind": "union", "of": [%s]}' % node
    return node


def decay_certificates(region, attractor):
    certs = {"V": "x**2", "region": region, "attractor": attractor}
    return edited(DECAY_SCENARIO, lambda doc: doc.update(certificates=certs))


def with_nan(text, *path):
    """The scenario text with the key at path, a list of keys, set to
    NaN, written as YAML's .nan."""
    doc = yaml.safe_load(text)
    node = doc
    for part in path[:-1]:
        node = node.setdefault(part, {})
    node[path[-1]] = math.nan
    return yaml.safe_dump(doc)


UNIT_BOX = {"kind": "axis_box", "lo": [-1.0], "hi": [1.0]}
CENTRE_BALL = {"kind": "ball", "center": [0.0], "radius": 0.5}
IMPLICIT_BALL = {"kind": "implicit", "predicate": "x*x <= 0.25",
                 "bbox": {"lo": [-0.5], "hi": [0.5]}}
SIMULATE = ["simulate"]
SINGLE_V = ["check", "--mode", "single-v"]


# each case is a scenario file's text (or bytes), the command line before
# --scenario, and the error; the first three are nodes that messages
# quote: a 90 kB list where a set belongs, and 100 kB names of a set kind
# and of a system
@pytest.mark.parametrize("text, args, error", [
    (edited(DECAY_SCENARIO,
            lambda doc: doc["system"].update(flow_set=[0] * 30000)),
     SIMULATE, "ScenarioError"),
    (edited(DECAY_SCENARIO,
            lambda doc: doc["system"]["flow_set"].update(kind="k" * 100000)),
     SIMULATE, "ScenarioError"),
    (edited(DECAY_SCENARIO, lambda doc: doc.update(system="s" * 100000)),
     SIMULATE, "ScenarioError"),
    # float() quotes the whole string it cannot read, and JSON escapes a
    # character outside ASCII in 6 or 12 bytes
    (edited(DECAY_SCENARIO,
            lambda doc: doc["system"]["jump_set"].update(radius="r" * 100000)),
     SIMULATE, "ValueError"),
    (edited(DECAY_SCENARIO,
            lambda doc: doc["system"]["jump_set"].update(
                radius="\u00e9\U0001f600" * 50000)),
     SIMULATE, "ValueError"),
    (DECAY_SCENARIO.replace("t_max: 6.0}", "t_max: 6.0, j_max: .inf}"),
     SIMULATE, "OverflowError"),
    # numbers outside their range: a NaN fails every range check, and a
    # count must be a whole number >= 0
    (with_nan(DECAY_SCENARIO, "delta"), SIMULATE, "ValueError"),
    (with_nan(decay_certificates(UNIT_BOX, CENTRE_BALL), "check", "tol"),
     SINGLE_V, "ValueError"),
    (with_nan(DECAY_SCENARIO, "spec", "t_spec"), SIMULATE, "ValueError"),
    (FALLING_MASS_SCENARIO.replace("flow_set: {kind: axis_box, lo: [0.0,",
                                   "flow_set: {kind: axis_box, lo: [.nan,"),
     SIMULATE, "ValueError"),
    (edited(FALLING_MASS_SCENARIO, lambda doc: doc["check"].update(seed=1.5)),
     ["check", "--mode", "ras"], "ScenarioError"),
    (edited(FALLING_MASS_SCENARIO, lambda doc: doc["check"].update(n_init=-1)),
     SIMULATE, "ScenarioError"),
    (edited(DECAY_SCENARIO, lambda doc: doc.update(check={"grid": {
        "lo": [-1.0], "hi": [1.0], "counts": 4.9}})),
     SIMULATE, "ValueError"),
    # every section is read as the file is parsed, whatever the command
    (edited(FALLING_MASS_SCENARIO, lambda doc: doc["check"].update(
        invariant={"kind": "ball", "center": [0.0, 0.0]})),
     ["check", "--mode", "ras"], "ScenarioError"),
    (edited(DECAY_SCENARIO, lambda doc: doc["spec"].pop("t_spec")),
     SIMULATE, "ScenarioError"),
    # inputs the library rejects
    (edited(FALLING_MASS_SCENARIO,
            lambda doc: doc["system"]["flow_map"].append("1.0")),
     SIMULATE, "DimensionMismatch"),
    (decay_certificates(UNIT_BOX, dict(CENTRE_BALL, center=[3.0])),
     SINGLE_V, "DegenerateDomain"),
    (decay_certificates(dict(IMPLICIT_BALL, predicate="x*x <= 1.0"),
                        CENTRE_BALL),
     SINGLE_V, "UnsupportedDistance"),
    (decay_certificates(UNIT_BOX, IMPLICIT_BALL),
     SINGLE_V, "UnsupportedDistance"),
    (edited(DECAY_SCENARIO, lambda doc: doc.update(spec={
        "kind": "stability-safety", "x0": [[1.0]],
        "unsafe": {"kind": "axis_box", "lo": [4.0], "hi": [5.0]},
        "attractor": IMPLICIT_BALL})),
     ["check", "--mode", "stability-safety", "--seed", "0"],
     "UnsupportedDistance"),
    ("system: moore-greitzer\nparams: {theta: 0.001}\n",
     SIMULATE, "NoConvergence"),
    # documents that do not read or do not have the scenario's shape
    ("system: [unclosed\n", SIMULATE, "ParserError"),
    (bytes(range(256)), SIMULATE, "ReaderError"),
    (edited(DECAY_SCENARIO, lambda doc: doc.update(spec=5)),
     SIMULATE, "AttributeError"),
    (edited(DECAY_SCENARIO, lambda doc: doc.update(sim=[1, 2])),
     SIMULATE, "AttributeError"),
    ("", ["simulate", "--seed", "1"], "AttributeError"),
    ("[1, 2]\n", ["simulate", "--override", "sim.h=0.1"], "AttributeError"),
    (edited(DECAY_SCENARIO,
            lambda doc: doc["system"].update(flow_set="@")).replace(
                '"@"', nested_unions(3000)),
     SIMULATE, "RecursionError"),
], ids=["30000-zero-flow-set", "100kB-set-kind", "100kB-system-name",
        "100kB-radius", "non-ascii-radius", "infinite-j-max", "nan-delta",
        "nan-tol", "nan-t-spec", "nan-box-face", "fractional-seed",
        "negative-n-init", "fractional-grid-count",
        "invariant-without-radius-under-ras", "missing-t-spec",
        "3-entry-flow-map", "attractor-outside-region",
        "implicit-certificate-region", "implicit-certificate-attractor",
        "implicit-stability-attractor", "compressor-without-equilibrium",
        "yaml-syntax-error", "binary-bytes", "spec-5", "sim-list",
        "empty-file-with-seed", "top-level-list-with-override",
        "3000-nested-unions"])
def test_hostile_scenario_node_exits_4_with_one_json_object(
        tmp_path, request, run_main, text, args, error):
    scen = tmp_path / "hostile.yaml"
    scen.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "out"
    run = run_cli if request.node.callspec.id in CHILD_CASES else run_main
    code, _, stderr = run(
        args + ["--scenario", str(scen), "--out", str(out)], tmp_path
    )
    assert rejected(code, stderr, out)["error"] == error


@pytest.mark.parametrize("args", [
    ["frobnicate"],
    ["check", "--seed", "abc"],
    [],
], ids=["unknown-command", "non-integer-seed", "no-command"])
def test_usage_error_exits_4_with_one_json_object(tmp_path, run_main, args):
    out = tmp_path / "out"
    code, stdout, stderr = run_main(args + ["--out", str(out)], tmp_path)
    assert rejected(code, stderr, out)["error"] == "UsageError"
    assert stdout == ""


@pytest.mark.parametrize("args", [
    ["simulate", "bouncing-ball", "--scenario", "decay.yaml"],
    ["check", "bouncing-ball", "--mode", "ras", "--seed", "0",
     "--scenario", "decay.yaml"],
    ["falsify", "bouncing-ball", "--mode", "flow-decrease",
     "--scenario", "decay.yaml"],
    ["simulate", "", "--scenario", "decay.yaml"],
    ["example", "bouncing-ball", "--scenario", "decay.yaml"],
    ["simulate", "--mode", "ras", "--scenario", "decay.yaml"],
    ["example", "bouncing-ball", "--mode", "ras"],
], ids=["simulate-name", "check-name", "falsify-name", "simulate-empty-name",
        "example-scenario", "simulate-mode", "example-mode"])
def test_unused_argument_exits_4_with_one_json_object(tmp_path, run_main,
                                                      args):
    # the scenario exists and runs, so only the unused argument is wrong
    write(tmp_path, "decay.yaml", DECAY_SCENARIO)
    out = tmp_path / "out"
    code, stdout, stderr = run_main(args + ["--out", str(out)], tmp_path)
    assert rejected(code, stderr, out)["error"] == "UsageError"
    assert stdout == ""


def test_certificate_attractor_without_region_is_rejected_as_parsed(
        tmp_path, capsys):
    # the attractor is read only as the target of a proper indicator on
    # the region; without one the file is wrong, whatever the command
    certs = {"V": "x**2", "attractor": CENTRE_BALL}
    scen = write(tmp_path, "decay.yaml", edited(
        DECAY_SCENARIO, lambda doc: doc.update(certificates=certs)))
    for k, args in enumerate((SIMULATE, SINGLE_V)):
        out = tmp_path / ("out-%d" % k)
        code = cli.main(args + ["--scenario", scen, "--out", str(out)])
        err = rejected(code, capsys.readouterr().err, out)
        assert err["error"] == "ScenarioError"
        assert "certificates.attractor" in err["message"]
        assert "certificates.region" in err["message"]


# a target that reaches into the unsafe set: RASSpec logs a warning
OVERLAP_SCENARIO = DECAY_SCENARIO.replace(
    "unsafe: {kind: axis_box, lo: [4.0], hi: [5.0]}",
    "unsafe: {kind: axis_box, lo: [0.4], hi: [0.6]}",
)


def json_lines(stderr):
    """The stderr lines, each parsed as one JSON object."""
    lines = [json.loads(line) for line in stderr.splitlines()]
    assert all(isinstance(obj, dict) for obj in lines)
    assert all(len(line.encode()) < 1024 for line in stderr.splitlines())
    return lines


def test_log_records_reach_stderr_as_json_lines(tmp_path, run_main):
    scen = write(tmp_path, "overlap.yaml", OVERLAP_SCENARIO)
    out = tmp_path / "sim"
    code, stdout, stderr = run_main(
        ["simulate", "--scenario", scen, "--out", str(out)], tmp_path
    )
    assert code == 0, stderr
    assert len(stdout.splitlines()) == 1
    [record] = json_lines(stderr)
    assert set(record) == {"level", "logger", "message"}
    assert record["level"] == "WARNING"
    assert record["logger"] == "hybridcert.monitor"
    assert record["message"].startswith("target and unsafe sets overlap near")


def test_repeated_in_process_calls_do_not_stack_log_handlers(tmp_path, capsys):
    scen = write(tmp_path, "overlap.yaml", OVERLAP_SCENARIO)
    handlers = list(logging.getLogger().handlers)
    for k in range(3):
        code = cli.main(["simulate", "--scenario", scen,
                         "--out", str(tmp_path / str(k))])
        assert code == 0
        assert logging.getLogger().handlers == handlers
        assert len(json_lines(capsys.readouterr().err)) == 1


# z = +-1e200 overflows V, B and their gradients: numpy warns, and the
# pair check fails
HUGE_Z_GRID = ("check.grid={lo: [-1.0, 0.0, -1.0e200], hi: [21.0, 10.0,"
               " 1.0e200], counts: [3, 3, 3]}")


def test_python_warnings_reach_stderr_as_json_lines(tmp_path):
    code, stdout, stderr = run_cli(
        ["example", "bouncing-ball", "--override", HUGE_Z_GRID,
         "--out", str(tmp_path / "o")], tmp_path
    )
    assert code == 0, stderr
    assert "pair check FAIL" in stdout
    records = json_lines(stderr)
    assert records
    for record in records:
        assert record["logger"] == "py.warnings"
        assert "RuntimeWarning: " in record["message"]


def test_main_puts_showwarning_back(tmp_path, capsys):
    showwarning = warnings.showwarning
    code = cli.main(["example", "bouncing-ball", "--override", HUGE_Z_GRID,
                     "--out", str(tmp_path / "o")])
    assert code == 0
    assert warnings.showwarning is showwarning
    assert json_lines(capsys.readouterr().err)


# x and z spans overflow a float: linspace's step would be inf, the points NaN
OVERFLOW_GRID = ("check.grid={lo: [-1.0e308, -1.0, -1.0e308], hi: [1.0e308,"
                 " 12.0, 1.0e308], counts: 5}")


def test_grid_without_a_finite_span_exits_4_naming_the_axis(tmp_path,
                                                            capsys):
    out = tmp_path / "out"
    code = cli.main(["example", "bouncing-ball", "--override", OVERFLOW_GRID,
                     "--out", str(out)])
    stdout, stderr = capsys.readouterr()
    payload = rejected(code, stderr, out)
    assert payload["error"] == "ValueError"
    assert payload["message"].startswith("grid axis 0:")
    assert stdout == ""


def test_grid_with_lo_and_hi_of_different_lengths_exits_4(tmp_path,
                                                        capsys):
    scenario = EXPANSION_SCENARIO.replace(
        "grid: {lo: [-1.0], hi: [1.0], counts: [5]}",
        "grid: {lo: [-1.0, -1.0, -1.0], hi: [1.0], counts: 5}")
    scen = write(tmp_path, "mismatch.yaml", scenario)
    out = tmp_path / "out"
    code = cli.main(["check", "--scenario", scen, "--mode", "single-v",
                     "--out", str(out)])
    stdout, stderr = capsys.readouterr()
    payload = rejected(code, stderr, out)
    assert payload["error"] == "ValueError"
    assert payload["message"] == "grid lo has 3 entries and hi has 1"
    assert stdout == ""


def test_long_log_message_stays_one_line_under_1_kb():
    record = logging.LogRecord("hybridcert.monitor", logging.WARNING, "", 0,
                               "no solution from %s", ("\n\u2028" * 5000,),
                               None)
    line = cli._JsonRecord().format(record)
    assert len(line.splitlines()) == 1
    assert len(line.encode()) < 1024
    assert json.loads(line)["message"].startswith("no solution from \n")


def test_help_exits_0(tmp_path):
    code, stdout, stderr = run_cli(["--help"], tmp_path)
    assert code == 0, stderr
    assert stdout.startswith("usage: hybridcert")


def test_every_exported_exception_exits_2_or_4():
    # a class based on Exception alone would pass main's handler and end
    # in a traceback with exit 1
    errors = [cls for cls in map(vars(hybridcert).get, hybridcert.__all__)
              if isinstance(cls, type) and issubclass(cls, BaseException)]
    assert len(errors) > 10
    for cls in errors + [cli.ScenarioError, cli.UsageError]:
        assert issubclass(cls, cli.BadInitialCondition) or issubclass(
            cls, cli.INPUT_ERRORS), cls


@pytest.mark.parametrize("command, text, mode, names, verdict", [
    ("simulate", DECAY_SCENARIO, None, ["arc.csv", "arc.json", "report.json"],
     cli.Verdict.PASS),
    ("check", DECAY_SCENARIO, "ras", ["check_report.json"], cli.Verdict.PASS),
    ("falsify", EXPANSION_SCENARIO, "flow-decrease", ["falsify.json"],
     cli.Verdict.FAIL),
], ids=["simulate", "check", "falsify"])
def test_command_returns_its_files_and_writes_nothing(tmp_path, capsys,
                                                      command, text, mode,
                                                      names, verdict):
    scenario = cli.scenario_from(yaml.safe_load(text), seed=3)
    out = tmp_path / "out"
    files, summary, got = cli.COMMANDS[command](scenario, mode, str(out))
    assert [name for name, _, _ in files] == names
    assert got == verdict
    assert summary.startswith(command)
    assert not out.exists()
    assert capsys.readouterr() == ("", "")


def test_simulate_named_system(tmp_path):
    scen = write(tmp_path, "ball.yaml", BALL_SCENARIO)
    out = tmp_path / "sim"
    code, stdout, stderr = run_cli(
        ["simulate", "--scenario", scen, "--out", str(out)], tmp_path
    )
    assert code == 0, stderr
    assert len(stdout.strip().splitlines()) == 1
    assert {p.name for p in out.iterdir()} == {
        "arc.csv", "arc.json", "report.json"
    }
    report = json.loads((out / "report.json").read_text())
    assert report["termination"] == "HorizonReached"
    assert report["stopped_by"] == "T_max"
    assert report["jump_count"] == 1  # one bounce happens before t = 2


def test_simulate_inline_system(tmp_path, run_main):
    scen = write(tmp_path, "decay.yaml", DECAY_SCENARIO)
    out = tmp_path / "sim"
    code, _, stderr = run_main(
        ["simulate", "--scenario", scen, "--out", str(out)], tmp_path
    )
    assert code == 0, stderr
    report = json.loads((out / "report.json").read_text())
    assert abs(report["final_state"][0]) < 0.01


def test_simulate_bad_initial_condition(tmp_path, run_main):
    scen = write(
        tmp_path, "bad.yaml",
        BALL_SCENARIO
        + "spec:\n  kind: ras\n  x0: [[0.0, -1.0, 0.5]]\n"
        + "  unsafe: {kind: axis_box, lo: [0, 10, 0], hi: [1, 11, 1]}\n"
        + "  target: {kind: axis_box, lo: [0, 0, 0], hi: [1, 1, 1]}\n"
        + "  t_spec: 1.0\n",
    )
    code, _, stderr = run_main(
        ["simulate", "--scenario", scen, "--out", str(tmp_path / "o")],
        tmp_path,
    )
    assert code == 2, stderr
    payload = json.loads(stderr.splitlines()[-1])
    assert payload["error"] == "BadInitialCondition"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("scenario, x0", [
    (FALLING_MASS_SCENARIO, "[[5.0, 0.0, 1.0]]"),
    (FALLING_MASS_SCENARIO, "[7.0]"),
    (BALL_SCENARIO + "spec:\n  kind: ras\n  x0: [[10.0, 0.0]]\n"
     "  unsafe: {kind: axis_box, lo: [0, 10, 0], hi: [1, 11, 1]}\n"
     "  target: {kind: axis_box, lo: [0, 0, 0], hi: [1, 1, 1]}\n"
     "  t_spec: 1.0\n", "[[5.0, 0.0]]"),
], ids=["inline-long-row", "inline-short-point", "named-short-row"])
@pytest.mark.parametrize("args", [SIMULATE, ["check", "--mode", "ras"]],
                         ids=["simulate", "check-ras"])
def test_x0_of_the_wrong_dimension_exits_4_naming_spec_x0(tmp_path, scenario,
                                                          x0, args, run_main):
    # a start of the wrong length is an error in the scenario, caught
    # before any solve rather than one BadInitialCondition per start
    text = scenario.replace("x0: [[10.0, 0.0]]", "x0: " + x0)
    assert text != scenario
    out = tmp_path / "out"
    code, _, stderr = run_main(
        args + ["--scenario", write(tmp_path, "x0.yaml", text),
                "--out", str(out)], tmp_path)
    payload = rejected(code, stderr, out)
    assert payload["error"] == "ScenarioError"
    assert "spec.x0" in payload["message"]


@pytest.mark.parametrize("x0", ["[[10.0, 0.0], [5.0, 0.0, 1.0]]",
                                "[['a', 1.0]]"],
                         ids=["ragged", "non-numeric"])
@pytest.mark.parametrize("args", [SIMULATE, ["check", "--mode", "ras"]],
                         ids=["simulate", "check-ras"])
def test_ragged_or_non_numeric_x0_exits_4_naming_spec_x0(tmp_path, run_main,
                                                         x0, args):
    # numpy's own ValueError used to end the run, naming no scenario key
    text = FALLING_MASS_SCENARIO.replace("x0: [[10.0, 0.0]]", "x0: " + x0)
    assert text != FALLING_MASS_SCENARIO
    out = tmp_path / "out"
    code, _, stderr = run_main(
        args + ["--scenario", write(tmp_path, "x0.yaml", text),
                "--out", str(out)], tmp_path)
    payload = rejected(code, stderr, out)
    assert payload["error"] == "ScenarioError"
    assert payload["message"].startswith("spec.x0 ")


def test_moore_greitzer_x0_is_checked_against_the_plant(tmp_path, run_main):
    # the loop is built at run time, but its plant has 2 state variables
    # at parse time already
    text = (
        "system: moore-greitzer\n"
        "spec:\n"
        "  kind: ras\n"
        "  x0: [[0.5, 0.6, 0.7]]\n"
        "  unsafe: {kind: axis_box, lo: [2.0, 2.0], hi: [3.0, 3.0]}\n"
        "  target: {kind: axis_box, lo: [0.0, 0.0], hi: [1.0, 1.0]}\n"
        "  t_spec: 1.0\n"
        "sim: {t_max: 1.0}\n"
    )
    out = tmp_path / "out"
    code, _, stderr = run_main(
        SIMULATE + ["--scenario", write(tmp_path, "mg.yaml", text),
                    "--out", str(out)], tmp_path)
    payload = rejected(code, stderr, out)
    assert payload["error"] == "ScenarioError"
    assert payload["message"] == (
        "spec.x0 row has shape (3,), system expects (2,)")


def test_check_pair_vb(tmp_path):
    scen = write(
        tmp_path, "ball.yaml",
        "system: bouncing-ball\n"
        "check:\n"
        "  grid: {lo: [-1, 0, -14], hi: [21, 10, 14], counts: [3, 9, 9]}\n",
    )
    out = tmp_path / "chk"
    code, stdout, stderr = run_cli(
        ["check", "--mode", "pair-vb", "--scenario", scen, "--out", str(out)],
        tmp_path,
    )
    assert code == 0, stderr
    assert "PASS" in stdout
    report = json.loads((out / "check_report.json").read_text())
    assert report["mode"] == "pair-vb"
    assert report["verdict"] == "PASS"


def strict_json(text):
    def reject(name):
        raise ValueError("not JSON: %s" % name)

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("mode, overrides, condition", [
    ("invariance", [], "invariance"),
    ("ras", ["spec.t_spec=2.0", "sim.t_max=3.0"], "reach-stay"),
], ids=["invariance", "ras-unsettled"])
def test_check_margin_to_set_without_distance(tmp_path, mode, overrides,
                                              condition, run_main):
    scen = write(tmp_path, "falling.yaml", FALLING_MASS_SCENARIO)
    out = tmp_path / "chk"
    args = ["check", "--mode", mode, "--scenario", scen, "--out", str(out)]
    for pair in overrides:
        args += ["--override", pair]
    code, stdout, stderr = run_main(args, tmp_path)
    assert code == 1, stderr
    assert "Traceback" not in stderr
    assert stdout.strip() == "check[%s]: FAIL" % mode
    report = strict_json((out / "check_report.json").read_text())
    assert report["verdict"] == "FAIL"
    assert report["counterexamples"][0]["condition"] == condition


def test_check_ras_requires_seed(tmp_path, run_main):
    scen = write(tmp_path, "ball.yaml", "system: bouncing-ball\nsim: {h: 0.002}\n")
    code, _, stderr = run_main(
        ["check", "--mode", "ras", "--scenario", scen,
         "--out", str(tmp_path / "o")],
        tmp_path,
    )
    assert code == 4, stderr
    assert "seed" in json.loads(stderr.splitlines()[-1])["message"]
    assert not (tmp_path / "o").exists()


def test_check_ras_ball_passes_with_seed(tmp_path, run_main):
    scen = write(tmp_path, "ball.yaml", "system: bouncing-ball\nsim: {h: 0.002}\n")
    out = tmp_path / "chk"
    code, stdout, stderr = run_main(
        ["check", "--mode", "ras", "--scenario", scen, "--seed", "0",
         "--out", str(out)],
        tmp_path,
    )
    assert code == 0, stderr
    report = json.loads((out / "check_report.json").read_text())
    assert report["verdict"] == "PASS"
    assert report["stats"]["settle_time"] <= 30.0


def test_seed_flag_reads_a_null_check_section_as_empty(tmp_path, capsys):
    reports = []
    for check in ("null", "{}"):
        scen = write(tmp_path, "ball.yaml", "system: bouncing-ball\n"
                     "sim: {h: 0.002}\ncheck: %s\n" % check)
        out = tmp_path / ("out-%d" % len(reports))
        code = cli.main(["check", "--mode", "ras", "--scenario", scen,
                         "--seed", "0", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        reports.append((out / "check_report.json").read_bytes())
    assert reports[0] == reports[1]
    # a check section that is no mapping still exits 4, as it does under
    # --override check.seed=0: the seed is that override
    scen = write(tmp_path, "ball.yaml", "system: bouncing-ball\ncheck: 5\n")
    out = tmp_path / "out-5"
    code = cli.main(["check", "--mode", "ras", "--scenario", scen,
                     "--seed", "0", "--out", str(out)])
    assert code == 4 and not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ScenarioError"
    assert "cannot override through" in err["message"]


@pytest.mark.parametrize("section, override, command, report", [
    ("sim: {h: 0.002}\ncheck: %s\n", "check.seed=0",
     ["check", "--mode", "ras"], "check_report.json"),
    ("sim: %s\n", "sim.t_max=1", ["simulate"], "report.json"),
], ids=["check", "sim"])
def test_override_reads_a_null_section_as_empty(tmp_path, capsys, section,
                                                override, command, report):
    def run(value, name):
        scen = write(tmp_path, "ball.yaml",
                     "system: bouncing-ball\n" + section % value)
        out = tmp_path / name
        return cli.main(command + ["--scenario", scen, "--override", override,
                                   "--out", str(out)]), out

    reports = []
    for k, value in enumerate(("null", "{}")):
        code, out = run(value, "out-%d" % k)
        assert code == 0, capsys.readouterr().err
        reports.append((out / report).read_bytes())
    assert reports[0] == reports[1]
    # a section that is no mapping still exits 4
    code, out = run("5", "out-5")
    assert code == 4 and not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ScenarioError"
    assert "cannot override through" in err["message"]


def test_check_ras_inconclusive_short_horizon(tmp_path, run_main):
    scen = write(
        tmp_path, "short.yaml",
        "system: bouncing-ball\n"
        "sim: {h: 0.002, t_max: 1.0}\n"
        "spec:\n  kind: ras\n  x0: [[0.0, 9.0, 0.8]]\n"
        "  unsafe: {kind: axis_box, lo: [0, 20, 0], hi: [1, 21, 1]}\n"
        "  target: {kind: axis_box, lo: [-10, -1, -20], hi: [60, 15, 20]}\n"
        "  t_spec: 8.0\n",
    )
    code, stdout, stderr = run_main(
        ["check", "--mode", "ras", "--scenario", scen, "--seed", "0",
         "--out", str(tmp_path / "o")],
        tmp_path,
    )
    assert code == 3, stderr
    assert "INCONCLUSIVE" in stdout


def test_check_unknown_mode(tmp_path, run_main):
    scen = write(tmp_path, "ball.yaml", "system: bouncing-ball\n")
    code, _, stderr = run_main(
        ["check", "--mode", "bogus", "--scenario", scen,
         "--out", str(tmp_path / "o")],
        tmp_path,
    )
    assert code == 4, stderr
    assert json.loads(stderr.splitlines()[-1])["error"] == "ScenarioError"


def test_falsify_clean_barrier(tmp_path):
    scen = write(
        tmp_path, "ball.yaml",
        "system: bouncing-ball\n"
        "check:\n"
        "  grid: {lo: [-1, 0, -14], hi: [21, 10, 14], counts: [3, 9, 9]}\n"
        "  budget: 300\n  seed: 5\n",
    )
    out = tmp_path / "fal"
    code, stdout, stderr = run_cli(
        ["falsify", "--mode", "barrier-flow", "--scenario", scen,
         "--out", str(out)],
        tmp_path,
    )
    assert code == 0, stderr
    assert "none" in stdout
    report = json.loads((out / "falsify.json").read_text())
    assert report == {"condition": "barrier-flow", "found": False}


def test_falsify_finds_violation(tmp_path, run_main):
    scen = write(
        tmp_path, "bad.yaml",
        EXPANSION_SCENARIO.replace("  budget: 300", "  budget: 300\n  seed: 5"),
    )
    out = tmp_path / "fal"
    code, stdout, stderr = run_main(
        ["falsify", "--mode", "flow-decrease", "--scenario", scen,
         "--out", str(out)],
        tmp_path,
    )
    assert code == 1, stderr
    assert "counterexample" in stdout
    report = json.loads((out / "falsify.json").read_text())
    assert report["found"] is True
    x = report["counterexample"]["x"][0]
    # margin for xdot = x, V = x^2 is exactly 3 x^2
    assert report["counterexample"]["margin"] == pytest.approx(3.0 * x * x)


def test_ras_check_asks_the_target_predicate_once_per_stored_sample(
        monkeypatch):
    scenario = cli.parse_scenario(yaml.safe_load(FALLING_MASS_SCENARIO))
    target = scenario.spec.target
    asked = []
    pred = target.pred
    # the region hands the replacement each sample as a list of floats
    target.pred = lambda x: asked.append(list(x)) or pred(x)
    arcs = []
    solve_many = monitor.solve_many

    def kept(*args, **kwargs):
        for rep in solve_many(*args, **kwargs):
            arcs.append(rep.arc)
            yield rep

    monkeypatch.setattr(monitor, "solve_many", kept)
    ck = scenario.check
    rep = cli.check_ras(cli._perturbed(scenario), scenario.spec, ck["n_dist"],
                        scenario.sim, seed=ck["seed"])
    assert rep.counterexamples == []
    # the settle scan reads each arc's phases from the last one back to the
    # last one with a sample outside the target (y > 0.1), and asks the
    # predicate about each of their samples once, in that order
    read = []
    for arc in arcs:
        for _, states in reversed(arc.phases):
            read.extend(states.tolist())
            if (states[:, 0] > 0.1).any():
                break
    assert asked == read
    assert 0 < len(asked) < rep.stats["samples"]


def test_falsify_finds_the_barrier_drop_peak_on_the_jump_band(tmp_path,
                                                              run_main):
    # at delta 0.05 the barrier-jump margin is about 0.05 over most of the
    # jump band and 0.0589 near (0, 0, 0), where grad B is steepest; the
    # descent used to spend all its budget on a seed on the plateau
    scen = write(
        tmp_path, "ball.yaml",
        "system: bouncing-ball\ndelta: 0.05\n"
        "check: {seed: 5, budget: 300, "
        "grid: {lo: [-1, 0, -14], hi: [21, 10, 14], counts: 5}}\n",
    )
    out = tmp_path / "fal"
    code, _, stderr = run_main(
        ["falsify", "--mode", "barrier-jump", "--scenario", scen,
         "--out", str(out)],
        tmp_path,
    )
    assert code == 1, stderr
    report = json.loads((out / "falsify.json").read_text())
    assert report["counterexample"]["margin"] >= 0.058


def test_check_reports_are_deterministic(tmp_path, run_main):
    scen = write(tmp_path, "decay.yaml", DECAY_SCENARIO)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _, stderr = run_main(
            ["check", "--mode", "ras", "--scenario", scen, "--seed", "3",
             "--out", str(out)],
            tmp_path,
        )
        assert code == 0, stderr
        outs.append((out / "check_report.json").read_bytes())
    assert outs[0] == outs[1]


def test_override_dotted_paths(tmp_path, run_main):
    scen = write(tmp_path, "ball.yaml", BALL_SCENARIO)
    out = tmp_path / "sim"
    code, _, stderr = run_main(
        ["simulate", "--scenario", scen, "--out", str(out),
         "--override", "sim.t_max=1.0"],
        tmp_path,
    )
    assert code == 0, stderr
    report = json.loads((out / "report.json").read_text())
    assert report["flow_time"] == 1.0
    assert report["jump_count"] == 0  # first bounce comes after t = 1


def test_override_creates_missing_branches(tmp_path, run_main):
    # check.seed lands through an override even with no check section
    scen = write(tmp_path, "ball.yaml", BALL_SCENARIO)
    code, _, stderr = run_main(
        ["check", "--mode", "invariance", "--scenario", scen,
         "--override", "check.seed=7",
         "--override", "check.invariant={kind: axis_box, lo: [-10, -1, -20], hi: [60, 15, 20]}",
         "--out", str(tmp_path / "o")],
        tmp_path,
    )
    assert code == 0, stderr


def test_no_temp_files_left_behind(tmp_path, run_main):
    scen = write(tmp_path, "ball.yaml", BALL_SCENARIO)
    out = tmp_path / "sim"
    code, _, stderr = run_main(
        ["simulate", "--scenario", scen, "--out", str(out)], tmp_path
    )
    assert code == 0, stderr
    stray = [p for p in tmp_path.rglob("*") if ".tmp" in p.name]
    assert stray == []


@pytest.mark.parametrize("system, name", [
    ("bouncing-ball", "moore-greitzer"),
    ("moore-greitzer", "bouncing-ball"),
    ("{variables: [x], flow_map: ['-x'], jump_map: ['x'],"
     " flow_set: {kind: ball, center: [0], radius: 1},"
     " jump_set: {kind: ball, center: [5], radius: 1}}", "bouncing-ball"),
])
def test_certificate_name_must_match_system(system, name):
    doc = yaml.safe_load("system: %s\ncertificates: %s\n" % (system, name))
    with pytest.raises(cli.ScenarioError, match="certificate name"):
        cli.parse_scenario(doc)


def test_certificate_name_of_its_own_system_is_the_study_pair():
    named = cli.parse_scenario(
        {"system": "bouncing-ball", "certificates": "bouncing-ball"}
    )
    _, study, _ = examples.bouncing_ball()
    P = np.array([[0.0, 5.0, -3.0], [1.0, 0.05, 2.0], [-2.0, 9.0, 0.5]])
    for got, want in ((named.cert.V, study.V), (named.cert.B, study.B)):
        # the study's own fields, gradients included
        assert got.grad is not None
        assert got.value_many(P).tobytes() == want.value_many(P).tobytes()
        assert (got.gradient_many(P).tobytes()
                == want.gradient_many(P).tobytes())
    assert named.cert.omega is not None


def test_write_json_closes_its_file(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cli.write_json(str(tmp_path / "a.json"), {"a": 1})
    assert not [w for w in caught if w.category is ResourceWarning]
    assert json.loads((tmp_path / "a.json").read_text()) == {"a": 1}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_json_refuses_a_non_finite_number(tmp_path, value):
    # the report's conversion writes them (null, +-1e12); anything else
    # that carries one is an error, not a NaN or Infinity token in a file
    with pytest.raises(ValueError):
        cli.write_json(str(tmp_path / "a.json"), {"a": value})
    assert list(tmp_path.iterdir()) == []


def with_key(text, path, key, value=1.0):
    """The scenario text with key: value added to the mapping at path, a
    list of keys and list indices into the document."""
    def edit(doc):
        node = doc
        for part in path:
            node = node[part]
        node[key] = value
    return edited(text, edit)


def wrapped_flow_set(kind, extra):
    """DECAY_SCENARIO with its flow set wrapped in a set of kind, plus the
    keys in extra."""
    def edit(doc):
        inner = doc["system"]["flow_set"]
        node = {"kind": kind, "of": inner if kind == "inflated" else [inner]}
        if kind == "inflated":
            node["r"] = 0.0
        doc["system"]["flow_set"] = dict(node, **extra)
    return edited(DECAY_SCENARIO, edit)


STAB_SAFE_SPEC = {
    "kind": "stability-safety", "x0": [[1.0]],
    "unsafe": {"kind": "axis_box", "lo": [4.0], "hi": [5.0]},
    "attractor": {"kind": "ball", "center": [0.0], "radius": 0.1},
}


# each case is a scenario with one key that its parser does not read, the
# override added to the command line, and that key
@pytest.mark.parametrize("text, overrides, key", [
    (with_key(DECAY_SCENARIO, [], "delat", 0.5), [], "delat"),
    (with_key(DECAY_SCENARIO, [], "params", {"a": 1.0}), [], "params"),
    (with_key(DECAY_SCENARIO, ["system"], "flow_mpa", ["-x"]), [],
     "flow_mpa"),
    (with_key(DECAY_SCENARIO, ["system", "flow_set"], "radius"), [],
     "radius"),
    (with_key(DECAY_SCENARIO, ["system", "jump_set"], "centre", [10.0]), [],
     "centre"),
    (with_key(FALLING_MASS_SCENARIO, ["system", "jump_set"], "sdf", "y"), [],
     "sdf"),
    (with_key(FALLING_MASS_SCENARIO, ["system", "jump_set", "bbox"],
              "counts", 3), [], "counts"),
    (wrapped_flow_set("inflated", {"radius": 0.1}), [], "radius"),
    (wrapped_flow_set("union", {"members": []}), [], "members"),
    (wrapped_flow_set("intersection", {"lo": [0.0]}), [], "lo"),
    (with_key(DECAY_SCENARIO, ["spec"], "tspec", 5.0), [], "tspec"),
    (edited(DECAY_SCENARIO, lambda doc: doc.update(
        spec=dict(STAB_SAFE_SPEC, eps_level=[0.5]))), [], "eps_level"),
    (with_key(EXPANSION_SCENARIO, ["certificates"], "b", "x"), [], "b"),
    (with_key(DECAY_SCENARIO, ["sim"], "tmax"), [], "tmax"),
    (with_key(EXPANSION_SCENARIO, ["check"], "refinement_depth", 2), [],
     "refinement_depth"),
    (with_key(EXPANSION_SCENARIO, ["check", "grid"], "refinement_depth", 2),
     [], "refinement_depth"),
    (DECAY_SCENARIO, ["--override", "sim.tmax=1.0"], "tmax"),
], ids=["top-level", "params-of-inline-system", "system", "axis-box",
        "ball", "implicit", "bbox", "inflated", "union", "intersection",
        "ras-spec", "stability-safety-spec", "certificates", "sim", "check",
        "check-grid", "override"])
def test_unknown_scenario_key_exits_4_naming_it(tmp_path, capsys, text,
                                                overrides, key):
    scen = write(tmp_path, "typo.yaml", text)
    out = tmp_path / "out"
    code = cli.main(["simulate", "--scenario", scen, "--out", str(out)]
                    + overrides)
    stdout, stderr = capsys.readouterr()
    payload = rejected(code, stderr, out)
    assert payload["error"] == "ScenarioError"
    assert repr(key) in payload["message"]
    assert stdout == ""


def falling_mass(edit):
    return edited(FALLING_MASS_SCENARIO, edit)


# five state variables: the default check grid of 21 points per axis has
# 21**5 = 4,084,101 points
FIVE_D_SCENARIO = """\
system:
  variables: [a, b, c, d, f]
  flow_map: ["0", "0", "0", "0", "0"]
  flow_set: {kind: axis_box, lo: [-1, -1, -1, -1, -1], hi: [1, 1, 1, 1, 1]}
  jump_set: {kind: ball, center: [5, 5, 5, 5, 5], radius: 0.1}
  jump_map: ["a", "b", "c", "d", "f"]
  bounds: {kind: axis_box, lo: [-2, -2, -2, -2, -2], hi: [2, 2, 2, 2, 2]}
certificates: {V: "a*a"}
"""


def never(*args, **kwargs):
    raise AssertionError("a scenario past a work cap reached the work")


# each case asks for work past one cap: the scenario, the command line
# before --scenario, and the dotted key the message names.  The first
# three are the robustness cases of the README falling mass: 4e9 starts,
# a falsify budget of 1e12 and 1e13 RK4 steps
@pytest.mark.parametrize("text, args, key", [
    (falling_mass(lambda doc: doc["check"].update(n_dist=1000000000)),
     ["check", "--mode", "ras"], "check.n_dist"),
    (falling_mass(lambda doc: doc["check"].update(
        budget=1e12, grid={"lo": [0.0, -5.0], "hi": [10.0, 5.0],
                           "counts": [5, 5]})),
     ["falsify", "--mode", "flow-decrease"], "check.budget"),
    (falling_mass(lambda doc: doc.update(
        sim={"h": 1e-7, "event_tol": 1e-12, "t_max": 1e6})),
     SIMULATE, "sim.t_max"),
    (falling_mass(lambda doc: doc["sim"].update(t_max=math.nan)),
     SIMULATE, "sim.t_max"),
    (falling_mass(lambda doc: doc["sim"].update(j_max=10 ** 7)),
     SIMULATE, "sim.j_max"),
    (falling_mass(lambda doc: doc["check"].update(
        grid={"lo": [0.0, -5.0], "hi": [10.0, 5.0], "counts": [2000, 501]})),
     SIMULATE, "check.grid.counts"),
    (falling_mass(lambda doc: (
        doc["spec"].update(x0=[[10.0, 0.0], [20.0, 0.0]]),
        doc["check"].update(n_init=1, n_dist=60000))),
     ["check", "--mode", "ras"], "spec.x0"),
    (FIVE_D_SCENARIO, SINGLE_V, "check.grid"),
    ("system: moore-greitzer\nparams: {period: 1.0e-12}\n", SIMULATE,
     "params.period"),
], ids=["4e9-starts", "1e12-budget", "1e13-steps", "nan-t-max",
        "1e7-jumps", "1e6-grid-points", "spec-x0-starts", "default-grid",
        "1e14-decisions"])
def test_scenario_past_a_work_cap_exits_4_naming_the_key(
        tmp_path, capsys, monkeypatch, text, args, key):
    # the work itself is never started, even by a regression
    for name in ("check_ras", "check_single_V", "falsify", "solve"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setattr(cli.ex, "mg_closed_loop", never)
    scen = write(tmp_path, "hostile.yaml", text)
    out = tmp_path / "out"
    start = time.perf_counter()
    code = cli.main(args + ["--seed", "0", "--scenario", scen,
                            "--out", str(out)])
    elapsed = time.perf_counter() - start
    stdout, stderr = capsys.readouterr()
    payload = rejected(code, stderr, out)
    assert payload["error"] == "ScenarioError"
    assert key in payload["message"]
    assert stdout == ""
    assert elapsed < 5.0


def test_work_caps_sit_above_the_shipped_studies():
    # the 100 s Moore-Greitzer loop is 1e5 steps
    scenario = cli.scenario_from({"system": "moore-greitzer"})
    assert scenario.sim.T_max / scenario.sim.h <= cli.MAX_STEPS
    at_cap = {"n_init": 1, "n_dist": cli.MAX_STARTS,
              "budget": cli.MAX_BUDGET}
    doc = yaml.safe_load(FALLING_MASS_SCENARIO)
    doc["check"].update(at_cap)
    assert cli.scenario_from(doc).check["n_dist"] == cli.MAX_STARTS
    doc["check"].update(n_dist=cli.MAX_STARTS + 1)
    with pytest.raises(cli.ScenarioError, match="check.n_dist"):
        cli.scenario_from(doc)


def test_n_init_is_capped_when_no_disturbances_are_drawn():
    # invariance and stability-safety draw n_init starts and no
    # disturbances, so n_dist = 0 must not lift the cap on n_init
    doc = yaml.safe_load(FALLING_MASS_SCENARIO)
    doc["check"].update(n_init=cli.MAX_STARTS + 1, n_dist=0)
    with pytest.raises(cli.ScenarioError, match="check.n_init"):
        cli.scenario_from(doc)


def test_readme_scenario_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    assert yaml.safe_load(block) == yaml.safe_load(FALLING_MASS_SCENARIO)
    scenario = cli.scenario_from(yaml.safe_load(block))
    assert scenario.sim.T_max == 30.0


def test_readme_python_blocks_run_in_order(capsys):
    # one namespace: a later block reads what an earlier one made
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [part.split("```", 1)[0]
              for part in readme.split("```python\n")[1:]]
    assert len(blocks) == 3
    namespace = {}
    for k, block in enumerate(blocks):
        exec(compile(block, "README.md python block %d" % k, "exec"),
             namespace)
    assert capsys.readouterr().out.splitlines()[-1] == "True"


def test_readme_key_table_lists_exactly_the_keys_of_sections():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| section | key | default | allowed values |\n",
                         1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[1:]]
    listed = [tuple(cell.strip().strip("`") for cell in row) for row in rows]
    keys = [(name, key) for name, section in cli.SECTIONS.items()
            for key in section]
    assert len(listed) == len(set(listed))
    assert set(listed) == set(keys)


# The fuzz of cli.main: the README's falling mass and the test scenarios,
# each run by a drawn command, with their work-size keys drawn either small
# (a run of well under a second) or past their cap, then mutated.
FUZZ_BASES = [FALLING_MASS_SCENARIO, DECAY_SCENARIO, EXPANSION_SCENARIO,
              BALL_SCENARIO, decay_certificates(UNIT_BOX, CENTRE_BALL),
              edited(DECAY_SCENARIO, lambda doc: doc.update(
                  spec=STAB_SAFE_SPEC))]
FUZZ_COMMANDS = [["simulate"], ["check", "--mode", "ras"],
                 ["check", "--mode", "stability-safety"],
                 ["check", "--mode", "invariance"],
                 ["check", "--mode", "single-v"],
                 ["check", "--mode", "pair-vb"],
                 ["falsify", "--mode", "flow-decrease"]]
# (section, key): (small values, values past the cap)
WORK_SIZES = {
    ("sim", "t_max"): ([0.1, 0.5], [1e7, math.nan]),
    ("sim", "h"): ([0.01, 0.005], [1e-9]),
    ("sim", "j_max"): ([0, 10], [cli.MAX_JUMPS + 1]),
    ("check", "n_init"): ([1, 2], [cli.MAX_STARTS + 1]),
    ("check", "n_dist"): ([0, 2], [cli.MAX_STARTS + 1]),
    ("check", "budget"): ([1, 40], [cli.MAX_BUDGET + 1]),
}
FUZZ_VALUES = [math.nan, math.inf, -math.inf, -1.0, -0.5, 0, 2.5, 1e308,
               "x", "", None, True, [], [1.0, -2.0], {}, {"kind": "ball"}]
FUZZ_OVERRIDES = ["delta=.nan", "check.tol=-1", "spec.t_spec=.nan",
                  "check.seed=1.5", "sim.t_max=.inf", "check.n_dist=1.0e9",
                  "check.grid={lo: [0], hi: [1], counts: 1000001}",
                  "sim.zz=1", "system.variables=[x, x]"]
FUZZ_SECONDS = 3.0  # per example


class Overran(BaseException):
    """A fuzzed run past FUZZ_SECONDS; not an Exception, so that main does
    not turn it into an exit code."""


def overran(signum, frame):
    raise Overran("a fuzzed run took more than %g s" % FUZZ_SECONDS)


def fuzz_paths(node, path=()):
    """The path of node and of every node below it."""
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from fuzz_paths(child, path + (key,))


def nested_text(inner, depth, style):
    """inner, as JSON, inside depth lists or unions."""
    text = json.dumps(inner)
    if style == "list":
        return "[" * depth + text + "]" * depth
    for _ in range(depth):
        text = '{"kind": "union", "of": [%s]}' % text
    return text


@st.composite
def fuzz_runs(draw):
    """A scenario text and the command line that runs it."""
    doc = yaml.safe_load(draw(st.sampled_from(FUZZ_BASES)))
    # at most one key past its cap, so that most runs reach the work
    past_cap = draw(st.sampled_from(list(WORK_SIZES) + [None] * 18))
    for (section, key), (small, past) in WORK_SIZES.items():
        values = past if (section, key) == past_cap else small
        doc.setdefault(section, {})[key] = draw(st.sampled_from(values))
    doc["check"]["seed"] = 0
    if "grid" in doc["check"]:
        doc["check"]["grid"]["counts"] = draw(st.sampled_from(
            [3, 3, 3, cli.MAX_GRID_POINTS + 1]))
    work = {path: doc[path[0]][path[1]] for path in WORK_SIZES}
    nests = {}
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2]))):
        path = draw(st.sampled_from(list(fuzz_paths(doc))))
        parent = doc
        for part in path[:-1]:
            parent = parent[part]
        node = parent[path[-1]] if path else doc
        how = draw(st.sampled_from(["replace", "unknown-key", "delete",
                                    "nest"]))
        if how == "unknown-key" and isinstance(node, dict):
            node["zz_unknown"] = 1.0
        elif how == "delete" and path and isinstance(parent, dict):
            del parent[path[-1]]
        elif how == "nest" and path:
            mark = "nest-%d" % len(nests)
            nests[mark] = nested_text(node, draw(st.sampled_from(
                [1, 2, 3, 500])), draw(st.sampled_from(["list", "union"])))
            parent[path[-1]] = mark
        elif how == "replace" and path:
            parent[path[-1]] = draw(st.sampled_from(FUZZ_VALUES))
    # a deleted or emptied work-size key would fall back to its default,
    # which is neither small nor past its cap
    for (section, key), value in work.items():
        if doc.get(section) in (None, {}):
            doc[section] = {}
        if isinstance(doc[section], dict):
            doc[section].setdefault(key, value)
    text = json.dumps(doc)
    for mark, nested in nests.items():
        text = text.replace(json.dumps(mark), nested)
    args = list(draw(st.sampled_from(FUZZ_COMMANDS)))
    override = draw(st.sampled_from(FUZZ_OVERRIDES + [None] * 27))
    if override is not None:
        args += ["--override", override]
    return text, args


@settings(max_examples=400, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=fuzz_runs())
def test_fuzzed_scenarios_exit_0_to_4_with_json_lines_on_stderr(run):
    text, args = run
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        scen = os.path.join(tmp, "fuzz.yaml")
        with open(scen, "w") as fh:
            fh.write(text)
        previous = signal.signal(signal.SIGALRM, overran)
        signal.setitimer(signal.ITIMER_REAL, FUZZ_SECONDS)
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(args + ["--scenario", scen,
                                        "--out", os.path.join(tmp, "out")])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2, 3, 4)
    lines = json_lines(stderr.getvalue())
    assert lines or code in (0, 1, 3)  # a rejected run says why
