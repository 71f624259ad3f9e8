"""End-to-end command line runs via subprocess."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import yaml

import hybridcert
from hybridcert import cli

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


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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
    header = (out / "barrier_series.csv").read_text().splitlines()[0]
    assert header == "j,t,V,B"


def test_example_moore_greitzer(tmp_path):
    out = tmp_path / "out"
    code, stdout, stderr = run_cli(
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


def test_example_unknown_name(tmp_path):
    code, _, stderr = run_cli(["example", "no-such-study"], tmp_path)
    assert code == 4, stderr
    assert json.loads(stderr.splitlines()[-1])["error"] == "ScenarioError"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, overrides", [
    ("bouncing-ball", []),
    ("moore-greitzer", ["sim.t_max=5"]),
])
def test_example_and_simulate_write_the_same_arc(tmp_path, name, overrides):
    scen = write(tmp_path, "study.yaml", "system: %s\n" % name)
    runs = [["example", name], ["simulate", "--scenario", scen]]
    extra = [a for pair in overrides for a in ("--override", pair)]
    arcs = []
    for k, args in enumerate(runs):
        out = tmp_path / str(k)
        code, _, stderr = run_cli(args + extra + ["--out", str(out)], tmp_path)
        assert code == 0, stderr
        arcs.append((out / "arc.csv").read_bytes())
    assert arcs[0] == arcs[1]


def test_simulate_rejects_delta_on_moore_greitzer(tmp_path):
    scen = write(tmp_path, "mg.yaml", "system: moore-greitzer\ndelta: 0.01\n")
    out = tmp_path / "sim"
    code, _, stderr = run_cli(
        ["simulate", "--scenario", scen, "--out", str(out)], tmp_path
    )
    assert code == 4, stderr
    payload = json.loads(stderr.splitlines()[-1])
    assert payload["error"] == "ScenarioError"
    assert "delta" in payload["message"]
    assert not out.exists()


def flow(source):
    return [('["-x"]', json.dumps([source]))]


def variable(name):
    return [("variables: [x]", "variables: [%s]" % name),
            ('["-x"]', '["1.0"]'), ('jump_map: ["x"]', 'jump_map: ["0.0"]')]


# each case is a list of (old, new) edits of DECAY_SCENARIO and a piece of
# the message; 100kB-source is a flat source with an unknown name, which
# the message quotes
@pytest.mark.parametrize("edits, message", [
    (flow("10**400"), "OverflowError"),
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
], ids=["overflow", "deep-nesting", "zero-division", "100kB-source",
        "keyword-variable", "None-variable", "__debug__-variable",
        "number-variable", "list-predicate", "list-certificate"])
def test_hostile_expression_exits_4_with_one_json_object(tmp_path, edits,
                                                         message):
    text = DECAY_SCENARIO
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    scen = write(tmp_path, "hostile.yaml", text)
    out = tmp_path / "sim"
    code, _, stderr = run_cli(
        ["simulate", "--scenario", scen, "--out", str(out)], tmp_path
    )
    assert code == 4, stderr[:1000]
    assert len(stderr.splitlines()) == 1
    assert len(stderr.encode()) < 1024
    payload = json.loads(stderr)
    assert payload["error"] == "ExpressionError"
    assert message in payload["message"]
    assert not out.exists()


# scenario nodes that the error messages quote: a 90 kB list where a set
# belongs, and 100 kB names of a set kind and of a system
@pytest.mark.parametrize("edit", [
    lambda doc: doc["system"].update(flow_set=[0] * 30000),
    lambda doc: doc["system"]["flow_set"].update(kind="k" * 100000),
    lambda doc: doc.update(system="s" * 100000),
], ids=["30000-zero-flow-set", "100kB-set-kind", "100kB-system-name"])
def test_hostile_scenario_node_exits_4_with_one_json_object(tmp_path, edit):
    doc = yaml.safe_load(DECAY_SCENARIO)
    edit(doc)
    scen = write(tmp_path, "hostile.yaml", json.dumps(doc))
    out = tmp_path / "sim"
    code, _, stderr = run_cli(
        ["simulate", "--scenario", scen, "--out", str(out)], tmp_path
    )
    assert code == 4, stderr[:1000]
    assert len(stderr.splitlines()) == 1
    assert len(stderr.encode()) < 1024
    assert json.loads(stderr)["error"] == "ScenarioError"
    assert not out.exists()


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
    assert report["jump_count"] == 1  # one bounce happens before t = 2


def test_simulate_inline_system(tmp_path):
    scen = write(tmp_path, "decay.yaml", DECAY_SCENARIO)
    out = tmp_path / "sim"
    code, _, stderr = run_cli(
        ["simulate", "--scenario", scen, "--out", str(out)], tmp_path
    )
    assert code == 0, stderr
    report = json.loads((out / "report.json").read_text())
    assert abs(report["final_state"][0]) < 0.01


def test_simulate_bad_initial_condition(tmp_path):
    scen = write(
        tmp_path, "bad.yaml",
        BALL_SCENARIO
        + "spec:\n  kind: ras\n  x0: [[0.0, -1.0, 0.5]]\n"
        + "  unsafe: {kind: axis_box, lo: [0, 10, 0], hi: [1, 11, 1]}\n"
        + "  target: {kind: axis_box, lo: [0, 0, 0], hi: [1, 1, 1]}\n"
        + "  t_spec: 1.0\n",
    )
    code, _, stderr = run_cli(
        ["simulate", "--scenario", scen, "--out", str(tmp_path / "o")],
        tmp_path,
    )
    assert code == 2, stderr
    payload = json.loads(stderr.splitlines()[-1])
    assert payload["error"] == "BadInitialCondition"
    assert not (tmp_path / "o").exists()


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
                                              condition):
    scen = write(tmp_path, "falling.yaml", FALLING_MASS_SCENARIO)
    out = tmp_path / "chk"
    args = ["check", "--mode", mode, "--scenario", scen, "--out", str(out)]
    for pair in overrides:
        args += ["--override", pair]
    code, stdout, stderr = run_cli(args, tmp_path)
    assert code == 1, stderr
    assert "Traceback" not in stderr
    assert stdout.strip() == "check[%s]: FAIL" % mode
    report = strict_json((out / "check_report.json").read_text())
    assert report["verdict"] == "FAIL"
    assert report["counterexamples"][0]["condition"] == condition


def test_check_ras_requires_seed(tmp_path):
    scen = write(tmp_path, "ball.yaml", "system: bouncing-ball\nsim: {h: 0.002}\n")
    code, _, stderr = run_cli(
        ["check", "--mode", "ras", "--scenario", scen,
         "--out", str(tmp_path / "o")],
        tmp_path,
    )
    assert code == 4, stderr
    assert "seed" in json.loads(stderr.splitlines()[-1])["message"]
    assert not (tmp_path / "o").exists()


def test_check_ras_ball_passes_with_seed(tmp_path):
    scen = write(tmp_path, "ball.yaml", "system: bouncing-ball\nsim: {h: 0.002}\n")
    out = tmp_path / "chk"
    code, stdout, stderr = run_cli(
        ["check", "--mode", "ras", "--scenario", scen, "--seed", "0",
         "--out", str(out)],
        tmp_path,
    )
    assert code == 0, stderr
    report = json.loads((out / "check_report.json").read_text())
    assert report["verdict"] == "PASS"
    assert report["stats"]["settle_time"] <= 30.0


def test_check_ras_inconclusive_short_horizon(tmp_path):
    scen = write(
        tmp_path, "short.yaml",
        "system: bouncing-ball\n"
        "sim: {h: 0.002, t_max: 1.0}\n"
        "spec:\n  kind: ras\n  x0: [[0.0, 9.0, 0.8]]\n"
        "  unsafe: {kind: axis_box, lo: [0, 20, 0], hi: [1, 21, 1]}\n"
        "  target: {kind: axis_box, lo: [-10, -1, -20], hi: [60, 15, 20]}\n"
        "  t_spec: 8.0\n",
    )
    code, stdout, stderr = run_cli(
        ["check", "--mode", "ras", "--scenario", scen, "--seed", "0",
         "--out", str(tmp_path / "o")],
        tmp_path,
    )
    assert code == 3, stderr
    assert "INCONCLUSIVE" in stdout


def test_check_unknown_mode(tmp_path):
    scen = write(tmp_path, "ball.yaml", "system: bouncing-ball\n")
    code, _, stderr = run_cli(
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


def test_falsify_finds_violation(tmp_path):
    scen = write(
        tmp_path, "bad.yaml",
        EXPANSION_SCENARIO.replace("  budget: 300", "  budget: 300\n  seed: 5"),
    )
    out = tmp_path / "fal"
    code, stdout, stderr = run_cli(
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


def test_check_reports_are_deterministic(tmp_path):
    scen = write(tmp_path, "decay.yaml", DECAY_SCENARIO)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _, stderr = run_cli(
            ["check", "--mode", "ras", "--scenario", scen, "--seed", "3",
             "--out", str(out)],
            tmp_path,
        )
        assert code == 0, stderr
        outs.append((out / "check_report.json").read_bytes())
    assert outs[0] == outs[1]


def test_override_dotted_paths(tmp_path):
    scen = write(tmp_path, "ball.yaml", BALL_SCENARIO)
    out = tmp_path / "sim"
    code, _, stderr = run_cli(
        ["simulate", "--scenario", scen, "--out", str(out),
         "--override", "sim.t_max=1.0"],
        tmp_path,
    )
    assert code == 0, stderr
    report = json.loads((out / "report.json").read_text())
    assert report["flow_time"] == 1.0
    assert report["jump_count"] == 0  # first bounce comes after t = 1


def test_override_creates_missing_branches(tmp_path):
    # check.seed lands through an override even with no check section
    scen = write(tmp_path, "ball.yaml", BALL_SCENARIO)
    code, _, stderr = run_cli(
        ["check", "--mode", "invariance", "--scenario", scen,
         "--override", "check.seed=7",
         "--override", "check.invariant={kind: axis_box, lo: [-10, -1, -20], hi: [60, 15, 20]}",
         "--out", str(tmp_path / "o")],
        tmp_path,
    )
    assert code == 0, stderr


def test_no_temp_files_left_behind(tmp_path):
    scen = write(tmp_path, "ball.yaml", BALL_SCENARIO)
    out = tmp_path / "sim"
    code, _, stderr = run_cli(
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
    assert named.cert.V.name == "ball-V"
    assert named.cert.B.name == "ball-B"


def test_write_json_closes_its_file(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cli.write_json(str(tmp_path / "a.json"), {"a": 1})
    assert not [w for w in caught if w.category is ResourceWarning]
    assert json.loads((tmp_path / "a.json").read_text()) == {"a": 1}
