"""Check reports: the one rule that turns a check's evidence into its
verdict."""

import json
import math

import numpy as np
import pytest

from hybridcert import CheckReport, Counterexample, Verdict


CE = Counterexample("safety", [0.0], margin=1.0)


@pytest.mark.parametrize("evidence, ces, verdict", [
    (True, [], Verdict.PASS),
    (True, [CE], Verdict.FAIL),
    (False, [], Verdict.INCONCLUSIVE),
    (False, [CE], Verdict.INCONCLUSIVE),
])
def test_judge_without_evidence_is_inconclusive_whatever_was_found(
        evidence, ces, verdict):
    stats = {"arcs": 2}
    rep = CheckReport.judge(ces, stats, evidence=evidence)
    assert rep.verdict == verdict
    assert rep.counterexamples is ces
    assert rep.stats is stats


def test_judge_has_evidence_by_default():
    assert CheckReport.judge([], {}).verdict == Verdict.PASS
    assert CheckReport.judge([CE], {}).verdict == Verdict.FAIL


def test_report_json_maps_numpy_enums_nan_and_inf_to_json_values():
    # JSON has no NaN or infinity: NaN becomes null and +-inf +-1e12
    stats = {
        "array": np.array([[1.0, 2.5], [3.0, -0.0]]),
        "float64": np.float64(0.25),
        "int64": np.int64(7),
        "verdict": Verdict.INCONCLUSIVE,
        "nan": math.nan,
        "inf": math.inf,
        "minus_inf": -math.inf,
        "nested": {"levels": (np.int64(1), math.inf), 0.5: [math.nan]},
    }
    ce = Counterexample("safety", np.array([1.0, 2.0]), margin=math.inf,
                        witness=(np.int64(2), np.float64(0.5)))
    obj = CheckReport(Verdict.FAIL, [ce], stats).to_json_obj()
    assert obj == {
        "verdict": "FAIL",
        "counterexamples": [{"condition": "safety", "margin": 1e12,
                             "x": [1.0, 2.0], "witness": {"j": 2, "t": 0.5}}],
        "stats": {
            "array": [[1.0, 2.5], [3.0, -0.0]],
            "float64": 0.25,
            "int64": 7,
            "verdict": "INCONCLUSIVE",
            "nan": None,
            "inf": 1e12,
            "minus_inf": -1e12,
            "nested": {"levels": [1, 1e12], 0.5: [None]},
        },
    }
    assert type(obj["stats"]["float64"]) is float
    assert type(obj["stats"]["int64"]) is int
    assert type(obj["stats"]["nested"]["levels"][0]) is int
    json.dumps(obj, allow_nan=False)


def test_report_json_clamps_numpy_nan_and_inf_as_python_floats():
    stats = {"nan64": np.float64("nan"), "inf64": np.float64("inf"),
             "array": np.array([[np.inf, -np.inf], [np.nan, 1.0]])}
    obj = CheckReport(Verdict.PASS, [], stats).to_json_obj()
    assert obj["stats"] == {"nan64": None, "inf64": 1e12,
                            "array": [[1e12, -1e12], [None, 1.0]]}
    json.dumps(obj, allow_nan=False)
