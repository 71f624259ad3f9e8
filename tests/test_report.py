"""Check reports: the one rule that turns a check's evidence into its
verdict."""

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
