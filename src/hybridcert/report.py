"""Check reports shared by the monitors, certificate checkers and verifier."""

from dataclasses import dataclass, field
from enum import Enum


class Verdict(Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class Counterexample:
    """A violating probe: grid point or arc sample, its condition, its margin.

    margin is the signed violation amount (positive = condition broken);
    witness carries (j, t) for arc samples, None for static points.
    """

    condition: str
    point: object
    margin: float
    witness: tuple = None

    def to_json_obj(self):
        obj = {
            "condition": self.condition,
            "margin": _jsonable(self.margin),
            "x": [float(v) for v in self.point] if self.point is not None else None,
        }
        if self.witness is not None:
            obj["witness"] = {"j": int(self.witness[0]), "t": float(self.witness[1])}
        return obj


@dataclass
class CheckReport:
    verdict: Verdict
    counterexamples: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict == Verdict.FAIL and not self.counterexamples:
            raise ValueError("FAIL verdict needs at least one counterexample")

    @classmethod
    def judge(cls, counterexamples, stats, evidence=True):
        """The report of a check: INCONCLUSIVE without evidence, whatever
        was found; otherwise FAIL with counterexamples and PASS without."""
        if not evidence:
            verdict = Verdict.INCONCLUSIVE
        elif counterexamples:
            verdict = Verdict.FAIL
        else:
            verdict = Verdict.PASS
        return cls(verdict, counterexamples, stats)

    @property
    def passed(self):
        return self.verdict == Verdict.PASS

    def to_json_obj(self):
        return {
            "verdict": self.verdict.value,
            "counterexamples": [c.to_json_obj() for c in self.counterexamples],
            "stats": _jsonable(self.stats),
        }


def _jsonable(value):
    import numpy as np

    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.floating, np.integer)):
        return _jsonable(value.item())
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
        # JSON has no inf/nan; clamp for report emission
        if value != value:
            return None
        return 1e12 if value > 0 else -1e12
    return value
