"""Shared report records for randomized verification runs."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LawFailure:
    """One violated law instance: which law, on what input, by how much."""

    law: str
    inputs: str
    discrepancy: float

    def to_dict(self) -> dict:
        return {"law": self.law, "inputs": self.inputs,
                "discrepancy": self.discrepancy}


def _describe(**parts) -> str:
    rendered = []
    for key in sorted(parts):
        value = parts[key]
        if isinstance(value, (int, float, str)):
            rendered.append(f"{key}={value}")
        else:
            arr = np.array2string(np.asarray(value), precision=6,
                                  separator=",", suppress_small=True)
            rendered.append(f"{key}={arr}")
    return " ".join(rendered).replace("\n", "")


class LawRecorder:
    """Collects law checks: the largest discrepancy and every failure past ``tol``."""

    def __init__(self, tol: float):
        self.tol = tol
        self.failures: list[LawFailure] = []
        self.max_discrepancy = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, law: str, discrepancy: float, inputs: str = "", **arrays) -> None:
        """Record one check; ``arrays`` are rendered as the inputs only on failure."""
        discrepancy = float(discrepancy)
        self.max_discrepancy = max(self.max_discrepancy, discrepancy)
        if discrepancy > self.tol:
            self.failures.append(LawFailure(law, inputs or _describe(**arrays), discrepancy))

    def require(self, law: str, condition: bool, inputs: str = "") -> None:
        self.check(law, 0.0 if condition else 1.0, inputs)


@dataclass(frozen=True)
class VerificationReport:
    """Result of one verification suite run under a fixed seed."""

    suite: str
    seed: int
    trials: int
    failures: tuple[LawFailure, ...]
    max_discrepancy: float
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self, include_elapsed: bool = True) -> dict:
        data = {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "failures": [f.to_dict() for f in self.failures],
            "max_discrepancy": self.max_discrepancy,
        }
        if include_elapsed:
            data["elapsed_s"] = self.elapsed_s
        return data

    def to_json(self, include_elapsed: bool = True) -> str:
        return json.dumps(self.to_dict(include_elapsed), sort_keys=True)
