"""Pass/fail reports with witnesses, serializable to deterministic JSON."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class Check:
    name: str
    passed: bool
    witness: str | None = None


@dataclass
class Report:
    title: str
    checks: list[Check] = field(default_factory=list)
    seed: int | None = None
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, witness: str | None = None):
        self.checks.append(Check(name, passed, witness))

    def first_failure(self, name: str, witnesses: Iterable[str]):
        """Record a check that passes exactly when `witnesses` yields nothing.

        Only the first witness is taken, so a lazy iterable stops being
        evaluated at the first failure.
        """
        witness = next(iter(witnesses), None)
        self.add(name, witness is None, witness)

    def merge(self, other: "Report"):
        self.checks.extend(other.checks)
        self.data.update(other.data)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        out = {
            "title": self.title,
            "pass": self.passed,
            "checks": [
                {"name": c.name, "pass": c.passed, **({"witness": c.witness} if c.witness else {})}
                for c in self.checks
            ],
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.data:
            out["data"] = self.data
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def summary(self) -> str:
        ok = sum(1 for c in self.checks if c.passed)
        return f"{self.title}: {'PASS' if self.passed else 'FAIL'} ({ok}/{len(self.checks)} checks)"
