"""Pass/fail reports with witnesses, as JSON-ready dicts (`serialize.dumps` writes them)."""

from __future__ import annotations

from typing import Iterable, NamedTuple


class Check(NamedTuple):
    """A named check; it passes exactly when it has no witness."""

    name: str
    witness: str | None

    @property
    def passed(self) -> bool:
        return self.witness is None


class Report:
    """Checks in the order they ran; `seed` and `data` are serialized when set."""

    def __init__(self, title: str):
        self.title = title
        self.checks: list[Check] = []
        self.seed: int | None = None
        self.data: dict = {}

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, witness: str | None):
        self.checks.append(Check(name, witness))

    def first_failure(self, name: str, witnesses: Iterable[str]):
        """Record a check whose witness is the first one `witnesses` yields, if any.

        Only the first witness is taken, so a lazy iterable stops being
        evaluated at the first failure.
        """
        self.add(name, next(iter(witnesses), None))

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
                {"name": c.name, "pass": c.passed, **({} if c.passed else {"witness": c.witness})}
                for c in self.checks
            ],
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.data:
            out["data"] = self.data
        return out

    def summary(self) -> str:
        ok = sum(1 for c in self.checks if c.passed)
        return f"{self.title}: {'PASS' if self.passed else 'FAIL'} ({ok}/{len(self.checks)} checks)"
