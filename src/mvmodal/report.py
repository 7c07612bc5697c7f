"""The pass/fail report of every checker, the typed errors, and the input readers."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Violation:
    """One failed law, with the smallest witness the checker found."""

    law: str
    witness: tuple
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "law": self.law,
            "witness": [repr(w) if not isinstance(w, (int, str, float)) else w for w in self.witness],
            "detail": self.detail,
        }


@dataclass
class ValidationReport:
    """Outcome of an exhaustive (possibly budget-truncated) check.

    ``ok`` means no violation was found among the cases actually checked.
    ``skipped`` lists case groups the budget refused, so a report with a
    non-empty skip list is a bounded certificate, not a theorem.
    """

    subject: str
    ok: bool = True
    checked: int = 0
    violations: list[Violation] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def fail(self, law: str, witness: tuple, detail: str = "") -> None:
        self.ok = False
        self.violations.append(Violation(law, witness, detail))

    def skip(self, reason: str) -> None:
        self.skipped.append(reason)

    def merge(self, other: "ValidationReport") -> None:
        self.ok = self.ok and other.ok
        self.checked += other.checked
        self.violations.extend(other.violations)
        self.skipped.extend(other.skipped)
        self.notes.extend(f"{other.subject}: {n}" for n in other.notes)

    @property
    def complete(self) -> bool:
        return not self.skipped

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "complete": self.complete,
            "checked": self.checked,
            "violations": [v.to_dict() for v in self.violations],
            "skipped": list(self.skipped),
            "notes": list(self.notes),
        }

    def summary(self) -> str:
        status = "pass" if self.ok else "FAIL"
        extra = "" if self.complete else f" ({len(self.skipped)} case groups skipped by budget)"
        if self.violations:
            v = self.violations[0]
            extra += f"; first violation: {v.law} at {v.witness}"
            if v.detail:
                extra += f" [{v.detail}]"
        return f"{self.subject}: {status}, {self.checked} cases checked{extra}"


class BudgetError(Exception):
    """An enumeration was refused because a carrier is too large."""

    def __init__(self, what: str, size: int | str, budget: int):
        self.what = what
        self.size = size
        self.budget = budget
        super().__init__(f"budget exceeded: {what} has {size} elements (cap {budget})")


class InputError(Exception):
    """Malformed file, config, or argument."""


def as_int(value, what: str = "value") -> int:
    """value itself when it is an int and not a bool; otherwise an InputError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def read_json(source):
    """The parsed JSON file at source when it is a path; any other source is
    taken as the already-parsed value."""
    if not isinstance(source, (str, Path)):
        return source
    try:
        with open(source, encoding="utf-8") as fh:
            return json.load(fh)
    except (UnicodeDecodeError, RecursionError) as exc:  # not text, or nested past the stack
        raise InputError(f"{source}: unreadable JSON ({type(exc).__name__})") from None
