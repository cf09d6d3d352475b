"""Pass/fail reports produced by the verification suites.

A Report is an ordered list of named checks.  Checks carry a status of
"pass", "fail", or "info"; "info" lines record observations that are
reported without being asserted and never affect the overall verdict.
"""

from __future__ import annotations

from typing import Iterable, List, Optional


def first_failure(cases: Iterable[tuple]) -> Optional[tuple]:
    """The first case (key, lhs, rhs) whose two sides differ, or None
    when every case holds.

    Every check that reports a single witness states its cases as an
    ordered, lazily generated family and reports the first failing one in
    that order; the family is consumed only up to that case, so a failing
    check stops early and a passing one evaluates every case.  Relations
    between functionals order their cases through
    envelope._first_difference instead (see envelope.functional_equal)."""
    for case in cases:
        if case[1] != case[2]:
            return case
    return None


class Check:
    __slots__ = ("name", "status", "detail")

    def __init__(self, name: str, status: str, detail: str = ""):
        if status not in ("pass", "fail", "info"):
            raise ValueError("bad status %r" % (status,))
        self.name = name
        self.status = status
        self.detail = detail

    def __repr__(self):
        out = "[%s] %s" % (self.status.upper(), self.name)
        if self.detail:
            out += " -- " + self.detail
        return out


class Report:
    def __init__(self, title: str):
        self.title = title
        self.checks: List[Check] = []

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(name, "pass" if passed else "fail", detail))

    def info(self, name: str, detail: str = "") -> None:
        self.checks.append(Check(name, "info", detail))

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def failures(self) -> List[Check]:
        return [c for c in self.checks if c.status == "fail"]

    def find(self, name: str) -> Optional[Check]:
        for c in self.checks:
            if c.name == name:
                return c
        return None

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail}
                for c in self.checks
            ],
        }

    def render(self) -> str:
        lines = ["== %s ==" % self.title]
        for c in self.checks:
            lines.append("  " + repr(c))
        lines.append("overall: %s" % ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)

    def __repr__(self):
        return self.render()
