"""The finding primitive shared by rules, engine and reporters."""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Every finding fails the run; the only way to sanction one is an
    inline ``# lint: allow[RULE]`` pragma on the line it is reported at.
    """

    rule: str
    message: str
    path: str  # repo-relative posix path
    line: int
    col: int

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        return asdict(self)


def sort_findings(findings: list[Finding]) -> list[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
