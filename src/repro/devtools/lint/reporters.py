"""Output formats: human text, machine JSON, GitHub workflow annotations."""

from __future__ import annotations

import json
from typing import TextIO

from repro.devtools.lint.findings import Finding


def report_text(findings: list[Finding], errors: list[str], stream: TextIO) -> None:
    for f in findings:
        print(f"{f.location}: {f.rule} {f.message}", file=stream)
    for err in errors:
        print(f"error: {err}", file=stream)
    print(
        f"hirep-lint: {len(findings)} finding(s), {len(errors)} error(s)",
        file=stream,
    )


def report_json(findings: list[Finding], errors: list[str], stream: TextIO) -> None:
    payload = {"findings": [f.to_dict() for f in findings], "errors": errors}
    print(json.dumps(payload, indent=2, sort_keys=True), file=stream)


def _escape_gh(text: str) -> str:
    """GitHub workflow-command data escaping."""
    return text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def report_github(findings: list[Finding], errors: list[str], stream: TextIO) -> None:
    """``::error`` annotations GitHub renders inline on PRs."""
    for f in findings:
        print(
            f"::error file={f.path},line={f.line},col={f.col},"
            f"title={f.rule}::{_escape_gh(f.message)}",
            file=stream,
        )
    for err in errors:
        print(f"::error title=hirep-lint::{_escape_gh(err)}", file=stream)


REPORTERS = {"text": report_text, "json": report_json, "github": report_github}
