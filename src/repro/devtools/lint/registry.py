"""Rule base class and the one rule registry.

A rule is a class with a ``code``, a ``name`` and either a per-file
``check(ctx)`` or — when ``whole_program`` is set — a ``check_project``
over the assembled import graph.  Both kinds live in the same
registry, are listed by ``--list-rules``, selected by ``--select`` and
suppressed by the same inline pragma.  Registration is a decorator, so
dropping a module into :mod:`repro.devtools.lint.rules` and importing it
from that package's ``__init__`` is all it takes to add a rule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Type

from repro.devtools.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.devtools.lint.engine import FileContext
    from repro.devtools.lint.graphs import Project

_REGISTRY: dict[str, "Rule"] = {}


def in_packages(module: str | None, packages: Iterable[str]) -> bool:
    """True when ``module`` is one of ``packages`` or lives below one."""
    return module is not None and any(
        module == pkg or module.startswith(pkg + ".") for pkg in packages
    )


class Rule:
    """Base class for lint rules."""

    #: unique short identifier, e.g. ``DET001``
    code: str = ""
    #: one-line summary shown by ``--list-rules``
    name: str = ""
    #: dotted module prefixes a per-file rule applies to; ``None`` means
    #: every file handed to the linter.  ``("repro.sim",)`` matches
    #: ``repro.sim`` and everything below it.
    packages: tuple[str, ...] | None = None
    #: whole-program rules implement :meth:`check_project` and run once
    #: over the import graph instead of once per file.
    whole_program: bool = False

    def applies_to(self, module: str | None) -> bool:
        return self.packages is None or in_packages(module, self.packages)

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        raise NotImplementedError

    def check_project(self, project: "Project") -> Iterator[Finding]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rule {self.code}>"


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and add the rule to the registry."""
    rule = cls()
    if not rule.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    _REGISTRY[rule.code] = rule
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by code (imports the bundled set)."""
    import repro.devtools.lint.rules  # noqa: F401  (side-effect: registration)

    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def resolve_rules(select: Iterable[str] | None = None) -> list[Rule]:
    """The active rule set: everything, or just the ``select``-ed codes."""
    rules = all_rules()
    if select:
        wanted = set(select)
        unknown = wanted - {r.code for r in rules}
        if unknown:
            raise KeyError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
        rules = [r for r in rules if r.code in wanted]
    return rules
