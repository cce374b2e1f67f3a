"""Bundled hirep-lint rules.

Importing this package registers every rule with the registry.  To add a
rule: create a module here, subclass :class:`repro.devtools.lint.registry.Rule`,
decorate it with ``@register``, and import the module below.
"""

from repro.devtools.lint.rules import (
    api,
    architecture,
    determinism,
    execution,
    layering,
    observability,
    serving,
)

__all__ = [
    "api",
    "architecture",
    "determinism",
    "execution",
    "layering",
    "observability",
    "serving",
]
