"""Developer tooling that ships with the library but is not imported by it.

One subpackage: :mod:`repro.devtools.lint`, the ``hirep-lint`` static
analyzer that enforces the determinism, scheduler, serving and layering
invariants the simulation's reproducibility guarantees rest on.
"""
