"""Tests for the exception hierarchy and public API surface."""

import doctest

import pytest

import repro
from repro import errors


ALL_ERRORS = [
    errors.ConfigError,
    errors.SimulationError,
    errors.CryptoError,
    errors.KeyMismatchError,
    errors.SignatureError,
    errors.ReplayError,
    errors.NetworkError,
    errors.UnknownNodeError,
    errors.OnionError,
    errors.OnionPeelError,
    errors.StaleOnionError,
    errors.ProtocolError,
    errors.AgentError,
    errors.NoTrustedAgentsError,
]


@pytest.mark.parametrize("exc", ALL_ERRORS)
def test_every_error_derives_from_repro_error(exc):
    assert issubclass(exc, errors.ReproError)


def test_specific_hierarchies():
    assert issubclass(errors.KeyMismatchError, errors.CryptoError)
    assert issubclass(errors.ReplayError, errors.CryptoError)
    assert issubclass(errors.UnknownNodeError, errors.NetworkError)
    assert issubclass(errors.UnknownNodeError, KeyError)
    assert issubclass(errors.OnionPeelError, errors.OnionError)
    assert issubclass(errors.NoTrustedAgentsError, errors.AgentError)
    assert issubclass(errors.ConfigError, ValueError)


def test_all_exports_resolve():
    for name in errors.__all__:
        assert hasattr(errors, name)


def test_package_docstring_example_runs():
    results = doctest.testmod(repro, verbose=False)
    assert results.failed == 0
    assert results.attempted >= 1


def test_top_level_exports():
    assert hasattr(repro, "HiRepSystem")
    assert hasattr(repro, "HiRepConfig")
    assert hasattr(repro, "PureVotingSystem")
    assert hasattr(repro, "__version__")
    for name in repro.__all__:
        assert hasattr(repro, name)


@pytest.mark.parametrize(
    "module_name",
    [
        "repro.sim",
        "repro.crypto",
        "repro.net",
        "repro.onion",
        "repro.core",
        "repro.baselines",
        "repro.attacks",
        "repro.workloads",
        "repro.experiments",
        "repro.structured",
    ],
)
def test_subpackage_all_exports_resolve(module_name):
    import importlib

    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.{name} missing"


def test_obs_lazy_exports_are_never_shadowed_by_a_submodule():
    """``repro.obs`` exports lazily (PEP 562), and a submodule import sets
    an attribute of the same name on the package first: an export that
    shares a submodule's name hands out the module.  ``repro.core.registry``
    imports ``repro.obs.capture``, so check after it has."""
    import importlib
    import types

    import repro.core.registry  # noqa: F401  (imports repro.obs.capture)
    import repro.obs

    for name in repro.obs.__all__:
        home = importlib.import_module(repro.obs._HOME_OF[name])
        exported = getattr(repro.obs, name)
        assert not isinstance(exported, types.ModuleType), name
        assert exported is getattr(home, name), name
    assert sorted(repro.obs._HOME_OF) == sorted(repro.obs.__all__)
