"""Shared utilities: error hierarchy and small helpers."""

from repro.util.errors import (
    ReproError,
    GeometryError,
    SingularMatrixError,
    SymbolicError,
    GuardError,
    SourceProgramError,
    RequirementViolation,
    RestrictionViolation,
    SystolicSpecError,
    InconsistentDistributionError,
    CompilationError,
    BackendUnsupportedError,
    MissingDependencyError,
    RuntimeSimulationError,
    DeadlockError,
    VerificationError,
)

__all__ = [
    "env_int",
    "lazy_exports",
    "ReproError",
    "GeometryError",
    "SingularMatrixError",
    "SymbolicError",
    "GuardError",
    "SourceProgramError",
    "RequirementViolation",
    "RestrictionViolation",
    "SystolicSpecError",
    "InconsistentDistributionError",
    "CompilationError",
    "BackendUnsupportedError",
    "MissingDependencyError",
    "RuntimeSimulationError",
    "DeadlockError",
    "VerificationError",
    "require_numpy",
]


def env_int(name: str, default: int, *, minimum: int | None = None) -> int:
    """Read an integer configuration knob from the environment.

    An unset or empty variable yields ``default``.  A malformed value --
    or one below ``minimum`` when given -- raises :class:`ReproError`
    *naming the variable*, instead of the bare ``ValueError`` a plain
    ``int(os.environ[...])`` would throw from deep inside whatever cache
    or pool the knob configures.
    """
    import os

    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = int(raw.strip())
    except ValueError:
        raise ReproError(
            f"environment variable {name} must be an integer, got {raw!r}"
        ) from None
    if minimum is not None and value < minimum:
        raise ReproError(
            f"environment variable {name} must be >= {minimum}, got {value}"
        )
    return value


def require_numpy(feature: str = "this feature"):
    """Import and return :mod:`numpy`, or raise a clean install hint.

    NumPy is an *optional* extra (``pip install repro[np]``): only the
    vectorized wavefront backend and the array-flavoured examples need it.
    Every entry point that does goes through this helper so a missing
    install fails with one uniform, actionable message instead of a bare
    ``ModuleNotFoundError`` deep inside a backend.
    """
    try:
        import numpy
    except ImportError:
        raise MissingDependencyError(
            f"{feature} requires NumPy, which is not installed; "
            "install the optional extra with `pip install repro[np]` "
            "(or simply `pip install numpy`)"
        ) from None
    return numpy


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """PEP 562 lazy re-exports for a package ``__init__``.

    ``exports`` maps each submodule to the public names it provides.  The
    returned ``(__getattr__, __dir__)`` pair imports a submodule only when
    one of its names is first looked up, then stores the value as a plain
    package attribute so later lookups never come back here::

        __getattr__, __dir__ = lazy_exports(__name__, {
            "repro.target.npgen": ("HAVE_NUMPY", "execute_numpy"),
        })

    ``from package import name``, ``import *`` (through ``__all__``) and
    ``dir()`` behave as with eager imports, but a command pays only for the
    modules it actually runs -- NumPy, the fuzzer or the service are never
    loaded by a run that does not use them.
    """
    import importlib
    import sys

    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__
