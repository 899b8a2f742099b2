"""Cold start: the package loads only what a command runs.

The package ``__init__``s resolve their public names lazily (PEP 562,
``repro.util.lazy_exports``), so ``import repro.cli`` and a ``repro execute
--backend npgen`` run must not pull in NumPy, the fuzzer, the service, the
simulator or the pygen backend they never use.  Each budget check runs in
a fresh interpreter: the test process itself has imported everything.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])
ROOT = pathlib.Path(SRC).parent
SOURCE = str(ROOT / "examples" / "specs" / "polyprod.src")
DESIGN = str(ROOT / "examples" / "specs" / "d1.json")

LAZY_PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.extensions",
    "repro.fuzz",
    "repro.runtime",
    "repro.service",
    "repro.systolic",
    "repro.target",
    "repro.verify",
]


def _loaded_after(code: str) -> set[str]:
    """The module names a fresh interpreter holds after running ``code``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env, cwd=ROOT, check=True,
    )
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def _offenders(loaded: set[str], banned: list[str]) -> list[str]:
    return sorted(
        m for m in loaded
        if any(m == b or m.startswith(b + ".") for b in banned)
    )


def test_import_cli_loads_no_heavy_subsystem():
    loaded = _loaded_after("import repro.cli")
    banned = [
        "numpy", "repro.fuzz", "repro.service", "repro.runtime",
        "repro.parallel", "repro.target.pygen", "repro.target.cgen",
        "repro.target.occam", "repro.target.pretty", "repro.target.build",
    ]
    assert _offenders(loaded, banned) == []


def test_npgen_execute_loads_only_its_backend():
    pytest.importorskip("numpy")
    loaded = _loaded_after(
        "from repro.cli import main\n"
        f"assert main(['execute', {SOURCE!r}, {DESIGN!r}, '-s', 'n=6', "
        "'--backend', 'npgen']) == 0"
    )
    assert "repro.target.npgen" in loaded
    banned = [
        "repro.fuzz", "repro.service", "repro.runtime.scheduler",
        "repro.target.pygen", "numpy.ma",
    ]
    assert _offenders(loaded, banned) == []


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_export_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    listed = set(dir(package))
    missing = [n for n in package.__all__ if n not in listed]
    assert missing == []
    for export in package.__all__:
        getattr(package, export)  # raises if the mapping names a wrong module
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(package, "no_such_export")


def test_cli_fuzz_choices_match_the_fuzzer():
    from repro.cli import build_parser
    from repro.fuzz.generator import FEATURES
    from repro.fuzz.harness import MUTATIONS

    subparsers = next(
        a for a in build_parser()._actions if a.dest == "command"
    )
    fuzz = {a.dest: a for a in subparsers.choices["fuzz"]._actions}
    assert list(fuzz["mutate"].choices) == sorted(MUTATIONS)
    assert list(fuzz["feature"].choices) == list(FEATURES)
