"""The packages' lazy exports (:mod:`repro.util.lazy`).

Every check runs in a new interpreter: which names resolve to what can
depend on which modules were imported first.
"""

import os
import subprocess
import sys

import pytest

import repro

LAZY_PACKAGES = (
    "repro",
    "repro.logic",
    "repro.reliability",
    "repro.propositional",
    "repro.relational",
    "repro.kernels",
    "repro.runtime",
)

#: Exports that share their name with a submodule of their package.
SHADOWED = (
    ("repro", "reliability"),
    ("repro.logic", "classify"),
    ("repro.propositional", "karp_luby"),
)


def run_fresh(code: str) -> None:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_resolves_and_is_listed(package):
    run_fresh(
        f"import importlib\n"
        f"package = importlib.import_module({package!r})\n"
        f"listed = dir(package)\n"
        f"for name in package.__all__:\n"
        f"    assert name in listed, name\n"
        f"    getattr(package, name)\n"
        f"    exec(f'from {package} import {{name}}')\n"
    )


@pytest.mark.parametrize(
    "first",
    [
        "repro.reliability.calibration",
        "repro.reliability",
        "repro.logic.classify",
        "repro.propositional.karp_luby",
    ],
)
def test_shadowed_exports_stay_functions(first):
    checks = "".join(
        f"import {package}\n"
        f"from {package} import {name} as value\n"
        f"assert callable(value) and not isinstance(value, ModuleType), value\n"
        f"assert {package}.{name} is value\n"
        for package, name in SHADOWED
    )
    run_fresh(f"from types import ModuleType\nimport {first}\n{checks}")


def test_unknown_name_is_an_attribute_error():
    import repro.logic

    with pytest.raises(AttributeError):
        repro.logic.no_such_export
    with pytest.raises(ImportError):
        exec("from repro.logic import no_such_export")
