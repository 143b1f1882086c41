"""Lazy package exports (PEP 562): a name loads with its module.

A package ``__init__`` that imported every submodule would make
``import repro.cli`` pay for subsystems a command never touches.
Instead each package hands :func:`lazy_exports` a map from its
submodules to the names it re-exports; a name is imported the first
time it is read, from the submodule that defines it.  Nothing is
cached on the package, so a name always reads the current attribute
of its module.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType
from typing import Iterable, Mapping


class _LazyPackage(ModuleType):
    def __getattr__(self, name: str):
        try:
            source = self.__lazy_exports__[name]
        except KeyError:
            raise AttributeError(
                f"module {self.__name__!r} has no attribute {name!r}"
            ) from None
        if source is None:
            return import_module(f"{self.__name__}.{name}")
        return getattr(import_module(source, self.__name__), name)

    def __dir__(self):
        return sorted(set(self.__dict__) | set(self.__lazy_exports__))

    def __setattr__(self, name: str, value) -> None:
        # Importing a submodule binds it on its package.  Three exports
        # share a name with a submodule (``repro.reliability``,
        # ``logic.classify``, ``propositional.karp_luby``): the export,
        # not the module, must answer, whatever was imported first.
        if isinstance(value, ModuleType) and self.__lazy_exports__.get(name):
            return
        super().__setattr__(name, value)


def lazy_exports(
    package: str,
    exports: Mapping[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> None:
    """Make ``package`` resolve its exports on first read.

    ``exports`` maps a submodule, relative to ``package`` (``".exact"``),
    to the names the package re-exports from it; ``submodules`` names
    submodules that are exports themselves (``repro.runtime.executor``).
    """
    module = sys.modules[package]
    table = {name: None for name in submodules}
    for source, names in exports.items():
        table.update(dict.fromkeys(names, source))
    module.__dict__["__lazy_exports__"] = table
    module.__class__ = _LazyPackage
