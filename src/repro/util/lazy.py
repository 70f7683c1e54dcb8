"""Package re-exports resolved on first use (PEP 562).

A package ``__init__`` that imports the names it re-exports loads every
submodule as soon as any one of them is wanted: ``from repro.parallel
import wire`` would load the whole learner.  Instead the ``__init__``
keeps a table of which submodule defines each name, and the module
``__getattr__`` built here imports that submodule the first time one of
its names is read.  ``from package import *`` works too: it reads each
name of ``__all__`` through the same ``__getattr__``.
"""

from __future__ import annotations

import importlib
import sys
import types

__all__ = ["lazy_exports"]


class _Package(types.ModuleType):
    """A package that re-exports a name its own submodule also has."""

    def __setattr__(self, name: str, value) -> None:
        # The import system binds each submodule it loads on the package:
        # loading ``repro.ilp.mdie`` would rebind ``repro.ilp.mdie`` from
        # the function to the module.  The re-export keeps the name.
        if isinstance(value, types.ModuleType) and name in self._shadowed:
            return
        super().__setattr__(name, value)


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """The module ``__getattr__`` of ``package``: module ``mod`` (a key of
    ``exports``; ``".sub"`` is relative to ``package``) defines the names
    ``exports[mod]``.  A resolved name is bound on the package, so the
    next read is a plain attribute lookup; a re-exported name that is also
    a submodule's name stays the re-exported object, as an eager ``from
    .sub import sub`` left it."""
    where = {name: mod for mod, names in exports.items() for name in names}
    shadowed = {mod.rpartition(".")[2] for mod in exports} & where.keys()
    if shadowed:
        module = sys.modules[package]
        module.__class__ = _Package
        module._shadowed = frozenset(shadowed)

    def __getattr__(name: str):
        mod = where.get(name)
        if mod is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(mod, package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
