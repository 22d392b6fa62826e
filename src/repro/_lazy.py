"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package that re-exports names from its submodules would import every
one of them, and everything they import, on the first ``import`` of any
part of the package. :func:`lazy_exports` instead gives the package a
module ``__getattr__`` over a table of the names each submodule
defines: a name's module is imported on first access, and the value is
then stored in the package namespace, so later reads are plain
attribute hits. ``__all__`` stays the package's public list, and
``from package import *`` resolves every name in it.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(package: str, exports: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` over ``exports``.

    ``exports`` maps each defining module to the names the package
    re-exports from it. Unknown names raise :class:`AttributeError`, as
    for any module.
    """
    namespace = sys.modules[package].__dict__
    table = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
