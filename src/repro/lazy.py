"""Package re-exports that import their module on first use (PEP 562).

A package ``__init__`` that imported every name it re-exports would
make importing any one of its submodules load all of them:
``repro.serve.client`` would load the service and NumPy, and any
``repro`` import the corpus generator.  Instead each package
declares where its names live and gets a module ``__getattr__`` and
``__dir__`` that import the owning module when a name is first read,
plus the ``__all__`` those names make::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "repro.spambayes.classifier": ("Classifier", "TokenScore"),
    })

``from package import Name`` and ``package.Name`` work as before; the
value is cached in the package namespace after the first lookup.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``, whose
    ``exports`` map each owning module to the names it provides."""
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *origin})

    return __getattr__, __dir__, list(origin)
