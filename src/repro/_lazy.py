"""PEP 562 lazy exports for package ``__init__`` modules.

A package that re-exports an opt-in submodule through
:func:`lazy_exports` imports that submodule only when one of its
names is first read -- by attribute access, ``from pkg import name``
or ``from pkg import *`` -- so a process that never touches it never
pays for compiling it::

    __getattr__, __dir__ = lazy_exports(__name__, globals(), {
        "Monitor": ".monitor",        # name -> submodule that defines it
        "validation": ".validation",  # a submodule exported as itself
    })
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Tuple


def lazy_exports(package: str, namespace: Dict[str, Any],
                 table: Mapping[str, str]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Build the module-level ``__getattr__`` and ``__dir__`` of
    ``package`` whose lazily exported names are the keys of ``table``.

    ``table`` maps each name to the relative submodule that defines
    it; a name equal to the submodule's own last component resolves
    to the submodule itself.  A resolved name is cached in
    ``namespace`` (the package's globals), so ``__getattr__`` runs at
    most once per name.
    """

    def __getattr__(name: str) -> Any:
        try:
            submodule = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        module = import_module(submodule, package)
        value = (module if submodule.rpartition(".")[2] == name
                 else getattr(module, name))
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
