"""Lazy package exports (PEP 562): importing a package loads none of it.

A package ``__init__`` lists its public names per submodule and binds
``__getattr__, __dir__ = lazy_exports(__name__, {...})``.  The first
access of a name imports the defining submodule and caches the object in
the package's globals; submodule names (``repro.net.shard``) resolve the
same way, so ``import repro.net; repro.net.shard`` keeps working.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Module ``__getattr__``/``__dir__`` for *package*.

    *exports* maps a submodule's name, relative to *package*, to the
    public names it defines.
    """
    home = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        sub = home.get(name)
        try:
            module = import_module(f"{package}.{sub or name}")
        except ModuleNotFoundError as exc:
            if sub is not None or exc.name != f"{package}.{name}":
                raise
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = module if sub is None else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__
