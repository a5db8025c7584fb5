"""First-use binding of a package's ``__all__`` (PEP 562).

A package whose public names live in submodules defines::

    def __getattr__(name):
        return bind_all(globals(), ("first", "second"), name)

and ``import package`` loads the package module alone.  The first
access to a public name imports every listed submodule and binds each
name of the package's ``__all__`` that one of them exports, so
``__all__`` stays the one list of names.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Dict, Iterable

__all__ = ["bind_all"]


def bind_all(namespace: Dict[str, Any], modules: Iterable[str], name: str) -> Any:
    """*name* from the package whose globals are *namespace*.

    Imports *modules* (relative to the package) and binds the names of
    its ``__all__`` they export, keeping any already bound (no public
    name is also a submodule's, whose import would bind the module).
    A name outside ``__all__``, or one no module exports, raises
    ``AttributeError``, so ``hasattr`` and ``getattr`` with a default
    work as they do on any module.
    """
    package = namespace["__name__"]
    public = namespace["__all__"]
    if name in public:
        for module in modules:
            loaded = import_module("." + module, package)
            for exported in set(loaded.__all__).intersection(public):
                namespace.setdefault(exported, getattr(loaded, exported))
        if name in namespace:
            return namespace[name]
    raise AttributeError("module %r has no attribute %r" % (package, name))
