"""Lazy package exports (PEP 562).

A package whose ``__init__`` imports every submodule makes each of its
importers load all of them: ``import repro.service.server`` used to
load the JIT, the assembler, the workload generator and StarDBT, none
of which serving runs.  The packages on the service's import path
instead export their public names through :func:`lazy_exports`: a
name's submodule is imported when the name is first read, the way the
paper's DBTs translate a block when control first reaches it.

Each such package also imports every exported name under ``if
TYPE_CHECKING:``, so ruff and mypy see the names bound statically;
``tests/test_import_graph.py`` checks that this block and the runtime
table agree.
"""

import importlib


def lazy_exports(namespace, exports):
    """Module ``__getattr__`` and ``__dir__`` for a package's exports.

    ``namespace`` is the package's ``globals()``; ``exports`` maps a
    submodule name, relative to the package (``".replay"``), to the
    names the package re-exports from it.  A name is imported on first
    access and then cached in ``namespace``, so later reads are plain
    global lookups.  Use as::

        __getattr__, __dir__ = lazy_exports(globals(), {...})
    """
    package = namespace["__name__"]
    origins = {name: module
               for module, names in exports.items() for name in names}

    def __getattr__(name):
        module = origins.get(name)
        if module is None:
            raise AttributeError("module %r has no attribute %r"
                                 % (package, name))
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(origins))

    return __getattr__, __dir__
