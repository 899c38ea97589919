"""Tunneling times for piecewise-constant potentials.

Clock times from overlap integrals of the stationary states, dwell-time
integrals, exact symmetric double-barrier expressions with opaque and
wide-barrier asymptotics, and a discrete N-level clock whose pointer
records the transit through a region.

Each public name is declared once, in its module's ``__all__``; the
package re-exports those names and nothing else. It does so lazily
(PEP 562): ``tunnelclock.name`` imports a submodule of that name if
there is one, and otherwise the first library module, in ``_MODULES``
order, whose ``__all__`` holds the name. The modules of the generic
route come before ``closedform`` and ``rotor``, so their names, and the
CLI, never import numpy. ``__all__`` imports every library module on
first access. A resolved name is looked up again on every access and
never stored here, so a rebinding in its module shows through.
"""

import importlib
import importlib.util

__version__ = "0.1.0"

# Library modules whose __all__ the package re-exports, in lookup order:
# those that import numpy last.
_MODULES = (
    "errors", "potentials", "scattering", "clocktimes", "checks", "closedform", "rotor"
)


def __getattr__(name):
    global __all__
    if name == "__all__":
        modules = [importlib.import_module(f"{__name__}.{m}") for m in _MODULES]
        __all__ = [n for module in modules for n in module.__all__] + ["__version__"]
        return __all__
    if name.startswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if importlib.util.find_spec(f"{__name__}.{name}") is not None:
        return importlib.import_module(f"{__name__}.{name}")
    for module_name in _MODULES:
        module = importlib.import_module(f"{__name__}.{module_name}")
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
