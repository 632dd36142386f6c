"""Cluster seeds of Schubert cells, their flag-variety lifts, and an exact
type A oracle for checking minor identities on sampled unipotent matrices.

``from cellseed import X`` gives any public class or function of a layer
module.  A layer is imported when one of its names is first asked for, so a
command that never lifts or samples does not pay to load ``lift`` or
``oracle`` (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

#: the layers bottom up; a name is looked for in each until one defines it
_LAYERS = ("rootsys", "seedcore", "lift", "oracle", "exprlang")


def __getattr__(name: str):
    if name in _LAYERS:
        return import_module(f"{__name__}.{name}")
    if not name.startswith("_"):
        for layer in _LAYERS:
            module = import_module(f"{__name__}.{layer}")
            value = getattr(module, name, None)
            if callable(value) and getattr(value, "__module__", None) == module.__name__:
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
