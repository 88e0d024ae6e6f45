"""Exact computations around index-2, Picard-rank-1 Fano threefolds.

Everything here is carried out in exact rational arithmetic: cohomology
classes, Euler pairings, tilt-stability charges, wall loci, the rank-2
lattice of the residual (Kuznetsov) category, and the root/line
combinatorics of the del Pezzo surfaces arising as hyperplane sections.

The names in ``__all__`` are loaded lazily (PEP 562): ``import kuwalls``
imports no computing module, and the first access to a name imports the
module that defines it.  ``kuwalls.catalog`` is the function ``catalog``,
as ``from kuwalls import catalog`` gives it, also after the submodule of
that name has been imported.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

#: The public names, by the module that defines them.
_EXPORTS = {
    "chern": ("ChernVector", "FanoContext", "ring_multiply", "twist", "dual", "hrr_chi", "chi_pair"),
    "tilt": ("StabilityParams", "ChargeValue", "Slope", "charge_tilt", "slope_tilt", "discriminant"),
    "walls": ("WallLocus", "DestabilizerCandidate", "numerical_wall", "destabilizer_search", "chamber_report"),
    "kulattice": (
        "KuClass", "ExtTable", "euler_form", "class_from_chern", "rotation_matrix",
        "classes_with_self_pairing", "check_ext_table",
    ),
    "delpezzo": (
        "PicVector", "DPContext", "intersect", "enumerate_roots", "enumerate_lines",
        "root_as_line_difference", "nef_position", "surface_chi",
    ),
    "catalog": ("CatalogEntry", "catalog", "verify_catalog"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOMES)


def __getattr__(name: str):
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    def __setattr__(self, name: str, value: object) -> None:
        # The import system binds each submodule on its package as it loads it;
        # a public name (the function ``catalog``) keeps priority over its module.
        if name in _HOMES and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
