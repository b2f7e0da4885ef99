"""Exact calculator for degree-d double-ramification cycle classes on the
moduli space of 2-pointed genus-2 stable curves, with all arithmetic over
the rationals.

The headline object is ``dr2_class(d)``: the class, in the degree-2
tautological group, of the closure of the locus of smooth 2-pointed genus-2
curves carrying a degree-d map to the line totally ramified at both marked
points.  Everything else either derives it (test-surface equations and the
parametric solver), pushes it around (to the 1-pointed space, to the
compact-type locus), or locates it inside effective cones.
"""

__version__ = "0.1.0"

import sys

#: Each public name and the submodule that defines it, in ``__all__`` order.
#: ``__getattr__`` imports that submodule on the name's first use, so that
#: ``import dr2calc`` loads no submodule and a command loads only its own.
__all__ = list(
    _HOMES := {
        "BASIS_NAMES": "chow",
        "D": "polyq",
        "DivisorM21": "m21",
        "DivisorM22": "chow",
        "CtClass": "ct",
        "EffectiveDivisorPattern": "cones",
        "ParamSystem": "solver",
        "PolyQ": "polyq",
        "Rational": "polyq",
        "SolveCertificate": "solver",
        "SurfaceModel": "surfaces",
        "TautClass2": "chow",
        "WEIERSTRASS_CLASS": "m21",
        "builtin_surfaces": "surfaces",
        "chi_pullback_pipeline": "m21",
        "ci_obstruction": "cones",
        "classify_effective_cone": "m21",
        "cone_decomposition": "cones",
        "derive_decorated_rows": "ct",
        "diaz_divisor": "m21",
        "dr2_class": "chow",
        "dr_infinity": "cones",
        "equation_row": "surfaces",
        "full_system": "solver",
        "full_system_rows": "surfaces",
        "hain_class": "ct",
        "multiply_divisors": "chow",
        "nonextremality_check": "cones",
        "nonpolynomiality_witness": "cones",
        "pencil_count": "m21",
        "poly_eval": "polyq",
        "poly_interpolate": "polyq",
        "psi_cubed_intersection": "m21",
        "pushforward": "m21",
        "pushforward_class_formula": "m21",
        "redundancy_report": "solver",
        "reduce_to_basis": "chow",
        "restrict_to_ct": "ct",
        "solve_parametric": "solver",
        "swap_markings": "chow",
        "verify_hac": "ct",
    }
)

_SUBMODULES = ("checks", "chow", "cli", "cones", "ct", "linalg", "m21", "polyq", "solver", "surfaces")


def __getattr__(name: str):
    """Resolve a submodule or a public name on first use (PEP 562).  Either
    is bound here, so later reads skip this function."""
    if name in _SUBMODULES:
        # __import__, not importlib.import_module, so that -X importtime
        # lists the submodule; the import binds it here once it has run
        qualified = f"{__name__}.{name}"
        __import__(qualified)
        return sys.modules[qualified]
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_HOMES[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
