"""Exact tools for polarized subschemes of projective space.

Everything is computed over the rationals with exact arithmetic: truncated
expansion coefficients of an ample class along a subscheme, weighted ideal
filtrations with their jump profiles and adapted bases, intersection theory
on blow-ups of the plane in up to three points, Weil and height functions
place by place, and exhaustive scans of the resulting height inequality.

Importing the package loads none of its modules.  A submodule, or a name
re-exported from one, is imported on first access (PEP 562), so a process
pays only for the modules it uses.
"""

import importlib

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "beta": (
        "BetaReport",
        "ConvergenceRow",
        "CrosscheckReport",
        "beta_blowup_crosscheck",
        "beta_convergence",
        "beta_truncated",
        "ideal_power_terms",
    ),
    "experiments": (
        "ConfigError",
        "FourLinesRow",
        "InequalityConfig",
        "ScanReport",
        "ScanRow",
        "four_lines",
        "four_lines_config",
        "four_lines_exclusions",
        "four_lines_table",
        "sample_points",
        "scan_inequality",
    ),
    "filtration": (
        "AdaptedBasis",
        "BoundReport",
        "FiltrationProfile",
        "InconsistentProfilesError",
        "ProfileError",
        "F_value",
        "adapted_basis",
        "build_profile",
        "common_adapted_basis",
        "concavity_bound",
        "is_adapted",
        "mu_value",
        "scale_check",
    ),
    "graded": (
        "CatalogError",
        "PositionReport",
        "Subscheme",
        "check_general_position",
        "common_support_dim",
        "graded_dim_filtration_ideal",
        "graded_dim_ideal_power",
    ),
    "heights": (
        "PLACE_INF",
        "Place",
        "PlaceError",
        "PlaceSet",
        "ProjectivePoint",
        "SupportError",
        "global_weil_norm",
        "height",
        "height_norm",
        "parse_place",
        "proximity",
        "weil",
        "weil_norm",
    ),
    "linalg": (),
    "polynomials": ("FormError", "HomogeneousForm", "ParseError", "parse_form"),
    "staircase": (),
    "surface": (
        "ClosedFormReport",
        "ComparisonReport",
        "NotNefError",
        "PicardClass",
        "SeshadriReport",
        "SurfaceError",
        "SurfaceModel",
        "UnsupportedClassError",
        "beta_closed_form",
        "beta_surface_truncated",
        "compare_beta_seshadri",
        "format_class",
        "parse_class",
        "three_point_blowup",
        "weighted_lines_class",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_ORIGIN])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it on the package
        return importlib.import_module("." + name, __name__)
    if name not in _ORIGIN:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _ORIGIN[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
