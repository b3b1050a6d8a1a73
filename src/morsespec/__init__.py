"""Exact spectral analysis of sign cocycles over prime odometer actions.

The package models a translation action of a direct sum of prime cyclic
groups on the matching product space, equips it with a quadratic
character sign cocycle, computes the spectral coefficients of the
associated two-point extension by two independent routes, certifies a
density bound on the spectral measure, and runs finite separation
diagnostics on the extension's word coding.

Importing the package loads none of its submodules (and so no numpy):
each public name below is imported from its submodule on first access.
"""

import importlib

# submodule -> the public names it provides
_EXPORTS = {
    "charsums": (
        "FlatnessReport",
        "LegendreTable",
        "autocorrelation",
        "autocorrelation_closed_form",
        "character_polynomial",
        "character_polynomial_values",
        "density_values",
        "flatness_report",
        "fourier_of_density_factor",
        "gauss_sum",
        "gauss_sum_all",
        "gauss_sum_brute",
        "legendre",
        "legendre_table",
    ),
    "cocycle": (
        "CocycleContext",
        "ExtensionPoint",
        "build_context",
        "check_cocycle_identity",
        "check_level_constancy",
        "cocycle_at_zero",
        "cocycle_value",
        "flip",
        "skew_step",
        "zero_extension_point",
    ),
    "diagnostics": (
        "FunnyWord",
        "NameAtlas",
        "SeparationReport",
        "at_ball_bound",
        "complement",
        "hamming",
        "name_atlas",
        "name_separation",
        "name_word",
        "write_histogram_csv",
    ),
    "errors": (
        "BudgetError",
        "ConfigError",
        "InternalConsistencyError",
        "MorsespecError",
    ),
    "odometer": (
        "EXPERIMENTAL",
        "IDENTITY",
        "THEOREM_GRADE",
        "GroupConfig",
        "GroupElement",
        "add",
        "element",
        "enumerate_level_group",
        "enumerate_points",
        "fiber_size",
        "growth_floor",
        "is_prime",
        "level_fiber",
        "level_group_order",
        "level_group_vectors",
        "make_group_config",
        "neg",
        "point",
        "random_element",
        "random_point",
        "sub",
        "theorem_primes",
        "tower_address",
        "translate",
        "zero_point",
    ),
    "spectral": (
        "DensityCertificate",
        "DensityMarginal",
        "SbhProbe",
        "SbhVerdict",
        "SearchResult",
        "SpectralCoefficient",
        "density_certificate",
        "density_marginal",
        "geometric_tail_bound",
        "sbh_adversarial_search",
        "sbh_quadratic_form",
        "sbh_verdict",
        "spectral_coefficient",
        "spectral_coefficient_from_density",
        "spectral_coefficients",
        "spectral_coefficients_from_density",
        "tail_density_bound",
        "tail_partial_product",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
# reporting is bound too: the eager imports used to load it through diagnostics
_SUBMODULES = (*_EXPORTS, "reporting")

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)  # binds it here
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
