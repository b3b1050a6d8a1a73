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
import importlib.util
import sys

# submodule -> the public names it provides
_EXPORTS = {
    "charsums": (
        "FlatnessReport",
        "LegendreTable",
        "PrimeCheck",
        "character_polynomial_values",
        "check_prime",
        "flatness_report",
        "gauss_sum",
        "gauss_sum_all",
        "legendre",
    ),
    "cocycle": (
        "CocycleContext",
        "build_context",
        "check_cocycle_identity",
        "check_level_constancy",
        "cocycle_at_zero",
        "cocycle_value",
    ),
    "diagnostics": (
        "SeparationReport",
        "at_ball_bound",
        "name_separation",
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
        "THEOREM_GRADE",
        "GroupConfig",
        "add",
        "element",
        "enumerate_level_group",
        "enumerate_points",
        "fiber_size",
        "growth_floor",
        "is_prime",
        "level_fiber",
        "level_group_order",
        "make_group_config",
        "random_element",
        "random_point",
        "theorem_primes",
    ),
    "spectral": (
        "DensityCertificate",
        "SbhProbe",
        "SbhVerdict",
        "SearchResult",
        "SpectralCoefficient",
        "coefficient_routes",
        "density_certificate",
        "geometric_tail_bound",
        "sbh_adversarial_search",
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
_SUBMODULES = (*_EXPORTS, "reporting")

__all__ = list(_OWNER)
__version__ = "0.1.0"


def lazy_numpy():
    """numpy, loaded on the first read of one of its attributes (importlib's
    LazyLoader); one already imported is returned as it is.  The submodules
    bind np through this, so a command that reads no array loads no numpy."""
    module = sys.modules.get("numpy")
    if module is None:
        spec = importlib.util.find_spec("numpy")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules["numpy"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


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
