"""Exact spectral analysis of sign cocycles over prime odometer actions.

The package models a translation action of a direct sum of prime cyclic
groups on the matching product space, equips it with a quadratic
character sign cocycle, computes the spectral coefficients of the
associated two-point extension by two independent routes, certifies a
density bound on the spectral measure, and runs finite separation
diagnostics on the extension's word coding.
"""

from .charsums import (
    FlatnessReport,
    LegendreTable,
    autocorrelation,
    autocorrelation_closed_form,
    character_polynomial,
    character_polynomial_values,
    density_values,
    flatness_report,
    fourier_of_density_factor,
    gauss_sum,
    gauss_sum_all,
    gauss_sum_brute,
    legendre,
    legendre_table,
)
from .cocycle import (
    CocycleContext,
    ExtensionPoint,
    build_context,
    check_cocycle_identity,
    check_level_constancy,
    cocycle_at_zero,
    cocycle_value,
    flip,
    skew_step,
    zero_extension_point,
)
from .diagnostics import (
    FunnyWord,
    NameAtlas,
    SeparationReport,
    at_ball_bound,
    complement,
    hamming,
    name_atlas,
    name_separation,
    name_word,
    write_histogram_csv,
)
from .errors import (
    BudgetError,
    ConfigError,
    InternalConsistencyError,
    MorsespecError,
)
from .odometer import (
    EXPERIMENTAL,
    IDENTITY,
    THEOREM_GRADE,
    GroupConfig,
    GroupElement,
    add,
    element,
    enumerate_level_group,
    enumerate_points,
    fiber_size,
    growth_floor,
    is_prime,
    level_fiber,
    level_group_order,
    level_group_vectors,
    make_group_config,
    neg,
    point,
    random_element,
    random_point,
    sub,
    theorem_primes,
    tower_address,
    translate,
    zero_point,
)
from .spectral import (
    DensityCertificate,
    DensityMarginal,
    SbhProbe,
    SbhVerdict,
    SearchResult,
    SpectralCoefficient,
    density_certificate,
    density_marginal,
    geometric_tail_bound,
    sbh_adversarial_search,
    sbh_quadratic_form,
    sbh_verdict,
    spectral_coefficient,
    spectral_coefficient_from_density,
    spectral_coefficients,
    spectral_coefficients_from_density,
    tail_density_bound,
    tail_partial_product,
)

__version__ = "0.1.0"
