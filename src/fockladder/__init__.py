"""Photon-number transition probabilities and majorization structure of
single-mode bosonic Gaussian channels.

Compute output distributions for Fock-state inputs across the four
phase-covariant/contravariant families (lossy, amplifier, additive noise,
conjugated amplifier), build the column-stochastic ladder matrix linking
consecutive outputs, and verify the resulting majorization and entropy
ordering numerically.
"""

from .channel import (ChannelParams, ChannelSpec, Family, LimitRoute, abgx,
                      make_channel, noise_limit_params, validate_params)
from .entropy import chain_check, renyi, shannon, thermal_entropy
from .errors import (DomainError, NormalizationError, TruncationError,
                     WitnessError)
from .experiments import (BinaryPattern, ConjectureReport, FindingsReport,
                          LadderReport, conjecture_scan, counterexample_search,
                          ladder_verify, make_counterexample_corpus,
                          mixture_shift_check, mixture_vs_lowest_fock,
                          passive_path, standard_grid)
from .majorization import (FockDiagonalState, LadderMatrix, MajorizationVerdict,
                           Relation, StochasticityReport, apply_D_power,
                           build_D, check_column_stochastic, fock_compare,
                           majorize_compare, mix)
from .transition import (TransitionGrid, analytic_special, grid_recurrence,
                         row_multinomial, row_series, series_rectangle)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams", "ChannelSpec", "Family", "LimitRoute", "abgx",
    "make_channel", "noise_limit_params", "validate_params",
    "chain_check", "renyi", "shannon", "thermal_entropy",
    "DomainError", "NormalizationError", "TruncationError", "WitnessError",
    "BinaryPattern", "ConjectureReport", "FindingsReport", "LadderReport",
    "conjecture_scan", "counterexample_search", "ladder_verify",
    "make_counterexample_corpus", "mixture_shift_check",
    "mixture_vs_lowest_fock", "passive_path", "standard_grid",
    "FockDiagonalState", "LadderMatrix", "MajorizationVerdict", "Relation",
    "StochasticityReport", "apply_D_power", "build_D",
    "check_column_stochastic", "fock_compare", "majorize_compare", "mix",
    "TransitionGrid", "analytic_special", "grid_recurrence",
    "row_multinomial", "row_series", "series_rectangle",
]
