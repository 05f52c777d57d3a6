"""Efimov channel exponents, adiabatic hyperspherical potentials, and
trimer ladders for two-internal-level bosons with a multichannel
zero-range interaction."""

__version__ = "0.1.0"

from .spin import (
    ChannelLength,
    ExchangeOverlap,
    ScatteringMatrix,
    TwoBodyChannelSet,
    as_length,
    channels_from_angle,
    eigenchannels,
    exchange_overlap,
    one_body_rotation,
    toy_closed_form,
)
from .hyperangular import (
    ChannelMatrixSpec,
    GridResolutionWarning,
    Plateau,
    PlateauSummary,
    RootTable,
    SweepTable,
    channel_matrix,
    classify_root,
    default_kappa_max,
    find_roots_imaginary,
    find_roots_imaginary_batch,
    find_roots_real,
    plateau_extract,
    radius_sweep,
    theta_sweep,
)
from .hyperradial import (
    AdiabaticPotential,
    LadderSpectrum,
    PhysicalConvention,
    bound_states,
    efimov_ladder,
    inverse_square_potential,
    potential,
    scaling_factor,
)
from .config import ConfigError, RunConfig, parse_config, serialize_config
from .runner import ResultBundle, run, write_outputs

__all__ = [
    "__version__",
    "ChannelLength", "ExchangeOverlap", "ScatteringMatrix",
    "TwoBodyChannelSet", "as_length", "channels_from_angle", "eigenchannels",
    "exchange_overlap", "one_body_rotation", "toy_closed_form",
    "ChannelMatrixSpec", "GridResolutionWarning", "Plateau",
    "PlateauSummary", "RootTable", "SweepTable",
    "channel_matrix", "classify_root", "default_kappa_max",
    "find_roots_imaginary", "find_roots_imaginary_batch", "find_roots_real",
    "plateau_extract", "radius_sweep", "theta_sweep",
    "AdiabaticPotential", "LadderSpectrum", "PhysicalConvention",
    "bound_states", "efimov_ladder", "inverse_square_potential", "potential",
    "scaling_factor",
    "ConfigError", "RunConfig", "parse_config", "serialize_config",
    "ResultBundle", "run", "write_outputs",
]
