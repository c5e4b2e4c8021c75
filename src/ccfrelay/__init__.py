"""Compute-compress-and-forward relaying over exact nested lattice chains."""

from .errors import (
    CCFError,
    ConfigError,
    DecodeFailure,
    InfeasibleStructureError,
    NotFullRankError,
    NotInCodebookError,
    ReductionError,
    SingularMatrixError,
    SingularResidualError,
    SpecMismatchError,
    VariantMismatchError,
)
from .galois import FieldMatrix, feasible_pi_d, feasible_pi_e
from .lattice import ChainPoint, ChainSpec, LevelPair, make_chain_spec
from .optimizer import SCHEMES, OptimizerConfig, evaluate_all
from .pipeline import ChannelInstance, SchemeAssignment
from .rates import RateReport, SecondHopRegion, max_rates_given_structure, second_hop_region
from .recovery import srm, srmq, srq

__version__ = "0.1.0"

__all__ = [
    "CCFError",
    "ChainPoint",
    "ChainSpec",
    "ChannelInstance",
    "ConfigError",
    "DecodeFailure",
    "FieldMatrix",
    "InfeasibleStructureError",
    "LevelPair",
    "NotFullRankError",
    "NotInCodebookError",
    "OptimizerConfig",
    "RateReport",
    "ReductionError",
    "SCHEMES",
    "SchemeAssignment",
    "SecondHopRegion",
    "SingularMatrixError",
    "SingularResidualError",
    "SpecMismatchError",
    "VariantMismatchError",
    "evaluate_all",
    "feasible_pi_d",
    "feasible_pi_e",
    "make_chain_spec",
    "max_rates_given_structure",
    "second_hop_region",
    "srm",
    "srmq",
    "srq",
]
