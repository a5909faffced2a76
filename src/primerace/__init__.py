"""Weighted prime-number races with rigorously bounded L-function checks."""

from ._version import __version__

from .characters import (
    DirichletWeight,
    build_character,
    character_from_discriminant,
    character_from_table,
    chi4,
    general_weight,
    kronecker_symbol,
)
from .cli import run_experiment
from .config import ExperimentConfig, load_config, parse_config, serialize_config
from .errors import CapabilityError, DomainError, PrimeRaceError, ValidationError
from .lfun import (
    BiasPoint,
    BoundedValue,
    ConjectureScan,
    DecompositionReport,
    b_function,
    bias_bound_scan,
    conjecture_scan,
    euler_product_value,
    l_value,
    mellin_identity_check,
    prime_power_sum,
    verify_log_decomposition,
)
from .races import (
    RacePoint,
    RaceSeries,
    SignChangeEvent,
    SignChangeReport,
    default_checkpoints,
    detect_sign_changes,
    effective_sign_changes,
    race_at_points,
    race_extended,
    weighted_race,
)
from .sieve import Segment, iter_prime_arrays, prime_count, prime_stream, sieve_segment

