"""Constacyclic codes of length n*p^s over GF(p^m) and GF(p^m)+uGF(p^m),
their symbol-pair distances, and MDS classification."""

__version__ = "0.1.0"

from .errors import PairCodeError
from .galois import (
    ChainRing,
    Field,
    binomial_irreducible,
    irreducible_binomial_constants,
)
from .quotient import (
    QPoly,
    QuotientRing,
    binomial_power,
    coefficient_weight,
    qmul,
)
from .codes import (
    DEFAULT_BUDGET,
    ChainPrincipal,
    CodeSpec,
    ConstacyclicCode,
    FieldPower,
    Type1,
    Type2,
    Type3,
    all_code_specs,
    build_code,
    generators,
    ideal_code,
    log_size,
    random_unit,
    spec_from_text,
    spec_generator_text,
    spec_to_text,
    unit_inverse,
    unit_kind,
    validate_spec,
)
from .pairmetric import (
    DistanceReport,
    block_decomposition,
    hamming_distance,
    hamming_weight,
    min_distance_brute,
    pair_distance,
    pair_vector,
    pair_weight,
    scan_minima,
)
from .theory import (
    MdsVerdict,
    ScanEntry,
    ScanReport,
    binomial_power_weight,
    consistency_scan,
    exponent_interval,
    mds_classify,
    mds_verdict,
    min_hamming_distance,
    min_pair_distance,
    min_pair_distance_field,
)

__all__ = [name for name in dir() if not name.startswith("_")]
