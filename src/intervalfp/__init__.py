"""Total floating-point arithmetic over sets of reals.

Floats are read as intervals: finite nonzero values as points, the
infinities as the overflow tails, and the signed zeros as either one-ulp
sets or the exact point zero depending on the selected mode.  Under this
reading every arithmetic operation is total, directed rounding computes
interval bounds, and the classically invalid operations return honest
sets instead of NaN.  The package ships its own exact-rational softfloat
core, an independent brute-force oracle for exhaustive verification on
tiny formats, and a differential harness against IEEE 754 behaviour.
"""

from .fpformat import (
    BINARY64,
    DomainError,
    EnumerationLimitError,
    FloatFormat,
    Fp,
    FpKind,
    RoundFlag,
    RoundingDirection,
    parse_format,
    recover_bounds,
    value_cmp,
)
from .interval import ExtInterval, OpKind, hull, member, parse_interval, subset
from .roundflag import PreRoundedWord
from .semantics import (
    IdentityRecord,
    ZeroMode,
    extract_bound,
    fp_interval_op,
    fp_scalar_op,
    identity_catalog,
    interpret,
    represent,
)
from .oracle import RealSet, exact_relational_set, exhaustive_compare, oracle_op
from .harness import (
    DEFAULT_SEED,
    Classification,
    SuiteResult,
    backend_agreement,
    classify_vs_ieee,
    deviation_report,
    ieee_reference,
    ieee_reference_native,
    native_rounding_available,
    run_theorem_suite,
    totality_fuzz,
)

__all__ = [
    "BINARY64",
    "Classification",
    "DEFAULT_SEED",
    "DomainError",
    "EnumerationLimitError",
    "ExtInterval",
    "FloatFormat",
    "Fp",
    "FpKind",
    "IdentityRecord",
    "OpKind",
    "PreRoundedWord",
    "RealSet",
    "RoundFlag",
    "RoundingDirection",
    "SuiteResult",
    "ZeroMode",
    "backend_agreement",
    "classify_vs_ieee",
    "deviation_report",
    "exact_relational_set",
    "exhaustive_compare",
    "extract_bound",
    "fp_interval_op",
    "fp_scalar_op",
    "hull",
    "identity_catalog",
    "ieee_reference",
    "ieee_reference_native",
    "interpret",
    "member",
    "native_rounding_available",
    "oracle_op",
    "parse_format",
    "parse_interval",
    "recover_bounds",
    "represent",
    "run_theorem_suite",
    "subset",
    "totality_fuzz",
    "value_cmp",
]
