"""Inverse 3-SAT: decide whether a set of assignments is exactly the
model set of some 3-CNF formula.

The pipeline builds the candidate formula (every 3-clause the input
models satisfy), saturates it under width-limited resolution, and probes
one restriction per complement-covering prefix for an assignment outside
the input set.  ``oracle_decide`` answers the same question by exhaustive
enumeration and is the reference the pipeline is validated against.
"""

from .closure import ClosureResult, is_closed_3limited, three_limited_closure
from .formats import (
    InputFormatError,
    format_clause,
    format_formula,
    read_models,
    write_cover,
    write_dimacs,
)
from .formula import (
    CapExceeded,
    Clause,
    Cnf,
    ENUMERATION_CAP,
    InputTooSmall,
    ModelSet,
    TautologyRejected,
    cnf_of,
    evaluate,
    mk_clause,
)
from .inverse import (
    Answer,
    ClosureTestFailed,
    DecisionReport,
    PrefixCover,
    PrefixRecord,
    WitnessExtractionFailed,
    candidate_formula,
    decide,
    extract_witness,
    prefix_cover,
)
from .oracle import OracleVerdict, oracle_decide, verify_witness

__version__ = "0.1.0"

__all__ = [
    "Answer",
    "CapExceeded",
    "Clause",
    "ClosureResult",
    "ClosureTestFailed",
    "Cnf",
    "DecisionReport",
    "ENUMERATION_CAP",
    "InputFormatError",
    "InputTooSmall",
    "ModelSet",
    "OracleVerdict",
    "PrefixCover",
    "PrefixRecord",
    "TautologyRejected",
    "WitnessExtractionFailed",
    "candidate_formula",
    "cnf_of",
    "decide",
    "evaluate",
    "extract_witness",
    "format_clause",
    "format_formula",
    "is_closed_3limited",
    "mk_clause",
    "oracle_decide",
    "prefix_cover",
    "read_models",
    "three_limited_closure",
    "verify_witness",
    "write_cover",
    "write_dimacs",
    "__version__",
]
