"""Skorokhod-style embeddings in the simple symmetric random walk.

Exact classifiers for which integer-supported laws are embeddable by the
classic constructions (barycenter rules, chipped first-exit compositions,
uniformly-integrable stop-count matrices, the always-available minimal
embedder), executable stopping rules for each certificate, exact stopped
laws, a vectorized numpy Monte Carlo harness checked against the rule
state machines, and the self-similar set of embeddable atom weights.
"""

from .classic import (
    AzemaYorResult,
    ChipStep,
    ChwResult,
    ChwStatus,
    MinimalCertificate,
    RandomizedRule,
    azema_yor_check,
    chip_apply,
    chw_search,
    hall_rule,
    hall_stopped_law,
    minimal_certificate,
    replay_chips,
)
from .matrices import (
    MatrixRow,
    SearchResult,
    StoppingMatrix,
    VerifyResult,
    search_matrix,
    verify_matrix,
)
from .measures import (
    BarycenterFunction,
    IntegerMeasure,
    MeasureError,
    PotentialFunction,
    barycenter,
    measure,
    potential,
)
from .rational import (
    Base4Expansion,
    Q,
    digit_half_weight,
    format_rational,
    parse_rational,
    to_base4,
)
from .rules import (
    ExitCompositionRule,
    MaxThresholdRule,
    MinimalRule,
    PathCountMatrixRule,
    PrefixError,
    RandomizedPairRule,
    rule_from_json,
    rule_to_json,
)
from .sim import (
    ExactLaw,
    SimReport,
    exact_law,
    sample_pairs,
    simulate,
    simulate_reference,
)
from .uiset import (
    IfsSystem,
    IntervalUnion,
    TripleVerdict,
    WeightVerdict,
    achievable_weights,
    classify_triple,
    classify_weight,
    ifs_approximate,
    ifs_membership,
    weight_set_system,
)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
