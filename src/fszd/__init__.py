"""fszd: exact higher Frobenius-Schur indicators for Drinfeld doubles of
finite permutation groups, with class-level formulas, an FSZ rationality
test, and element-level oracles for cross-validation."""

from .errors import (
    BadDivisorError,
    ConfigError,
    DegreeLimitError,
    FszdError,
    InvariantError,
    MismatchedTablesError,
    NonCommutingPairError,
    NotCoprimeError,
    NotInGroupError,
    ResourceLimitError,
    SpecParseError,
    TableComputationError,
)
from .permcore import (
    ConjugacyClass,
    ConjugacyClassSet,
    Group,
    Permutation,
    centralizer,
    conjugacy_classes,
    conjugator,
    construct_group,
    element_power_order,
    group_exponent,
    rational_classes,
)
from .cyclotomic import (
    Cyclotomic,
    RationalityInfo,
    abs_squared,
    from_root,
    from_root_combination,
    galois,
    pretty,
    rationality,
    sqrt_cyclotomic,
)
from .chartab import (
    CharacterTable,
    ClassFunction,
    character_table,
    class_mult_coeff,
    class_position,
    class_sum,
    inner_product,
    power_map,
    verify_class_algebra,
    verify_column_orthogonality,
)
from .indicators import (
    FszResult,
    GammaReduction,
    IndicatorReport,
    Mate,
    MuElement,
    Session,
    adams_cf,
    all_indicators,
    beta,
    double_character,
    fsz_test,
    gamma,
    mate,
    mu,
    nu,
    phi,
    reduce_gamma_params,
    w_class_function,
)
from .oracle import (
    BenchResult,
    CommutingPairTable,
    SweepReport,
    benchmark,
    commuting_pair_table,
    gmz_count_naive,
    nu_naive,
    nu_pairs,
    oracle_equivalence_sweep,
)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
