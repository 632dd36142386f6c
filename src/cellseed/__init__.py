"""Cluster seeds of Schubert cells, their flag-variety lifts, and an exact
type A oracle for checking minor identities on sampled unipotent matrices."""

from .rootsys import (
    CartanMatrix,
    CellSeedError,
    InvalidTypeError,
    LieType,
    ParabolicConfig,
    WeightVec,
    Word,
    apply_word,
    cartan_matrix,
    cell_word,
    longest_word,
    max_B_words,
    parse_subset,
    reflect,
    two_step_A_words,
    word_length,
)
from .seedcore import (
    ExchangeMatrix,
    MinorLabel,
    MutationLabel,
    NonReducedWordError,
    Seed,
    SeedIndexData,
    SymbolicBinomial,
    exchange_binomial,
    initial_matrix,
    initial_seed,
    mutate_seed,
    seed_from_json,
    seed_to_json,
    successor_maps,
)
from .lift import (
    FlagSeed,
    LiftDegreeError,
    LiftMonomial,
    LiftedRelation,
    MinorSymbol,
    MultiDegree,
    bhat_column,
    build_flag_seed,
    degree_compare,
    lift_degree,
    lift_minor,
    lift_relation,
    mutate_flag_seed,
    project,
    strip_word,
)
from .oracle import (
    MinorExpr,
    MinorSpec,
    cell_sample,
    edagger_degree,
    eval_minor,
    sampled_multidegree,
    verify_identity,
    weyl_minor_spec,
)
from .exprlang import parse_expr, parse_identity

__version__ = "0.1.0"
