"""Term rewriting workbench.

First-order terms with arity-checked signatures, four reduction relations
(full, non-root, innermost, and their intersection), dependency pairs in
alternative and standard form, chain witnesses with per-entry
substitutions, innermost loop certificates, and a small fuel-indexed
recursive language whose calling contexts line up with the dependency
pairs of its rewrite-system image.
"""

from .dependency_pairs import (
    ChainVerdict,
    ChainWitness,
    ConstructionFailure,
    DepPair,
    DepPairAlt,
    InvalidDepPairError,
    LinkVerdict,
    LoopCertificate,
    PreconditionFailed,
    canonical_pair,
    chain_from_loop,
    check_certificate,
    check_chained,
    dep_pairs_alt,
    derivation_from_chain,
    detect_innermost_loop,
    dp_and_sub_from_nrnf,
    find_mint_subterm,
    is_dep_pair_alt,
    next_dp_and_sub,
    standard_dep_pairs,
    term_pos_dps_alt,
    to_standard,
    validate_witness,
    verify_chain_prefix,
)
from .formats import (
    ParseError,
    format_trs,
    parse_chain_witness,
    parse_pvs0_program,
    parse_term,
    parse_trace,
    parse_trs,
    parse_value,
    trace_to_json,
    witness_to_json,
)
from .pvs0 import (
    CallingContext,
    Cnst,
    EpsilonResult,
    GAdd,
    GComp,
    GConst,
    GIf,
    GMonus,
    GTuple,
    Ite,
    Op1,
    Op2,
    OperatorDef,
    Pvs0Error,
    Pvs0Program,
    Rec,
    Vr,
    calling_contexts,
    check_cc_dp_correspondence,
    chi_eval,
    epsilon_check,
    guard_eval,
    terminates_on,
    unary_encoder,
)
from .rewriting import (
    DEFAULT_FUEL,
    DerivationTrace,
    FuelExhausted,
    RelationMode,
    Rule,
    RuleRestrictionError,
    Step,
    TRS,
    check_step,
    check_trace,
    defined_symbols,
    derives,
    embed_trace,
    is_nr_normal_form,
    normalize,
    reduce_at,
    successors,
    trs_of,
)
from .substitution import (
    Substitution,
    match,
)
from .terms import (
    App,
    InvalidPositionError,
    Position,
    ROOT,
    Signature,
    Symbol,
    Term,
    Var,
    format_position,
    parse_position,
    positions_of,
    replace_at,
    subterm_at,
    term_to_str,
    vars_of,
)

__version__ = "0.1.0"
