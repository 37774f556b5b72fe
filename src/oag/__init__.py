"""Exact arithmetic and definable invariants for lexicographic ordered
abelian groups, with a congruence-literal solver and inp-pattern machinery."""

from .convex import (
    AnalysisReport,
    ConvexCut,
    analyze,
    collapse_sorts,
    dp_rank_bound,
    hsub,
    in_coset,
    in_subgroup,
    singular_primes,
    sorts,
    strongly_dependent,
)
from .errors import (
    NotDivisibleError,
    NotReducibleError,
    OagError,
    ParseError,
    PreconditionError,
    SpecMismatchError,
)
from .formulas import (
    Conjunction,
    LitKind,
    Literal,
    LiteralType,
    Term,
    classify,
    cong,
    conjoin,
    crt_split,
    evaluate,
    evaluate_conj,
    format_conjunction,
    format_literal,
    format_term,
    in_group,
    ncong,
    neq,
    normalize_type_I,
    not_in_group,
    ord_lit,
    reduce_k_prime,
    term_value,
    unit_normalize,
)
from .groups import (
    INT,
    PLOCAL,
    PSPAN,
    RAT,
    BlockKind,
    Element,
    GroupSpec,
    Ordering,
    add,
    compare,
    divide_exact,
    format_element,
    is_divisible,
    neg,
    scale,
    sub,
    unit_element,
)
from .parsing import parse_element, parse_formula, parse_params, parse_spec
from .patterns import (
    GeneratedPattern,
    InpPattern,
    PatternRow,
    VerificationReport,
    check_k_inconsistent,
    check_sp_lemma,
    count_convex_rows,
    gen_chain_pattern,
    gen_optimal_pattern,
    verify,
)
from .solver import (
    CertEntry,
    SolveResult,
    SolveStatus,
    oracle_search,
    solve,
)

__version__ = "0.1.0"
