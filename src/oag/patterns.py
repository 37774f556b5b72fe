"""Inp-patterns: construction, verification, and structural checks.

An inp-pattern of depth n over a group is an array of n rows; each row is a
literal-conjunction template with a finite grid of parameter columns and a
claimed inconsistency arity k.  The pattern is verified when

* for every row, every k-subset of its columns is jointly unsatisfiable, and
* for every path (one column chosen per row) the combined conjunction is
  satisfiable, with a witness that the solver's evaluator accepted and the
  independent reference evaluator of :mod:`oag.checker` confirms.

A verified pattern of depth n witnesses that no uniform bound below n can
hold for the group, so the generators here produce, for any requested size,
concrete certified lower-bound data matching the invariant computations in
:mod:`oag.convex`.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Sequence

from .checker import InstanceCheck, confirm
from .convex import ConvexCut, hsub, sorts
from .errors import PreconditionError
from .formulas import (
    Conjunction,
    LiteralType,
    Literal,
    Term,
    classify,
    conjoin,
    cong,
    evaluate_conj,  # verify does not call it; perfbench's tracer binds this name
    ord_lit,
)
from .groups import Element, GroupSpec, PSPAN, RAT, add, scale, unit_element
from .numutil import factorize, is_prime
from .solver import Part, SolveResult, SolveStatus, oracle_search, solve


@dataclass(frozen=True)
class PatternRow:
    """A template conjunction over row-local parameters plus its columns."""

    template: tuple[Literal, ...]
    columns: tuple[tuple[Element, ...], ...]
    k: int

    def __post_init__(self):
        if not self.template:
            raise ValueError("a row needs at least one literal")
        if not self.columns:
            raise ValueError("a row needs at least one column")
        # operator.index: a float or Fraction arity raises TypeError here
        if operator.index(self.k) < 2:
            raise ValueError("the inconsistency arity must be >= 2")
        arity = max(l.term.max_param() for l in self.template) + 1
        for col in self.columns:
            if len(col) < arity:
                raise ValueError(
                    f"column provides {len(col)} parameters, template needs {arity}"
                )


@dataclass(frozen=True)
class InpPattern:
    group: GroupSpec
    rows: tuple[PatternRow, ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("a pattern needs at least one row")

    @property
    def depth(self) -> int:
        return len(self.rows)

    def instantiate(self, row_index: int, column: int) -> Conjunction:
        row = self.rows[row_index]
        return Conjunction(self.group, row.template, row.columns[column])

    def path_conjunction(self, eta: Sequence[int]) -> Conjunction:
        if len(eta) != len(self.rows):
            raise PreconditionError("path length must equal the pattern depth")
        return conjoin(*(self.instantiate(i, j) for i, j in enumerate(eta)))


@dataclass(frozen=True)
class RowVerdict:
    index: int
    k: int
    verdict: str  # "true" | "false" | "unknown"
    pair_results: tuple[tuple[tuple[int, ...], SolveResult], ...] = ()
    cross_checked: bool | None = None  # None: not run


@dataclass(frozen=True)
class PathResult:
    eta: tuple[int, ...]
    status: str
    witness: Element | None
    confirmed: bool


@dataclass(frozen=True)
class VerificationReport:
    group: GroupSpec
    depth: int
    rows: tuple[RowVerdict, ...]
    paths: tuple[PathResult, ...]
    sp_lemma: bool
    convex_rows: int
    seed: int
    total_paths: int
    sampled: bool
    unknowns: tuple[str, ...]

    @property
    def verified(self) -> bool:
        return (
            all(r.verdict == "true" for r in self.rows)
            and all(p.status == "SAT" and p.confirmed for p in self.paths)
            and not self.unknowns
            and all(r.cross_checked is not False for r in self.rows)
        )

    def to_json_dict(self, include_pairs: bool = False) -> dict:
        rows = []
        for r in self.rows:
            entry: dict = {"index": r.index, "k": r.k, "verdict": r.verdict}
            if r.cross_checked is not None:
                entry["cross_checked"] = r.cross_checked
            if include_pairs:
                entry["pairs"] = [
                    {"columns": list(cols), **res.to_json_dict()}
                    for cols, res in r.pair_results
                ]
            rows.append(entry)
        return {
            "depth": self.depth,
            "rows": rows,
            "paths": [
                {
                    "eta": list(p.eta),
                    "status": p.status,
                    "witness": None if p.witness is None else str(p.witness),
                    "confirmed": p.confirmed,
                }
                for p in self.paths
            ],
            "structural": {"sp_lemma": self.sp_lemma, "convex_rows": self.convex_rows},
            "seed": self.seed,
            "total_paths": self.total_paths,
            "sampled": self.sampled,
            "unknowns": list(self.unknowns),
            "verified": self.verified,
        }


_VERDICTS = {True: "true", False: "false", None: "unknown"}


def _solve_k_subsets(
    parts: Sequence[Part], k: int, radius: int | None = None
) -> tuple[bool | None, tuple[tuple[tuple[int, ...], SolveResult], ...], bool | None]:
    """Solve every k-subset of the parts in lexicographic order of index
    tuples.  Returns the verdict (False if a subset is SAT, else None if one
    is UNKNOWN, else True, vacuously so when k exceeds the number of parts),
    the (indices, result) pairs, and whether the oracle of the radius found
    no witness in the conjunction of any UNSAT subset (None: not run)."""
    pairs = []
    cross_ok: bool | None = None
    for subset in itertools.combinations(range(len(parts)), k):
        res = solve(*(parts[j] for j in subset))
        pairs.append((subset, res))
        if res.status is SolveStatus.UNSAT and radius is not None:
            merged = conjoin(*(parts[j].conj for j in subset))
            ok = oracle_search(merged, radius) is None
            cross_ok = ok if cross_ok is None else (cross_ok and ok)
    statuses = {res.status for _, res in pairs}
    if SolveStatus.SAT in statuses:
        verdict = False
    elif SolveStatus.UNKNOWN in statuses:
        verdict = None
    else:
        verdict = True
    return verdict, tuple(pairs), cross_ok


def check_k_inconsistent(
    formulas: Sequence[Conjunction], k: int
) -> bool | None:
    """Whether every k-subset of the given formulas is jointly UNSAT: the
    verdict of ``_solve_k_subsets``."""
    if operator.index(k) < 1:
        raise ValueError("the arity must be a positive integer")
    return _solve_k_subsets([Part(f) for f in formulas], k)[0]


def verify(
    pattern: InpPattern,
    path_budget: int,
    *,
    seed: int = 0,
    cross_check_radius: int | None = None,
) -> VerificationReport:
    """Check row inconsistency and path consistency of a pattern.

    All paths are enumerated when their number fits the budget; otherwise a
    deterministic pseudo-random sample of path_budget distinct paths is
    drawn from the recorded seed.  Each (row, column) instance is built
    once, as one ``Part``, the solver's record of it, and passed to
    ``solve`` in every row subset and path through it: its congruences are
    normalized and its own slot classes solved once, each path's slots are
    merged from its instances' records, and no path is built as one
    conjunction.  ``solve`` accepts a path's SAT witness with the literal
    evaluator of ``formulas``; ``verify`` then confirms it with the
    reference evaluator of ``checker``, which shares no evaluation helper
    with that one, against one ``InstanceCheck`` per instance, built once
    beside its ``Part``, the checks sharing their per-(modulus, cut)
    tables.
    When a cross-check radius is given, every UNSAT row verdict is also
    corroborated by the brute-force oracle finding no witness in the
    conjunction of the subset.  A budget or radius that is not an integer
    raises TypeError.
    """
    if operator.index(path_budget) < 1:
        raise ValueError("the path budget must be positive")
    if cross_check_radius is not None and operator.index(cross_check_radius) < 1:
        raise ValueError("the cross-check radius must be a positive integer")
    # each (row, column) instance is built once, so its term values are
    # computed once and shared by the row checks and every path through it
    inst = [
        [Part(pattern.instantiate(i, j)) for j in range(len(row.columns))]
        for i, row in enumerate(pattern.rows)
    ]
    tables: dict = {}  # the reference checks' per-(modulus, cut) tables
    checks = [[InstanceCheck(part.conj, tables) for part in row] for row in inst]
    rows = []
    for i, row in enumerate(pattern.rows):
        verdict, pairs, cross_ok = _solve_k_subsets(inst[i], row.k, cross_check_radius)
        rows.append(RowVerdict(i, row.k, _VERDICTS[verdict], pairs, cross_ok))

    widths = [len(r.columns) for r in pattern.rows]
    total = 1
    for w in widths:
        total *= w
    sampled = total > path_budget
    if not sampled:
        paths_iter = itertools.product(*(range(w) for w in widths))
        etas = [tuple(eta) for eta in paths_iter]
    else:
        rng = random.Random(seed)
        chosen: set[tuple[int, ...]] = set()
        attempts = 0
        while len(chosen) < path_budget and attempts < 20 * path_budget:
            chosen.add(tuple(rng.randrange(w) for w in widths))
            attempts += 1
        etas = sorted(chosen)

    unknowns: list[str] = []
    for r in rows:
        if r.verdict == "unknown":
            unknowns.append(f"row {r.index} inconsistency undecided")

    path_results = []
    for eta in etas:
        path = [inst[i][j] for i, j in enumerate(eta)]
        res = solve(*path)
        confirmed = False
        if res.status is SolveStatus.SAT:
            confirmed = confirm(
                [checks[i][j] for i, j in enumerate(eta)], res.witness
            )
        elif res.status is SolveStatus.UNKNOWN:
            unknowns.append(f"path {eta} undecided: {res.reason}")
        path_results.append(
            PathResult(eta, res.status.value, res.witness, confirmed)
        )

    return VerificationReport(
        group=pattern.group,
        depth=pattern.depth,
        rows=tuple(rows),
        paths=tuple(path_results),
        sp_lemma=check_sp_lemma(pattern),
        convex_rows=count_convex_rows(pattern),
        seed=seed,
        total_paths=total,
        sampled=sampled,
        unknowns=tuple(unknowns),
    )


# --- generators -----------------------------------------------------------


@dataclass(frozen=True)
class GeneratedPattern:
    """A pattern together with its construction data and the closed-form
    path witnesses the construction predicts."""

    pattern: InpPattern
    witness_of: Callable[[Sequence[int]], Element]
    meta: dict


def gen_chain_pattern(p: int, depth: int, width: int) -> GeneratedPattern:
    """Congruence chain over a tower of span blocks of one prime.

    The group is a lexicographic power of the span block with one coordinate
    per chain element, laid out from the least significant coordinate
    upward as e_1, f_(1,1..width), e_2, f_(2,1..width), ...  The subgroups
    hsub strictly interleave along this layout.  Row i (1-based) relates x
    to the columns c_(i,j) = p^i * f_(i,j) modulo p^(i+1) at the cut naming
    hsub(e_i, p); every pair of distinct columns is incompatible, while any
    choice of one column per row is satisfied by the sum of the chosen
    columns.  Depth grows linearly with the requested chain length.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if depth < 1 or width < 1:
        raise ValueError("depth and width must be >= 1")
    K = (depth + 1) * (width + 1)
    group = GroupSpec(tuple(PSPAN(p) for _ in range(K)))

    def coord_e(i: int) -> int:  # i in 1..depth+1
        return K - 1 - (i - 1) * (width + 1)

    def coord_f(i: int, j: int) -> int:  # j in 1..width
        return K - 1 - ((i - 1) * (width + 1) + j)

    e = {i: unit_element(group, coord_e(i)) for i in range(1, depth + 2)}
    f = {
        (i, j): unit_element(group, coord_f(i, j))
        for i in range(1, depth + 1)
        for j in range(1, width + 1)
    }
    c = {(i, j): scale(p**i, f[(i, j)]) for (i, j) in f}
    alpha = {i: hsub(e[i], p) for i in range(1, depth + 1)}

    rows = []
    for i in range(1, depth + 1):
        template = (cong(1, p ** (i + 1), alpha[i], Term.of({0: 1})),)
        columns = tuple((c[(i, j)],) for j in range(1, width + 1))
        rows.append(PatternRow(template, columns, 2))
    pattern = InpPattern(group, tuple(rows))

    def witness_of(eta: Sequence[int]) -> Element:
        return reduce(add, (c[(i + 1, eta[i] + 1)] for i in range(depth)))

    meta = {
        "kind": "chain",
        "p": p,
        "depth": depth,
        "width": width,
    }
    return GeneratedPattern(pattern, witness_of, meta)


def gen_optimal_pattern(
    primes: Sequence[int], mults: Sequence[int], grid: int
) -> GeneratedPattern:
    """Pattern meeting the rank bound over Q followed by span-block segments.

    The group is the rationals (most significant) followed by mults[i]
    copies of the span block of primes[i].  For segment i and copy j
    (counted from the right of the segment), the columns are elements
    carrying p_i^j times a distinct basis symbol in that copy, compared
    modulo p_i^(j+1) at the cut naming the j rightmost copies plus all
    later segments (the zero subgroup when j = 0).  A final row of pairwise
    disjoint rational intervals contributes the order part.  The verified
    depth is 1 + sum of the multiplicities, matching the computed rank
    bound of the group, and each path is satisfied by the interval midpoint
    element plus the sum of the chosen congruence columns.
    """
    if len(primes) != len(mults) or not primes:
        raise ValueError("need matching nonempty primes and multiplicities")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    for k in mults:
        if k < 1:
            raise ValueError("multiplicities must be >= 1")
    if grid < 2:
        raise ValueError("the grid needs at least two columns")

    blocks: list = [RAT]
    for p, k in zip(primes, mults):
        blocks.extend(PSPAN(p) for _ in range(k))
    group = GroupSpec(tuple(blocks))
    K = group.K

    def seg_start(i: int) -> int:
        return 1 + sum(mults[:i])

    def coord(i: int, j: int) -> int:  # j-th copy from the right of segment i
        return seg_start(i) + mults[i] - 1 - j

    e: dict[tuple[int, int, int], Element] = {}
    for i, p in enumerate(primes):
        for j in range(mults[i]):
            for g in range(grid):
                e[(i, j, g)] = unit_element(
                    group, coord(i, j), value=p**j, basis=g
                )

    rows = []
    row_keys: list[tuple[int, int]] = []
    for i, p in enumerate(primes):
        for j in range(mults[i]):
            alpha = (
                ConvexCut(K)
                if j == 0
                else ConvexCut(seg_start(i) + mults[i] - j)
            )
            template = (cong(1, p ** (j + 1), alpha, Term.of({0: 1})),)
            columns = tuple((e[(i, j, g)],) for g in range(grid))
            rows.append(PatternRow(template, columns, 2))
            row_keys.append((i, j))

    def rational_point(q: Fraction) -> Element:
        return Element(group, (q,) + tuple(() for _ in range(1, K)))

    a_pts = [rational_point(Fraction(g)) for g in range(grid)]
    b_pts = [rational_point(Fraction(g) + Fraction(1, 2)) for g in range(grid)]
    interval_template = (
        ord_lit(1, ">", Term.of({0: 1})),
        ord_lit(1, "<", Term.of({1: 1})),
    )
    interval_columns = tuple((a_pts[g], b_pts[g]) for g in range(grid))
    rows.append(PatternRow(interval_template, interval_columns, 2))
    pattern = InpPattern(group, tuple(rows))

    def witness_of(eta: Sequence[int]) -> Element:
        g = eta[-1]
        out = rational_point(Fraction(g) + Fraction(1, 4))
        for n, (i, j) in enumerate(row_keys):
            out = add(out, e[(i, j, eta[n])])
        return out

    meta = {
        "kind": "optimal",
        "primes": list(primes),
        "mults": list(mults),
        "grid": grid,
        "depth": len(rows),
    }
    return GeneratedPattern(pattern, witness_of, meta)


# --- structural checks ------------------------------------------------------


def _single_cong_rows(pattern: InpPattern) -> list[tuple[int, int, int, ConvexCut]]:
    """Rows shaped as a single positive prime-power congruence, as
    (row index, prime, exponent, cut)."""
    out = []
    for idx, row in enumerate(pattern.rows):
        if len(row.template) != 1:
            continue
        lit = row.template[0]
        if classify(lit) is not LiteralType.I:
            continue
        f = factorize(lit.m)
        if len(f) != 1:
            continue
        (p, e), = f.items()
        out.append((idx, p, e, lit.alpha))
    return out


def check_sp_lemma(pattern: InpPattern) -> bool:
    """Sort-interleaving property of the congruence rows.

    For every pair of single-congruence rows at the same prime whose cuts
    are comparable with one subgroup contained in the other, the smaller
    row must use a strictly smaller modulus exponent and some sort of that
    prime must name a subgroup at least the smaller one and strictly below
    the larger one.  Vacuously true with at most one such row per prime.
    """
    rows = _single_cong_rows(pattern)
    sort_cache: dict[int, list[ConvexCut]] = {}
    for (i1, p1, e1, a1), (i2, p2, e2, a2) in itertools.combinations(rows, 2):
        if p1 != p2:
            continue
        # orient so the first subgroup is contained in the second
        if a2.s <= a1.s:
            lo_e, lo_a, hi_e, hi_a = e1, a1, e2, a2
        else:
            lo_e, lo_a, hi_e, hi_a = e2, a2, e1, a1
        if lo_a.s == hi_a.s:
            return False
        if not lo_e < hi_e:
            return False
        if p1 not in sort_cache:
            sort_cache[p1] = sorts(pattern.group, p1)
        # some sort names a subgroup between the two: contains the smaller
        # one, strictly contained in the larger one
        if not any(lo_a.s >= c.s > hi_a.s for c in sort_cache[p1]):
            return False
    return True


def count_convex_rows(pattern: InpPattern) -> int:
    """Rows all of whose literals define convex sets (order or subgroup
    membership literals)."""
    return sum(
        1
        for row in pattern.rows
        if all(classify(l) is LiteralType.III for l in row.template)
    )
