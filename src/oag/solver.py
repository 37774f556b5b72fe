"""Consistency of one-variable literal conjunctions over a concrete group.

The procedure is three-valued.  SAT answers always come with a witness that
has been checked by the literal evaluator; UNSAT answers always come with a
certificate.  Anything the procedure cannot settle is reported UNKNOWN,
never guessed.

Shape of the decision: ``solve`` runs the phases below in order over one
``_Problem`` record, and a phase that settles the answer raises ``_Decided``.

1.  ``_normalize`` sorts the literals by role.  Positive congruence literals
    are rewritten to coefficient 1 and prime-power modulus (one already in
    that form is kept as it is), order literals become bounds on x,
    equalities pin x and subgroup-coset literals pin single coordinates.  A
    literal that no x satisfies, or two pins that disagree, give UNSAT.
2.  ``_decide_pinned``: an equality pin determines x, so the conjunction
    reduces to evaluation (SAT) or refutation (UNSAT).
3.  ``_solve_slots``: a normalized congruence splits coordinatewise, and on
    each block coordinate only finitely many basis coefficients are
    constrained (the union of the term supports plus one fresh basis
    symbol).  A slot maps (coordinate, basis) to (modulus, residue), the
    basis None on scalar blocks.  Only the live slots, where some
    congruence value is nonzero, are solved and kept, in coordinate then
    basis order: ``_solve_slot`` solves one to a residue class per prime,
    combined by CRT, and an empty class yields an UNSAT certificate listing
    the exhausted residues.  Every other slot solves to (M, 0), with M the
    product of the largest prime powers of the congruences on its
    coordinate; ``_every_slot`` fills those in for the two readers that
    need them.  A pinned coordinate has no slot; its pin must meet every
    congruence there.  Only the coordinates some congruence value touches,
    and the pinned ones a congruence reaches, are visited.
4.  ``_intersect_bounds``: order bounds are intersected in the divisible
    hull via cross-multiplied comparisons.  An empty interval is UNSAT;
    equal bounds force x, which ``_decide_pinned`` decides.
5.  ``_place_coordinate0``: when the most significant coordinate has strict
    rational slack between the bounds, it is placed strictly inside the gap;
    this covers every conjunction whose order constraints live in a most
    significant divisible coordinate (the fragment all pattern
    constructions use).
6.  ``_candidates`` yields the parameters, zero, the bound points and the
    slot residues with the placement over the coordinate-0 slot; for negated
    literals, or order bounds without a placement, it goes on with a
    bounded enumeration of residue moves over every slot.  A candidate
    that misses a live slot's residue fails a normalized congruence, so
    ``solve`` rejects it without evaluating it; the first candidate the
    evaluator accepts is the witness.  If there is none the answer is
    UNKNOWN, with the reason.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import prod
from typing import Iterable, Iterator, NoReturn, Sequence

from .errors import NotReducibleError
from .formulas import (
    _CMP_FLIP,
    Conjunction,
    LitKind,
    _holds,
    conjoin,
    evaluate_conj,
    normalize_type_I,
    term_value,
)
from .groups import (
    Element,
    GroupSpec,
    Ordering,
    _norm_block_value,
    _quotient,
    _raw_element,
    block_divide,
    block_divisible,
    compare,
    neg,
    scale,
    span_coefficient,
    span_enclosure,
    sub,
    unit_element,
)
from .numutil import (
    crt_pair,
    factorize,
    int_above,
    int_below,
    int_valuation,
    residue_mod,
)

_CERT_ENUM_CAP = 4096


class SolveStatus(str, Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class CertEntry:
    """One step of an inconsistency certificate."""

    kind: str
    coordinate: int | None = None
    basis: int | None = None
    modulus: int | None = None
    excluded: tuple[int, ...] | None = None
    literals: tuple[int, ...] = ()
    note: str = ""

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.coordinate is not None:
            out["coordinate"] = self.coordinate
        if self.basis is not None:
            out["basis"] = self.basis
        if self.modulus is not None:
            out["modulus"] = self.modulus
        if self.excluded is not None:
            out["excluded"] = list(self.excluded)
        if self.literals:
            out["literals"] = list(self.literals)
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    witness: Element | None = None
    certificate: tuple[CertEntry, ...] = ()
    reason: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "status": self.status.value,
            "witness": None if self.witness is None else str(self.witness),
            "certificate": [c.to_json_dict() for c in self.certificate],
            "reason": self.reason,
        }


class _Decided(Exception):
    """Raised by the phase that settles the answer."""

    def __init__(self, result: SolveResult):
        self.result = result


def _refute(
    kind: str, literals: tuple[int, ...], note: str = "", **where
) -> NoReturn:
    """Settle the answer as UNSAT with a one-entry certificate."""
    entry = CertEntry(kind, literals=literals, note=note, **where)
    raise _Decided(SolveResult(SolveStatus.UNSAT, certificate=(entry,)))


def _unknown(reason: str) -> SolveResult:
    return SolveResult(SolveStatus.UNKNOWN, reason=reason)


@dataclass(frozen=True)
class _Cong:
    """Normalized positive congruence: x = value mod (cut + p^e G)."""

    p: int
    e: int
    alpha_s: int
    value: Element
    src: int


@dataclass(frozen=True)
class _Bound:
    t: Element
    k: int  # > 0
    strict: bool
    src: int


# (coordinate, basis) -> (modulus, residue); the basis is a span basis index,
# None on scalar blocks.  ``_solve_slots`` keeps the live slots only.
_Slots = dict[tuple[int, int | None], tuple[int, int]]


@dataclass
class _Problem:
    """A conjunction's literals sorted by role (see ``_normalize``)."""

    conj: Conjunction
    congs: list[_Cong] = field(default_factory=list)
    lows: list[_Bound] = field(default_factory=list)
    highs: list[_Bound] = field(default_factory=list)
    pin: tuple[Element, int] | None = None  # (x, source literal)
    coord_pins: dict[int, tuple[object, int]] = field(default_factory=dict)
    has_diseq: bool = False


def _bound_cmp(b1: _Bound, b2: _Bound) -> Ordering:
    """Order of the hull points t1/k1 and t2/k2 by cross multiplication."""
    return compare(scale(b2.k, b1.t), scale(b1.k, b2.t))


def _tightest(bounds: list[_Bound], want_max: bool) -> _Bound | None:
    best: _Bound | None = None
    for b in bounds:
        if best is None:
            best = b
            continue
        c = _bound_cmp(b, best)
        if c is Ordering.EQ:
            if b.strict and not best.strict:
                best = b
        elif (c is Ordering.GT) == want_max:
            best = b
    return best


def solve(conj: Conjunction, *, candidate_budget: int = 20000) -> SolveResult:
    """Decide a conjunction; see the module docstring for the procedure."""
    try:
        prob = _normalize(conj)
        if prob.pin is not None:
            _decide_pinned(
                conj, prob.pin[0], None, "the equality literal determines x uniquely"
            )
        slots = _solve_slots(prob)
        _intersect_bounds(prob)
    except _Decided as decided:
        return decided.result
    have_ords = bool(prob.lows or prob.highs)
    placement = _place_coordinate0(prob, slots) if have_ords else None
    explore = prob.has_diseq or (have_ords and placement is None)
    for x in _candidates(prob, slots, placement, explore, candidate_budget):
        if _meets_slots(x, slots) and evaluate_conj(conj, x):
            return SolveResult(SolveStatus.SAT, witness=x)
    if prob.has_diseq:
        return _unknown(
            "negated literals present; bounded enumeration found no witness"
        )
    if have_ords and placement is None:
        return _unknown(
            "order constraints leave no strict slack in the most significant "
            "coordinate; outside the complete fragment"
        )
    return _unknown("witness assembly failed outside the complete fragment")


def _normalize(conj: Conjunction) -> _Problem:
    """Phase 1: sort the literals by role, refuting those no x satisfies."""
    group = conj.group
    prob = _Problem(conj)
    bank = conj.params
    for idx, (lit, t) in enumerate(zip(conj.literals, conj.term_values)):
        if lit.kind is LitKind.CONG:
            pf = factorize(lit.m)
            if lit.k == 1 and len(pf) <= 1:
                # already in normal form (or vacuous, modulus 1): no rewrite
                prob.congs.extend(
                    _Cong(p, e, lit.alpha.s, t, idx) for p, e in pf.items()
                )
                continue
            try:
                res = normalize_type_I(lit, bank, group)
            except NotReducibleError:
                _refute(
                    "congruence-term-not-reducible",
                    (idx,),
                    "k*x is always p-divisible above the cut but the term is "
                    "not; the literal is unsatisfiable",
                )
            bank = res.params
            for piece in res.literals:
                if piece.m == 1:  # a modulus-1 piece is vacuous
                    continue
                # each piece's modulus is a power of one prime of the literal's
                p = next(q for q in pf if piece.m % q == 0)
                e = int_valuation(piece.m, p)
                value = term_value(piece.term, bank, group)
                prob.congs.append(_Cong(p, e, piece.alpha.s, value, idx))
        elif lit.kind is LitKind.ORD:
            k, cmp = lit.k, lit.cmp
            if k < 0:
                k, t, cmp = -k, neg(t), _CMP_FLIP[cmp]
            if cmp in (">", ">="):
                prob.lows.append(_Bound(t, k, cmp == ">", idx))
            elif cmp != "=":
                prob.highs.append(_Bound(t, k, cmp == "<", idx))
            else:
                v = _quotient(t, k, group.K)
                if v is None:
                    _refute(
                        "equality-indivisible",
                        (idx,),
                        f"k*x = t has no solution: t is not divisible by {k}",
                    )
                if prob.pin is not None and prob.pin[0] != v:
                    _refute("pin-conflict", (prob.pin[1], idx))
                prob.pin = (v, idx)
        elif lit.kind is LitKind.INGRP:
            if lit.k < 0:
                t = neg(t)
            for i in range(lit.alpha.s):
                q = block_divide(group.blocks[i], t.coords[i], abs(lit.k))
                if q is None:
                    _refute(
                        "coset-pin-indivisible",
                        (idx,),
                        "k*x pinned to a value outside the block",
                        coordinate=i,
                    )
                prev = prob.coord_pins.get(i)
                if prev is not None and prev[0] != q:
                    _refute("pin-conflict", (prev[1], idx), coordinate=i)
                prob.coord_pins[i] = (q, idx)
        else:
            prob.has_diseq = True
    return prob


def _decide_pinned(
    conj: Conjunction, x: Element, cited: tuple[int, ...] | None, note: str
) -> NoReturn:
    """x is forced: SAT if it satisfies the conjunction, otherwise UNSAT
    citing `cited`, or the literals x fails when `cited` is None."""
    if evaluate_conj(conj, x):
        raise _Decided(SolveResult(SolveStatus.SAT, witness=x))
    if cited is None:
        cited = tuple(
            i
            for i, (lit, t) in enumerate(zip(conj.literals, conj.term_values))
            if not _holds(lit, x, t)
        )
    _refute("pin-refuted", cited, note)


def _solve_slots(prob: _Problem) -> _Slots:
    """Phase 3: the residue class of every live slot, in coordinate then
    basis order; pins are checked and slots refuted in that order too."""
    blocks = prob.conj.group.blocks
    # the live bases of each coordinate some congruence value touches.
    # Zloc(p) and Gp(p) are q-divisible for every prime q != p, and Q for
    # every prime, so only Z and the block's own prime carry residues
    live: dict[int, set[int | None]] = {}
    for c in prob.congs:
        coords = c.value.coords
        for i in itertools.compress(range(c.alpha_s), coords):
            block = blocks[i]
            if i in prob.coord_pins or not (block.kind == "Z" or c.p == block.p):
                continue
            bases = live.setdefault(i, set())
            if block.kind == "GP":
                bases.update(b for b, _ in coords[i])
            else:
                bases.add(None)
    reach = max((c.alpha_s for c in prob.congs), default=0)
    pinned = [i for i in prob.coord_pins if i < reach]
    # the coordinate pins alone, zero elsewhere
    pins = _assemble(prob.conj.group, prob.coord_pins, {}) if pinned else None
    slots: _Slots = {}
    for i in sorted(live.keys() | pinned):
        block = blocks[i]
        if i in prob.coord_pins:
            for c in prob.congs:
                if c.alpha_s <= i:
                    continue
                d = sub(pins, c.value).coords[i]
                if not block_divisible(block, d, c.p**c.e):
                    _refute(
                        "pin-congruence-conflict",
                        (prob.coord_pins[i][1], c.src),
                        coordinate=i,
                        modulus=c.p**c.e,
                    )
            continue
        here = [
            c for c in prob.congs
            if c.alpha_s > i and (block.kind == "Z" or c.p == block.p)
        ]
        for b in sorted(live[i]):
            slots[i, b] = _solve_slot(i, b, here)
    return slots


def _every_slot(prob: _Problem, live: _Slots, coords: Iterable[int]) -> _Slots:
    """The slots of the given coordinates, pinned ones skipped, in
    coordinate then basis order: on a span block one per basis of the term
    supports plus a fresh one.  A live slot keeps its solution; every other
    slot solves to (M, 0), M the product of the largest prime powers of the
    congruences on the coordinate (1 when there are none)."""
    group = prob.conj.group
    terms = prob.conj.term_values + tuple(c.value for c in prob.congs)
    slots: _Slots = {}
    for i in coords:
        if i in prob.coord_pins:
            continue
        block = group.blocks[i]
        e_max: dict[int, int] = {}
        for c in prob.congs:
            if c.alpha_s > i and (block.kind == "Z" or c.p == block.p):
                e_max[c.p] = max(e_max.get(c.p, 0), c.e)
        zero_slot = (prod(p**e for p, e in e_max.items()), 0)
        bases: list[int | None] = [None]
        if block.kind == "GP":
            support = {b for t in terms for b, _ in t.coords[i]}
            bases = sorted(support) + [max(support, default=-1) + 1]
        for b in bases:
            slots[i, b] = live.get((i, b), zero_slot)
    return slots


def _meets_slots(x: Element, slots: _Slots) -> bool:
    """Whether x has every live slot's residue.  Each normalized congruence
    fixes the residue of x on each of its slots, so an x that misses one
    fails the conjunction; the converse need not hold."""
    for (i, b), (m, r) in slots.items():
        v = x.coords[i] if b is None else span_coefficient(x.coords[i], b)
        if residue_mod(v, m) != r:
            return False
    return True


def _solve_slot(coord: int, basis: int | None, congs: list[_Cong]) -> tuple[int, int]:
    """Solve the congruences on one slot to (modulus, residue).

    Per prime the solution set is a single residue class modulo the largest
    prime power, or empty; empty refutes with a certificate enumerating the
    excluded residues.  The classes of distinct primes combine by CRT.
    """
    m, r = 1, 0
    for p in sorted({c.p for c in congs}):
        cs = [c for c in congs if c.p == p]
        targets = [
            (c.e, c.value.coords[coord] if basis is None
             else span_coefficient(c.value.coords[coord], basis))
            for c in cs
        ]
        e_max = max(e for e, _ in targets)
        mp = p**e_max
        rp = next(residue_mod(tgt, mp) for e, tgt in targets if e == e_max)
        if any((rp - residue_mod(tgt, p**e)) % p**e for e, tgt in targets):
            _refute(
                "congruence-conflict",
                tuple(sorted({c.src for c in cs})),
                "no residue satisfies all congruences on this slot",
                coordinate=coord,
                basis=basis,
                modulus=mp,
                excluded=tuple(range(mp)) if mp <= _CERT_ENUM_CAP else None,
            )
        r = crt_pair(r, m, rp, mp)
        m *= mp
    return m, r


def _intersect_bounds(prob: _Problem) -> None:
    """Phase 4: the tightest bounds must leave room for x."""
    low = _tightest(prob.lows, want_max=True)
    high = _tightest(prob.highs, want_max=False)
    if low is None or high is None:
        return
    cited = (low.src, high.src)
    c = _bound_cmp(low, high)
    if c is Ordering.GT:
        _refute("order-bounds-empty", cited, "the lower bound exceeds the upper bound")
    if c is Ordering.EQ:
        if low.strict or high.strict:
            _refute("order-bounds-empty", cited, "equal bounds with a strict side")
        x = _quotient(low.t, low.k, prob.conj.group.K)
        if x is None:
            _refute(
                "order-pin-indivisible",
                cited,
                "x is forced to a hull point outside the group",
            )
        _decide_pinned(
            prob.conj,
            x,
            cited,
            "equal order bounds force x uniquely",
        )


def _candidates(
    prob: _Problem,
    slots: _Slots,
    placement,
    explore: bool,
    budget: int,
) -> Iterator[Element]:
    """Distinct candidate witnesses, in a fixed order.

    First the parameters, zero, the points of divisible bounds and the live
    slot residues with the placement over the coordinate-0 slot.  With
    `explore`, then moves of one and of two slots of ``_every_slot``, in slot
    order, by one or two moduli, each under every alternative placement; the
    moves stop once `budget` distinct candidates have been produced.
    """
    group = prob.conj.group
    seen: set[Element] = set()
    residues = {key: r for key, (_, r) in slots.items()}
    key0 = (0, 0 if group.blocks[0].kind == "GP" else None)
    placements = [{}] if placement is None else [{key0: placement}]
    if placement is not None and group.blocks[0].kind == "Q":
        placements += [{key0: placement + 1}, {key0: placement + Fraction(1, 3)}]

    def fixed():
        yield from prob.conj.params
        yield group.zero()
        for b in prob.lows + prob.highs:
            yield _quotient(b.t, b.k, group.K)
        yield _assemble(group, prob.coord_pins, {**residues, **placements[0]})

    def moves():
        if not explore:
            return
        every = _every_slot(prob, slots, range(group.K))
        vary = [key for key in every if key[0] != 0 or placement is None]
        for count in (1, 2):
            for combo in itertools.combinations(vary, count):
                for steps in itertools.product((1, 2), repeat=count):
                    if len(seen) >= budget:
                        return
                    move = {
                        key: every[key][1] + n * every[key][0]
                        for key, n in zip(combo, steps)
                    }
                    for pl in placements:
                        yield _assemble(
                            group, prob.coord_pins, {**residues, **move, **pl}
                        )

    for x in itertools.chain(fixed(), moves()):
        if x is not None and x not in seen:
            seen.add(x)
            yield x


def _place_coordinate0(prob: _Problem, slots: _Slots):
    """Choose a coordinate-0 value strictly between the order bounds so that
    every comparison is decided at the most significant coordinate.

    Called only when an order bound exists.  Returns None when no strict
    slack could be certified.
    """
    if 0 in prob.coord_pins:
        return None
    block = prob.conj.group.blocks[0]
    lows, highs = prob.lows, prob.highs
    key0 = (0, 0 if block.kind == "GP" else None)
    m, r = _every_slot(prob, slots, (0,)).get(key0, (1, 0))

    if block.kind != "GP":
        lo = max((Fraction(b.t.coords[0]) / b.k for b in lows), default=None)
        hi = min((Fraction(b.t.coords[0]) / b.k for b in highs), default=None)
        if lo is not None and hi is not None and lo >= hi:
            return None
        if block.kind == "Q":
            if lo is None:
                return hi - 1
            if hi is None:
                return lo + 1
            return (lo + hi) / 2
        if block.kind == "Z":
            if lo is None:
                return r + m * ((int_below(hi) - r) // m)
            n = r + m * (-((r - int_above(lo)) // m))
            return n if hi is None or n < hi else None
        # ZLOC: x0 = r + m*z with z any p-local rational in the open gap
        zlo = None if lo is None else (lo - r) / m
        zhi = None if hi is None else (hi - r) / m
        z = _local_rational_between(block.p, zlo, zhi)
        return None if z is None else Fraction(r) + m * z

    # span block most significant: adjust the b0 coefficient, enclosing the
    # fixed irrational contribution and the bound values numerically; the
    # final candidate is still verified exactly by the evaluator.
    fixed_pairs = tuple(
        (b, Fraction(v)) for (i, b), (_, v) in slots.items() if i == 0 and b and v
    )
    for bits in (64, 128, 256, 512):
        lo_enc = None
        for b in lows:
            pairs = tuple((i, c / b.k) for i, c in b.t.coords[0])
            _, bhi = span_enclosure(pairs, bits)
            lo_enc = bhi if lo_enc is None or bhi > lo_enc else lo_enc
        hi_enc = None
        for b in highs:
            pairs = tuple((i, c / b.k) for i, c in b.t.coords[0])
            blo, _ = span_enclosure(pairs, bits)
            hi_enc = blo if hi_enc is None or blo < hi_enc else hi_enc
        flo, fhi = span_enclosure(fixed_pairs, bits)
        zlo = None if lo_enc is None else (lo_enc - flo - r) / m
        zhi = None if hi_enc is None else (hi_enc - fhi - r) / m
        if zlo is not None and zhi is not None and zlo >= zhi:
            continue
        z = _local_rational_between(block.p, zlo, zhi)
        if z is not None:
            return Fraction(r) + m * z
    return None


def _assemble(
    group: GroupSpec,
    coord_pins: dict[int, tuple[object, int]],
    values: dict[tuple[int, int | None], object],
) -> Element | None:
    """Build an element from (coordinate, basis) values, zero elsewhere, with
    the coordinate pins laid over them; None if a value leaves its block.
    Only the coordinates that receive a nonzero value or a pin are
    normalized."""
    given: dict[int, object] = {}
    for (i, b), v in values.items():
        if not v:
            continue
        if b is None:
            given[i] = v
        else:
            given.setdefault(i, {})[b] = v
    for i, (v, _) in coord_pins.items():
        given[i] = v
    coords = list(group.zero().coords)
    try:
        for i, v in given.items():
            coords[i] = _norm_block_value(group.blocks[i], v)
    except ValueError:
        return None
    return _raw_element(group, tuple(coords))


def _local_rational_between(
    p: int, lo: Fraction | None, hi: Fraction | None
) -> Fraction | None:
    """A rational with denominator coprime to p strictly inside (lo, hi)."""
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return Fraction(int_below(hi))
    if hi is None:
        return Fraction(int_above(lo))
    if lo >= hi:
        return None
    d = 2 if p != 2 else 3
    w = 1
    while Fraction(2, w) >= hi - lo:
        w *= d
    a = int_below(lo * w) + 1
    cand = Fraction(a, w)
    if not lo < cand < hi:
        cand = Fraction(a + 1, w)
    return cand if lo < cand < hi else None


def oracle_search(
    conj: Conjunction,
    radius: int,
    *,
    max_support: int = 3,
    candidate_budget: int = 100000,
) -> Element | None:
    """Brute-force witness hunt, independent of the search in solve.

    Enumerates integer combinations of a generator set (the parameters, one
    fresh basis unit per span coordinate, and p-divisions of divisible
    generators up to p^2) with coefficients bounded by the radius and
    support bounded by max_support, in a fixed deterministic order.  Returns
    the first combination that satisfies the conjunction, or None.  It
    shares the literal evaluator with solve but neither its candidates nor
    their order.
    Incomplete by design; meant to corroborate SAT answers and to hunt
    counterexamples to UNSAT answers.
    """
    if radius < 1:
        raise ValueError("the oracle radius must be a positive integer")
    group = conj.group
    gens: list[Element] = []

    def push(e: Element):
        if not e.is_zero() and e not in gens:
            gens.append(e)

    for par in conj.params:
        push(par)
    fresh_primes = set()
    for lit in conj.literals:
        if lit.m:
            fresh_primes.update(factorize(lit.m))
    for block in group.blocks:
        if block.p is not None:
            fresh_primes.add(block.p)
    for i, block in enumerate(group.blocks):
        if block.kind == "GP":
            support = set()
            for t in conj.term_values:
                support.update(b for b, _ in t.coords[i])
            fresh = max(support, default=-1) + 1
            push(unit_element(group, i, basis=fresh))
    for g in list(gens):
        for p in sorted(fresh_primes):
            for d in (1, 2):
                q = _quotient(g, p**d, group.K)
                if q is not None:
                    push(q)

    zero = group.zero()
    if evaluate_conj(conj, zero):
        return zero

    coeffs = [c for a in range(1, radius + 1) for c in (a, -a)]
    scaled = [[scale(c, g) for c in coeffs] for g in gens]
    tried = 0
    # left-fold sums over combo[:-1], keyed by their coefficients; combinations
    # yields combos sharing a prefix contiguously, so one prefix is cached
    prefix_combo, prefix_sums = None, {}
    for support in range(1, min(max_support, len(gens)) + 1):
        for combo in itertools.combinations(range(len(gens)), support):
            if combo[:-1] != prefix_combo:
                prefix_combo, prefix_sums = combo[:-1], {}
            last = scaled[combo[-1]]
            for cs in itertools.product(range(len(coeffs)), repeat=support):
                tried += 1
                if tried > candidate_budget:
                    return None
                head = cs[:-1]
                if head and head not in prefix_sums:
                    x = scaled[combo[0]][head[0]]
                    for j, ci in zip(combo[1:-1], head[1:]):
                        x = x + scaled[j][ci]
                    prefix_sums[head] = x
                x = prefix_sums[head] + last[cs[-1]] if head else last[cs[-1]]
                if evaluate_conj(conj, x):
                    return x
    return None


def solve_k_subsets(
    formulas: Sequence[Conjunction], k: int
) -> Iterator[tuple[tuple[int, ...], Conjunction, SolveResult]]:
    """Conjoin and solve every k-subset of the formulas, lazily, in
    lexicographic order of index tuples; yields (indices, conjunction,
    verdict).  Yields nothing when k exceeds the number of formulas."""
    for subset in itertools.combinations(range(len(formulas)), k):
        merged = conjoin(*(formulas[j] for j in subset))
        yield subset, merged, solve(merged)


def check_k_inconsistent(
    formulas: Sequence[Conjunction], k: int
) -> bool | None:
    """Whether every k-subset of the given formulas is jointly UNSAT.

    True requires an UNSAT verdict on every subset (vacuously so when k
    exceeds the number of formulas); any SAT subset gives False; otherwise
    an undecided subset propagates as None (unknown).
    """
    if k < 1:
        raise ValueError("the arity must be a positive integer")
    saw_unknown = False
    for _, _, res in solve_k_subsets(formulas, k):
        if res.status is SolveStatus.SAT:
            return False
        if res.status is SolveStatus.UNKNOWN:
            saw_unknown = True
    return None if saw_unknown else True
