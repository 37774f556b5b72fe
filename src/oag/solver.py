"""Consistency of one-variable literal conjunctions over a concrete group.

The procedure is three-valued.  SAT answers always come with a witness that
has been checked by the literal evaluator; UNSAT answers always come with a
certificate.  Anything the procedure cannot settle is reported UNKNOWN,
never guessed.

Shape of the decision: ``solve`` runs the phases below in order over one
``_Problem`` record, and a phase that settles the answer raises ``_Decided``.

1.  ``_normalize`` sorts the literals by role.  Positive congruence literals
    are rewritten to coefficient 1 and prime-power modulus (one already in
    that form is kept as it is), order literals k*x <cmp> t become bounds
    on x that carry their hull point t/k, divided once here (the tightest
    low and high, by hull point, are picked once, for phases 4 and 5),
    equalities pin x and subgroup-coset literals pin single coordinates.  A
    literal that no x satisfies, or two pins that disagree, give UNSAT.  A
    negated literal of constant truth (``formulas._constant_truth``) is
    dropped when true and refuted after phase 4 when false; the others stay
    live.
2.  ``_decide_pinned``: an equality pin determines x, so the conjunction
    reduces to evaluation (SAT) or refutation (UNSAT).
3.  ``_solve_slots``: a normalized congruence splits coordinatewise, and on
    each block coordinate only finitely many basis coefficients are
    constrained.  A slot maps (coordinate, basis) to (modulus, residue), the
    basis None on scalar blocks.  Which blocks a congruence mod p^e
    constrains, and modulo what, is ``groups.block_modulus`` (memoized per
    prime and modulus): on a block of modulus 1 (Q, or Zloc or Gp of
    another prime) it constrains nothing.  Only the live slots, where some
    constraining congruence value is nonzero, are solved and kept, in
    coordinate then basis order; one pass over the congruences finds them.
    ``_solve_slot`` keeps per prime, in one pass over the slot's targets,
    the top exponent, the nonzero targets and the top exponent of the zero
    targets (a zero target, the common case, asks only for residue 0), and
    solves them to a residue class per prime, combined by CRT; an empty
    class yields an UNSAT certificate listing the exhausted residues.  On every other slot ``_solve_slot`` gives (M, 0),
    M the product of the largest prime powers of the congruences on the
    coordinate; ``_slot`` reads either kind.  The residues are ints, which
    ``_assemble`` places with no normalizing.  A pinned coordinate has no
    slot; ``_missed`` checks that its pin has the ``block_residues`` of
    every congruence value there.
4.  ``_intersect_bounds``: order bounds are intersected in the divisible
    hull by comparing their hull points.  An empty interval is UNSAT;
    equal bounds force x, which ``_decide_pinned`` decides.  So does a
    subgroup literal set that pins every coordinate.
5.  ``_descend`` walks the coordinates of the two tightest hull points: a
    pin drops each bound it meets strictly, and a pin outside a live bound
    is UNSAT (``pin-outside-bounds``, citing the pins up to it and the
    bound; the pins form a prefix, so x meets the bound on each coordinate
    before it).  A coordinate where both bounds agree is forced to their
    common value, and the first other coordinate is placed strictly inside
    the gap on its slot's residue class.  On a coordinate both bounds still
    reach, a forced value off the block or off a congruence's class, or a
    Z gap with no class point and no usable endpoint, is UNSAT
    (``order-gap-off-class``, citing the two bounds and the coordinate's
    carriers).  Below the placement the coordinates are free.
6.  ``_candidates`` yields the parameters, zero, the bound points and the
    slot residues under the descent's values; with live negated literals,
    then the escape points, which step the placement through its gap and
    move the free coordinates.  A candidate that misses a live slot's
    residue fails a normalized congruence, so ``solve`` rejects it without
    evaluating it; the first candidate the evaluator accepts is the
    witness.  If there is none the answer is UNKNOWN, with the reason.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterator, NamedTuple, NoReturn

from .errors import NotReducibleError
from .formulas import (
    _CMP_FLIP,
    Conjunction,
    LitKind,
    _constant_truth,
    _holds,
    evaluate_conj,
    normalize_type_I,
    term_value,
)
from .groups import (
    BlockKind,
    Element,
    GroupSpec,
    Ordering,
    SpanPairs,
    _divide,
    _norm_block_value,
    _quotient,
    _raw_element,
    block_divide,
    block_modulus,
    block_residues,
    block_sign,
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


class _Cong(NamedTuple):
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
    # the hull point t/k, coordinatewise: compared and read, never assembled,
    # so a coordinate may leave its block
    hull: Element


# (coordinate, basis) -> (modulus, residue); the basis is a span basis index,
# None on scalar blocks.  ``_solve_slots`` keeps the live slots only.  Keys
# per coordinate on block_residues measured slower, with no fewer lines.
_Slots = dict[tuple[int, int | None], tuple[int, int]]


@dataclass
class _Problem:
    """A conjunction's literals sorted by role (see ``_normalize``)."""

    conj: Conjunction
    congs: list[_Cong] = field(default_factory=list)
    lows: list[_Bound] = field(default_factory=list)
    highs: list[_Bound] = field(default_factory=list)
    low: _Bound | None = None  # the tightest of the lows
    high: _Bound | None = None  # the tightest of the highs
    pin: tuple[Element, int] | None = None  # (x, source literal)
    coord_pins: dict[int, tuple[object, int]] = field(default_factory=dict)
    negs: list[int] = field(default_factory=list)  # live negated literals
    false_lit: int | None = None  # the first literal that holds at no x


def solve(conj: Conjunction) -> SolveResult:
    """Decide a conjunction; see the module docstring for the procedure."""
    try:
        prob = _normalize(conj)
        if prob.pin is not None:
            _decide_pinned(
                conj, prob.pin[0], None, "the equality literal determines x uniquely"
            )
        slots = _solve_slots(prob)
        _intersect_bounds(prob)
        if prob.false_lit is not None:
            _refute(
                "literal-constant-false",
                (prob.false_lit,),
                "the literal holds at no x",
            )
        if len(prob.coord_pins) == conj.group.K:
            _decide_pinned(
                conj,
                _assemble(conj.group, prob.coord_pins, {}),
                None,
                "the subgroup literals determine every coordinate of x",
            )
        walk = _descend(prob, slots)
    except _Decided as decided:
        return decided.result
    for x in _candidates(prob, slots, walk):
        if _meets_slots(x, slots) and evaluate_conj(conj, x):
            return SolveResult(SolveStatus.SAT, witness=x)
    if prob.negs:
        return _unknown(
            "the negated literals exclude every escape point; outside the "
            "complete fragment"
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
                # already in normal form (or vacuous, modulus 1): no rewrite;
                # most congruences of a verify take this path
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
            hull = t if k == 1 else _raw_element(group, tuple(
                tuple((i, _divide(c, k)) for i, c in v)
                if block.kind == "GP" else _divide(v, k)
                for block, v in zip(group.blocks, t.coords)
            ))
            if cmp in (">", ">="):
                prob.lows.append(_Bound(t, k, cmp == ">", idx, hull))
            elif cmp != "=":
                prob.highs.append(_Bound(t, k, cmp == "<", idx, hull))
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
            truth = _constant_truth(lit, t)
            if truth is None:
                prob.negs.append(idx)
            elif not truth and prob.false_lit is None:
                prob.false_lit = idx
    # the tightest bounds: a strict one wins a tie, else the first stays
    if prob.lows:
        prob.low = max(prob.lows, key=functools.cmp_to_key(
            lambda a, b: compare(a.hull, b.hull) or a.strict - b.strict))
    if prob.highs:
        prob.high = min(prob.highs, key=functools.cmp_to_key(
            lambda a, b: compare(a.hull, b.hull) or b.strict - a.strict))
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


def _carriers(prob: _Problem, i: int) -> list[_Cong]:
    """The congruences that constrain coordinate i: those reaching it whose
    prime the block carries residues for (block modulus above 1)."""
    block = prob.conj.group.blocks[i]
    return [c for c in prob.congs if c.alpha_s > i and block_modulus(block, c.p) != 1]


def _solve_slots(prob: _Problem) -> _Slots:
    """Phase 3: the residue class of every live slot, in coordinate then
    basis order; pins are checked and slots refuted in that order too."""
    blocks = prob.conj.group.blocks
    # the live bases of each coordinate, in one pass over the congruences
    live: dict[int, set[int | None]] = {}
    for c in prob.congs:
        coords = c.value.coords
        for i in itertools.compress(range(c.alpha_s), coords):
            if block_modulus(blocks[i], c.p) != 1:
                if blocks[i].kind == "GP":
                    # a span's pairs as a dict: its keys are the bases
                    live.setdefault(i, set()).update(dict(coords[i]))
                else:
                    live[i] = {None}
    reach = max((c.alpha_s for c in prob.congs), default=0)
    pinned = {i for i in prob.coord_pins if i < reach}
    slots: _Slots = {}
    for i in sorted(live.keys() | pinned):
        if i in prob.coord_pins:
            pin, src = prob.coord_pins[i]
            c = _missed(prob, i, pin)
            if c is not None:
                _refute(
                    "pin-congruence-conflict",
                    (src, c.src),
                    coordinate=i,
                    modulus=c.p**c.e,
                )
            continue
        here = _carriers(prob, i)
        for b in sorted(live[i]):
            slots[i, b] = _solve_slot(i, b, here)
    return slots


def _missed(prob: _Problem, i: int, value) -> _Cong | None:
    """The first congruence reaching coordinate i whose value there has other
    ``block_residues`` than `value`, a value of the block; None if none."""
    block = prob.conj.group.blocks[i]
    for c in prob.congs:
        m = c.p**c.e
        if c.alpha_s > i and block_residues(block, value, m) != block_residues(
            block, c.value.coords[i], m
        ):
            return c
    return None


def _in_block(block: BlockKind, value) -> bool:
    """Whether a coordinate of a hull point is a value of the block."""
    try:
        _norm_block_value(block, value)
    except ValueError:
        return False
    return True


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
    # per prime, in one pass: the top exponent, the top exponent of the zero
    # targets (a zero target asks only for residue 0, so the top one speaks
    # for all) and the nonzero (exponent, target) pairs
    by_prime: dict[int, list] = {}
    for c in congs:
        v = c.value.coords[coord]
        if v and basis is not None:
            v = span_coefficient(v, basis)
        top = by_prime.get(c.p)
        if top is None:
            top = by_prime[c.p] = [0, 0, []]
        if c.e > top[0]:
            top[0] = c.e
        if v:
            top[2].append((c.e, v))
        elif c.e > top[1]:
            top[1] = c.e
    m, r = 1, 0
    for p in sorted(by_prime):
        e_max, e_zero, targets = by_prime[p]
        mp = p**e_max
        rp = 0
        if e_zero < e_max:
            rp = next(residue_mod(v, mp) for e, v in targets if e == e_max)
        conflict = rp % p**e_zero
        for e, v in targets:
            q = p**e
            conflict = conflict or (rp - residue_mod(v, q)) % q
        if conflict:
            _refute(
                "congruence-conflict",
                tuple(sorted({c.src for c in congs if c.p == p})),
                "no residue satisfies all congruences on this slot",
                coordinate=coord,
                basis=basis,
                modulus=mp,
                excluded=tuple(range(mp)) if mp <= _CERT_ENUM_CAP else None,
            )
        r, m = (rp, mp) if m == 1 else (crt_pair(r, m, rp, mp), m * mp)
    return m, r


def _intersect_bounds(prob: _Problem) -> None:
    """Phase 4: the tightest bounds must leave room for x."""
    low, high = prob.low, prob.high
    if low is None or high is None:
        return
    cited = (low.src, high.src)
    c = compare(low.hull, high.hull)
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


def _candidates(prob: _Problem, slots: _Slots, walk) -> Iterator[Element]:
    """Distinct candidate witnesses, in a fixed order.

    First the parameters, zero, the points of divisible bounds and the live
    slot residues under the coordinates ``_descend`` fixes.  With T live
    negated literals, then the escape points n = 1..T+1: the placement steps
    to the next point of its gap, a free span coordinate gains one slot
    modulus on the n-th fresh basis symbol and a free scalar coordinate n
    slot moduli.  No step moves a slot residue or the order of x against a
    bound.  A fresh symbol satisfies every negated (dis)equality or subgroup
    literal whose cut lies past it, and on a scalar coordinate such a
    literal rules out at most one n.  ``walk`` is ``_descend``'s result.
    """
    group = prob.conj.group
    residues = {key: r for key, (_, r) in slots.items()}
    pins, points, free = walk
    seen: set[Element] = set()

    def fixed():
        yield from prob.conj.params
        yield group.zero()
        for b in prob.lows + prob.highs:
            yield _quotient(b.t, b.k, group.K)
        yield _assemble(group, pins, residues)

    def escapes():
        shifts = []
        for i in range(free, group.K):
            if i not in pins:
                basis = None
                if group.blocks[i].kind == "GP":
                    support = (b for t in prob.conj.term_values for b, _ in t.coords[i])
                    basis = max(support, default=0) + 1
                shifts.append((i, basis, _slot(prob, slots, i, basis)[0]))
        placed = pins
        for n in range(1, len(prob.negs) + 2):
            point = next(points, None)
            if point is not None:
                placed = {**placed, free - 1: (point, None)}
            moved = dict(residues)
            for i, basis, m in shifts:
                if basis is None:
                    moved[i, None] = residues.get((i, None), 0) + n * m
                else:
                    moved[i, basis + n - 1] = m
            yield _assemble(group, placed, moved)

    for x in itertools.chain(fixed(), escapes() if prob.negs else ()):
        if x is not None and x not in seen:
            seen.add(x)
            yield x


def _slot(prob: _Problem, slots: _Slots, i: int, basis: int | None) -> tuple[int, int]:
    """The (modulus, residue) of a slot, live or not."""
    return slots.get((i, basis)) or _solve_slot(i, basis, _carriers(prob, i))


def _descend(prob: _Problem, slots: _Slots):
    """Phase 5, reading each live bound's hull point a coordinate at a
    time.  Returns the coordinate pins with the forced and placed
    coordinates added (their source None), the further points of the
    placement's gap (none without a placement) and the first free
    coordinate.  Where the gap of a Z block holds no point of the slot's
    class, x takes a bound's value there if that is usable, and goes on
    against that bound alone; a descent that cannot go on frees nothing.
    A pin outside a live bound refutes: the pins form a prefix, so x equals
    the bound's hull value on every coordinate before it.  On a coordinate
    that both bounds reach, x equals both hull values before it, so it
    takes there the forced value, or on a Z block a gap endpoint when no
    class point lies inside the gap; either must be a value of the block
    that ``_missed`` passes and, on the last coordinate, not a strict
    bound's value.  With none usable the descent refutes
    (``order-gap-off-class``).
    """
    group = prob.conj.group
    pins = dict(prob.coord_pins)
    low, high = prob.low, prob.high
    for j, block in enumerate(group.blocks):
        if low is None and high is None:
            return pins, iter(()), j
        lo = None if low is None else low.hull.coords[j]
        hi = None if high is None else high.hull.coords[j]
        forced = lo is not None and lo == hi
        if j in pins:
            above = 1 if lo is None else block_sign(block, pins[j][0], lo)
            below = -1 if hi is None else block_sign(block, pins[j][0], hi)
            if above < 0 or below > 0:
                crossed = low if above < 0 else high
                _refute(
                    "pin-outside-bounds",
                    tuple(sorted({pins[i][1] for i in range(j + 1)} | {crossed.src})),
                    "the pins put x strictly outside an order bound",
                    coordinate=j,
                )
            low = low if above == 0 else None
            high = high if below == 0 else None
        else:
            if not forced:
                points = _gap_points(prob, slots, j, lo, hi)
                point = next(points, None)
                if point is not None:
                    pins[j] = (point, None)
                    return pins, points, j + 1
                if block.kind != "Z":
                    break
            # both bounds reach j: forced, or a Z gap with no class point
            last = j == group.K - 1
            fits_lo, fits_hi = (
                _in_block(block, v)
                and not (last and b.strict)
                and _missed(prob, j, v) is None
                for b, v in ((low, lo), (high, hi))
            )
            if fits_lo:
                pins[j] = (lo, None)
                high = high if forced else None
            elif fits_hi:
                pins[j], low = (hi, None), None
            else:
                cited = {low.src, high.src} | {c.src for c in _carriers(prob, j)}
                _refute(
                    "order-gap-off-class",
                    tuple(sorted(cited)),
                    f"no {'integer' if block.kind == 'Z' else 'value'} of the slot's "
                    "class lies between the order bounds",
                    coordinate=j,
                    modulus=_slot(prob, slots, j, 0 if block.kind == "GP" else None)[0],
                )
    return pins, iter(()), group.K


def _gap_points(prob: _Problem, slots: _Slots, j: int, lo, hi) -> Iterator:
    """Values of coordinate j strictly between lo and hi (None: unbounded)
    on its slot's residue class, each further into the gap than the last:
    up from lo if there is a lower bound, else down from hi.  A span block
    is placed by its b0 coefficient, the other coefficients keeping their
    slot residues; the real value of those and of the bounds is enclosed
    numerically, and the candidate is still checked exactly."""
    block = prob.conj.group.blocks[j]
    m, r = _slot(prob, slots, j, 0 if block.kind == "GP" else None)
    fixed = tuple(
        (b, v) for (i, b), (_, v) in slots.items() if i == j and b and v
    )
    while (point := _gap_point(block, m, r, fixed, lo, hi)) is not None:
        yield point
        lo, hi = (lo, point) if lo is None else (point, hi)


def _gap_point(block: BlockKind, m: int, r: int, fixed: SpanPairs, lo, hi):
    """One point of ``_gap_points``, or None if none could be certified."""
    if block.kind == "Q":
        if lo is None:
            return hi - 1
        if hi is None:
            return lo + 1
        return _divide(lo + hi, 2)
    if block.kind == "Z":
        if lo is None:
            return r + m * ((int_below(hi) - r) // m)
        n = r + m * (-((r - int_above(lo)) // m))
        return n if hi is None or n < hi else None
    if block.kind == "ZLOC":
        # x = r + m*z with z any p-local rational in the open gap
        zlo = None if lo is None else _divide(lo - r, m)
        zhi = None if hi is None else _divide(hi - r, m)
        z = _local_rational_between(block.p, zlo, zhi)
        return None if z is None else Fraction(r) + m * z
    for bits in (64, 128, 256, 512):
        flo, fhi = span_enclosure(fixed, bits)
        zlo = None if lo is None else (span_enclosure(lo, bits)[1] - flo - r) / m
        zhi = None if hi is None else (span_enclosure(hi, bits)[0] - fhi - r) / m
        z = _local_rational_between(block.p, zlo, zhi)
        if z is not None:
            b0 = Fraction(r) + m * z
            return ((0, b0),) + fixed if b0 else fixed
    return None


def _assemble(
    group: GroupSpec,
    coord_pins: dict[int, tuple[object, int | None]],
    values: dict[tuple[int, int | None], object],
) -> Element | None:
    """Build an element from (coordinate, basis) values, zero elsewhere, with
    the coordinate pins laid over them; None if a value leaves its block.
    An int, and a span of int coefficients, is canonical in every block and
    is placed as it is; the slot residues are such values.  Every other
    value, and every pin, is normalized."""
    given: dict[int, object] = {}
    for (i, b), v in values.items():
        if not v or i in coord_pins:
            continue
        if b is None:
            given[i] = v
        else:
            given.setdefault(i, {})[b] = v
    blocks, coords = group.blocks, list(group.zero().coords)
    try:
        for i, v in given.items():
            if type(v) is int:
                coords[i] = v
            elif type(v) is dict and all(type(c) is int for c in v.values()):
                coords[i] = tuple(sorted(v.items()))
            else:
                coords[i] = _norm_block_value(blocks[i], v)
        for i, (v, _) in coord_pins.items():
            coords[i] = _norm_block_value(blocks[i], v)
    except ValueError:
        return None
    return _raw_element(group, tuple(coords))


def _local_rational_between(
    p: int, lo: Fraction | None, hi: Fraction | None
) -> Fraction | None:
    """A rational with denominator coprime to p strictly inside (lo, hi)."""
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
    support bounded by max_support, in a fixed deterministic order, at most
    candidate_budget of them.  Returns the first combination that satisfies
    the conjunction, or None.  It shares the literal decider with solve but
    neither its candidates nor their order.
    A candidate is a prefix sum plus one last scaled generator.  Literal
    truth depends on x only through k*x - t, so the last generator is tested
    against each term value shifted by k times the prefix sum, made once per
    prefix, and the sum itself is built only for the witness.
    Incomplete by design; meant to corroborate SAT answers and to hunt
    counterexamples to UNSAT answers.  A search of nothing would corroborate
    anything, so a radius, support bound or budget below 1 is rejected.
    """
    if radius < 1:
        raise ValueError("the oracle radius must be a positive integer")
    if max_support < 1:
        raise ValueError("the oracle support bound must be a positive integer")
    if candidate_budget < 1:
        raise ValueError("the oracle candidate budget must be a positive integer")
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
    lits, values = conj.literals, conj.term_values
    tried = 0
    # head + y satisfies a literal exactly when y does against t - k*head.
    # combinations yields combos sharing combo[:-1] contiguously, so one
    # prefix is cached: per choice of its coefficients, the sum head and the
    # shifted term values, each made when a candidate first needs it
    prefix_combo, prefixes = None, []
    for support in range(1, min(max_support, len(gens)) + 1):
        for combo in itertools.combinations(range(len(gens)), support):
            if combo[:-1] != prefix_combo:
                prefix_combo = combo[:-1]
                prefixes = [
                    (functools.reduce(operator.add, p), [None] * len(lits)) if p
                    else (None, list(values))
                    for p in itertools.product(*(scaled[j] for j in prefix_combo))
                ]
            last = scaled[combo[-1]]
            for head, shifted in prefixes:
                for y in last:
                    tried += 1
                    if tried > candidate_budget:
                        return None
                    for i, lit in enumerate(lits):
                        t = shifted[i]
                        if t is None:
                            t = shifted[i] = sub(values[i], scale(lit.k, head))
                        if not _holds(lit, y, t):
                            break
                    else:
                        return y if head is None else head + y
    return None

