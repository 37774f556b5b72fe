"""Consistency of one-variable literal conjunctions over a concrete group.

The procedure is three-valued.  SAT answers always come with a witness that
has been checked by the literal evaluator; UNSAT answers always come with a
certificate.  Anything the procedure cannot settle is reported UNKNOWN,
never guessed.

Shape of the decision: ``solve`` decides the conjunction of its arguments,
numbering their literals as ``formulas.conjoin`` numbers those of the
conjunction it builds, so the certificates cite the same indices.  An
argument is a ``Conjunction`` or a ``Part``, the record of what phases 1
and 3 derive from its conjunction, so that ``verify``, which passes each
(row, column) instance as one ``Part`` on every path through it, derives
it once.  The phases below run in order over one ``_Problem``
record, and a phase that settles the answer raises ``_Decided``.

1.  ``_normalize`` sorts the literals by role.  Positive congruence literals
    are rewritten to coefficient 1 and prime-power modulus (one already in
    that form is kept as it is), once per ``Part`` and offset (``Part.memo``).
    An order literal k*x <cmp> t is divided once, to its hull point t/k: of
    the bounds on x only the tightest low and high, by hull point, are kept
    as the literals are read, and an equality pins x to its hull point,
    which must lie in the group.
    Subgroup-coset literals pin single coordinates.  A literal that no x
    satisfies, or two pins that disagree, give UNSAT.  A negated literal of
    constant truth (``formulas._constant_truth``) is dropped when true and
    refuted after phase 4 when false; the others stay live.
2.  ``_decide_pinned``: an equality pin determines x, so the conjunction
    reduces to evaluation (SAT) or refutation (UNSAT).
3.  ``_solve_slots``: a normalized congruence splits coordinatewise, and on
    each block coordinate only finitely many basis coefficients are
    constrained: a slot is a coordinate, or a basis of a span coordinate.
    A congruence mod p^e constrains the blocks whose ``groups.block_modulus``
    for the prime p is above 1: Z, and Zloc and Gp of p.  Only the live
    slots, where a constraining value is nonzero (``_Cong.live``, listed in
    phase 1), are solved, in coordinate then basis order.  ``_solve_slot``
    solves a slot, in one pass per prime, to a residue class modulo the top
    prime power (a zero target asks only for residue 0) and combines the
    primes by CRT; an empty class yields an UNSAT certificate listing the
    exhausted residues.  The modulus M, the product of the largest prime
    powers of the congruences on the coordinate, is the same on every basis,
    so each live coordinate keeps (M, its residues as a block value), which
    ``_assemble`` places as it is; on any other coordinate ``_solve_slot``
    gives (M, 0).  A pinned coordinate has no slot; ``_missed`` checks that
    its pin has the ``block_residues`` of every congruence value there.
    When every argument is a ``Part``, each one's own slot entries, solved
    alone, are derived once (``_derive_slots``) and a coordinate takes the
    entry of the part live there unless a pair of the parts clashes on it
    (``_merge_slots``, by Ore's pairwise rule): the other parts ask there
    only for residue 0 modulo their own prime powers.  A clash, or a part
    conflicting on its own, leaves the coordinate to ``_solve_slot`` over
    all its congruences, so a refutation and its certificate are those of
    the conjoined conjunction.
4.  ``_intersect_bounds``: the tightest bounds are intersected in the
    divisible hull by comparing their hull points.  An empty interval is
    UNSAT; equal bounds force x to their hull point, UNSAT off the group
    and otherwise decided by ``_decide_pinned``, as is a subgroup literal
    set that pins every coordinate.
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
6.  ``_candidates`` builds the witness rather than searching for it, from
    the one tightest bound per side that phase 1 kept.  The descent point
    puts the slot residues under the descent's values; with live negated
    literals the escape points follow, which step the placement through its
    gap and move the free coordinates.  Each candidate has every live
    slot's residue, and the first one the evaluator accepts is the witness.
    If there is none the answer is UNKNOWN, with the reason.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction
from typing import Iterator, NamedTuple, NoReturn

from .errors import NotReducibleError, PreconditionError
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
        """The fields that differ from their defaults, tuples as lists."""
        return {
            f.name: list(v) if type(v) is tuple else v
            for f in fields(self)
            if (v := getattr(self, f.name)) != f.default
        }


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


class _Cong(NamedTuple):
    """Normalized positive congruence: x = value mod (cut + p^e G)."""

    p: int
    e: int
    alpha_s: int
    value: Element
    src: int
    live: tuple[tuple[int, tuple[int | None, ...]], ...] = ()  # (coordinate, bases)


class _Bound(NamedTuple):
    """An order bound on x: the hull point t/k of k*x <cmp> t, coordinatewise,
    so a coordinate may leave its block (see ``_in_group``)."""

    hull: Element
    strict: bool
    src: int


# coordinate -> (modulus, residues), the residues a block value: an int on
# a scalar block, the sorted (basis, residue) pairs of nonzero residue on a
# span block.  ``_solve_slots`` keeps the live coordinates only.
_Slots = dict[int, tuple[int, object]]


@dataclass(eq=False)
class Part:
    """A conjunction passed to ``solve``, with what phases 1 and 3 derive
    from it, kept as long as the record is.  ``memo`` holds, per literal
    offset, its literals' normalized congruences by their index among
    ``solve``'s literals.  Once all its literals are read, ``_derive_slots``
    fills in its congruences' (cut, prime, exponent) ``reach``, its own
    ``slots`` and their ``tolerance``; ``clashes`` keeps ``_clashes`` with
    each part that followed it in a call."""

    conj: Conjunction
    memo: dict[int, dict[int, tuple[_Cong, ...]]] = field(
        default_factory=dict, repr=False
    )
    reach: tuple[tuple[int, int, int], ...] = field(default=(), repr=False)
    slots: dict[int, tuple | None] | None = field(default=None, repr=False)
    tolerance: dict[int, tuple[dict[int, int], float]] = field(
        default_factory=dict, repr=False
    )
    clashes: dict[Part, tuple[int, ...]] = field(default_factory=dict, repr=False)


@dataclass
class _Problem:
    """The literals of ``solve``'s arguments, numbered in order, sorted by
    role (see ``_normalize``)."""

    group: GroupSpec
    literals: tuple = ()  # every argument's, in order
    values: tuple[Element, ...] = ()  # their term values
    parts: list[Part] | None = None  # the arguments, when every one is a Part
    congs: list[_Cong] = field(default_factory=list)
    low: _Bound | None = None  # the tightest lower bound read so far
    high: _Bound | None = None  # the tightest upper bound read so far
    pin: tuple[Element, int] | None = None  # (x, source literal)
    coord_pins: dict[int, tuple[object, int]] = field(default_factory=dict)
    negs: list[int] = field(default_factory=list)  # live negated literals
    false_lit: int | None = None  # the first literal that holds at no x


def solve(*parts: Conjunction | Part) -> SolveResult:
    """Decide the conjunction of the arguments, one or more conjunctions
    over one group, each plain or in a ``Part``: the answer is the one for
    ``formulas.conjoin`` of their conjunctions, and so are the literal
    indices it cites.  No argument, or two groups, is a PreconditionError.
    See the module docstring for the procedure."""
    try:
        prob = _normalize(*parts)
        if prob.pin is not None:
            _decide_pinned(
                prob, prob.pin[0], None, "the equality literal determines x uniquely"
            )
        slots = _solve_slots(prob)
        _intersect_bounds(prob)
        if prob.false_lit is not None:
            _refute(
                "literal-constant-false",
                (prob.false_lit,),
                "the literal holds at no x",
            )
        if len(prob.coord_pins) == prob.group.K:
            _decide_pinned(
                prob,
                _assemble(prob.group, prob.coord_pins, {}),
                None,
                "the subgroup literals determine every coordinate of x",
            )
        walk = _descend(prob, slots)
    except _Decided as decided:
        return decided.result
    for x in _candidates(prob, slots, walk):
        if _satisfies(prob, x):
            return SolveResult(SolveStatus.SAT, witness=x)
    why = "witness assembly failed"
    if prob.negs:
        why = "the negated literals exclude every escape point;"
    why += " outside the complete fragment"
    return SolveResult(SolveStatus.UNKNOWN, reason=why)


def _normalize(*parts: Conjunction | Part) -> _Problem:
    """Phase 1: sort the literals by role, refuting those no x satisfies.
    A ``Part``'s congruences are kept in its memo for its offset, so the
    parts ``verify`` passes path after path are normalized once."""
    group = None
    literals = values = ()
    reads = []  # per argument: (it, its conjunction, its memo, its first index)
    owned = []  # the Part arguments
    for part in parts:
        offset = len(literals)
        if type(part) is Part:
            conj, memo = part.conj, part.memo.get(offset)
            if memo is None:
                memo = part.memo[offset] = {}
            owned.append(part)
        else:
            conj, memo = part, None
        if group is None:
            group = conj.group
        elif conj.group is not group and conj.group != group:
            raise PreconditionError("conjunctions over different group specs")
        reads.append((part, conj, memo, offset))
        literals += conj.literals
        values += conj.term_values
    if group is None:
        raise PreconditionError("solve needs at least one conjunction")
    prob = _Problem(group, literals, values)
    if len(owned) == len(reads):
        prob.parts = owned
    for part, conj, memo, offset in reads:
        if memo is not None and len(memo) == len(conj.literals):
            # only congruences, each normalized at this offset before
            for congs in memo.values():
                prob.congs += congs
            continue
        for idx, lit, t in zip(itertools.count(offset), conj.literals, conj.term_values):
            if lit.kind is LitKind.CONG:
                congs = None if memo is None else memo.get(idx)
                if congs is None:
                    congs = _congs_of(group, lit, t, conj.params, idx)
                    if memo is not None:
                        memo[idx] = congs
                prob.congs += congs
            elif lit.kind is LitKind.ORD:
                k, cmp = lit.k, lit.cmp
                if k < 0:
                    k, t, cmp = -k, neg(t), _CMP_FLIP[cmp]
                hull = t if k == 1 else _raw_element(group, tuple(
                    tuple((i, _divide(c, k)) for i, c in v)
                    if block.kind == "GP" else _divide(v, k)
                    for block, v in zip(group.blocks, t.coords)
                ))
                # keep the tightest bound per side: the larger low (smaller
                # high) hull point, a strict bound on a tie, else the earlier one
                strict = cmp in (">", "<")
                if cmp in (">", ">="):
                    cur = prob.low
                    if not cur or (compare(hull, cur.hull) or strict - cur.strict) > 0:
                        prob.low = _Bound(hull, strict, idx)
                elif cmp != "=":
                    cur = prob.high
                    if not cur or (compare(hull, cur.hull) or cur.strict - strict) < 0:
                        prob.high = _Bound(hull, strict, idx)
                else:
                    if not _in_group(group, hull):
                        _refute(
                            "equality-indivisible",
                            (idx,),
                            f"k*x = t has no solution: t is not divisible by {k}",
                        )
                    if prob.pin is not None and prob.pin[0] != hull:
                        _refute("pin-conflict", (prob.pin[1], idx))
                    prob.pin = (hull, idx)
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
        if memo is not None and part.slots is None:
            # every literal of the part read: its congruences are all here
            _derive_slots(group, part, [c for cs in memo.values() for c in cs])
    return prob


def _congs_of(group: GroupSpec, lit, t: Element, bank, idx: int) -> tuple[_Cong, ...]:
    """A positive congruence literal, of term value t over the bank, as
    congruences of coefficient 1 and prime-power modulus."""
    pf = factorize(lit.m)
    # one already in normal form (or vacuous, modulus 1) is kept as it is;
    # most congruences of a verify are
    pieces = [(p, e, lit.alpha.s, t) for p, e in pf.items()]
    if lit.k != 1 or len(pf) > 1:
        try:
            res = normalize_type_I(lit, bank, group)
        except NotReducibleError:
            _refute(
                "congruence-term-not-reducible",
                (idx,),
                "k*x is always p-divisible above the cut but the term is not; "
                "the literal is unsatisfiable",
            )
        # each piece's modulus is a prime power, or 1 (vacuous)
        pieces = [
            (p, e, pc.alpha.s, term_value(pc.term, res.params, group))
            for pc in res.literals
            for p, e in factorize(pc.m).items()
        ]
    blocks = group.blocks
    return tuple(
        _Cong(p, e, s, v, idx, tuple(
            (i, tuple(b for b, _ in v.coords[i]) if blocks[i].kind == "GP" else (None,))
            for i in itertools.compress(range(s), v.coords)
            if blocks[i].p == p or blocks[i].kind == "Z"  # as in _carriers
        ))
        for p, e, s, v in pieces
    )


def _satisfies(prob: _Problem, x: Element) -> bool:
    """Whether x satisfies every literal, by the one evaluator's rule."""
    return all(map(_holds, prob.literals, itertools.repeat(x), prob.values))


def _decide_pinned(
    prob: _Problem, x: Element, cited: tuple[int, ...] | None, note: str
) -> NoReturn:
    """x is forced: SAT if it satisfies the conjunction, otherwise UNSAT
    citing `cited`, or the literals x fails when `cited` is None."""
    if _satisfies(prob, x):
        raise _Decided(SolveResult(SolveStatus.SAT, witness=x))
    if cited is None:
        cited = tuple(
            i
            for i, (lit, t) in enumerate(zip(prob.literals, prob.values))
            if not _holds(lit, x, t)
        )
    _refute("pin-refuted", cited, note)


def _carriers(prob: _Problem, i: int) -> list[_Cong]:
    """The congruences that constrain coordinate i: those reaching it whose
    prime the block carries residues for (block modulus above 1)."""
    block = prob.group.blocks[i]
    z, bp = block.kind == "Z", block.p
    # block_modulus(block, p) != 1 for a prime p: Z, or the block's own prime
    return [c for c in prob.congs if c.alpha_s > i and (z or c.p == bp)]


def _solve_slots(prob: _Problem) -> _Slots:
    """Phase 3: the residue class of every live slot, in coordinate then
    basis order; pins are checked and slots refuted in that order too.
    When every argument is a ``Part``, a coordinate takes the slot entry
    ``_merge_slots`` finds for it, if any; every other coordinate is
    solved with all the congruences there."""
    live = None
    if prob.parts is None:
        live = _live(prob.congs)
        merged = dict.fromkeys(live)
    else:
        merged = _merge_slots(prob.parts)
    slots: _Slots = {}
    for i in sorted(merged.keys() | prob.coord_pins.keys()):
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
        slot = merged[i]
        if slot is None:
            live = live or _live(prob.congs)
            slot = _slot(i, live[i], _carriers(prob, i))
        slots[i] = slot
    return slots


def _live(congs) -> dict[int, set[int | None]]:
    """The coordinates where some congruence is live, with its live bases."""
    live: dict[int, set[int | None]] = {}
    for c in congs:
        for i, bases in c.live:
            live.setdefault(i, set()).update(bases)
    return live


def _slot(i: int, bases, congs: list[_Cong]) -> tuple[int, object]:
    """Coordinate i's (modulus, residues) under the congruences, its live
    bases solved in order; the first conflict refutes."""
    pairs = []
    for b in sorted(bases):
        m, r = _solve_slot(i, b, congs)  # m is the same on every basis
        if r:
            pairs.append((b, r))
    return m, r if b is None else tuple(pairs)


def _derive_slots(group: GroupSpec, part: Part, congs: list[_Cong]) -> None:
    """Fill the part's ``reach``, ``slots`` and ``tolerance`` from its
    congruences.  On a coordinate where the part is live, its slot entry is
    its congruences there solved alone, or None when they conflict; its
    tolerance is, per prime p, the largest t up to the top exponent with
    every residue divisible by p^t, and a default for the primes it has no
    congruence of there: 0 on a Z block, which carries every prime, and no
    bound on another block, which carries its own prime only.  Where its
    congruences conflict, the tolerance is 0 for every prime."""
    part.reach = tuple((c.alpha_s, c.p, c.e) for c in congs)
    own = _Problem(group, congs=congs)
    part.slots, part.tolerance = {}, {}
    for i, bases in _live(congs).items():
        here = _carriers(own, i)
        default = 0 if group.blocks[i].kind == "Z" else math.inf
        try:
            slot = _slot(i, bases, here)
        except _Decided:
            # no tolerance: every part that reaches here clashes with it
            part.slots[i], part.tolerance[i] = None, ({}, 0)
            continue
        residues = [slot[1]] if None in bases else [r for _, r in slot[1]]
        tol: dict[int, int] = {}
        for c in here:
            tol[c.p] = max(tol.get(c.p, 0), c.e)
        for p, e in tol.items():
            tol[p] = min([e] + [int_valuation(r, p) for r in residues if r])
        part.slots[i], part.tolerance[i] = slot, (tol, default)


def _clashes(a: Part, b: Part) -> tuple[int, ...]:
    """The coordinates (one may come twice) where one of the two parts is
    live and a congruence of the other reaches with an exponent above the
    live part's tolerance for its prime, so that the live part's own slot
    entry may not be the pair's.  Usually none, and the empty tuple is
    shared.  Where both parts are live, neither clashes only when both
    classes are 0 modulo the same prime powers, and then their entries are
    equal."""
    return tuple(
        i
        for x, y in ((a, b), (b, a))
        for i, (tol, default) in x.tolerance.items()
        if any(s > i and e > tol.get(p, default) for s, p, e in y.reach)
    )


def _merge_slots(parts: list[Part]) -> dict[int, tuple | None]:
    """The slot entry of each coordinate where a part is live, by the Ore
    merge of the parts' own classes; None where it must be solved in full.
    Congruences on one slot are solvable together exactly when every two
    are (O. Ore, 1952).  On a coordinate where one part alone is live, each
    congruence of another part that reaches it is zero there, so it asks
    for residue 0 modulo its own prime power; the lone part's class meets
    that, with modulus and residues unchanged, exactly when the exponent is
    at most the part's tolerance for its prime.  So the path keeps each
    part's own entry unless a pair of its parts clashes there (``_clashes``,
    kept per pair in ``Part.clashes``).  A clash or a part conflicting on
    its own leaves the coordinate to ``_slot`` over ``_carriers``, whose
    refutation is the canonical one."""
    merged: dict[int, tuple | None] = {}
    for a in parts:
        merged.update(a.slots)
    for n, a in enumerate(parts):
        for b in parts[n + 1 :]:
            clash = a.clashes.get(b)
            if clash is None:
                clash = a.clashes[b] = _clashes(a, b)
            for i in clash:
                merged[i] = None
    return merged


def _missed(prob: _Problem, i: int, value) -> _Cong | None:
    """The first congruence reaching coordinate i whose value there has other
    ``block_residues`` than `value`, a value of the block; None if none."""
    block = prob.group.blocks[i]
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


def _in_group(group: GroupSpec, hull: Element) -> bool:
    """Whether every coordinate of a hull point t/k is a value of its block:
    exactly when t is k-divisible, and then the hull point is t/k."""
    return all(map(_in_block, group.blocks, hull.coords))


def _solve_slot(coord: int, basis: int | None, congs: list[_Cong]) -> tuple[int, int]:
    """Solve the congruences on one slot to (modulus, residue).

    Per prime the solution set is a single residue class modulo the largest
    prime power, or empty; empty refutes with a certificate enumerating the
    excluded residues.  One pass per prime reads the top exponent of the
    zero targets (a zero target asks only for residue 0, so the top one
    speaks for all), the nonzero targets and the first of the top exponent.
    The classes of distinct primes combine by CRT.
    """
    m, r = 1, 0
    for p in sorted({c.p for c in congs}):
        e_zero = e_top = 0
        targets = []
        for c in congs:
            if c.p == p:
                v = c.value.coords[coord]
                if v and basis is not None:
                    v = span_coefficient(v, basis)
                if not v:
                    if c.e > e_zero:
                        e_zero = c.e
                else:
                    targets.append((c.e, v))
                    if c.e > e_top:
                        e_top, top = c.e, v
        mp = p ** max(e_zero, e_top)
        rp = residue_mod(top, mp) if e_top > e_zero else 0
        conflict = rp % p**e_zero
        for e, v in targets:
            conflict = conflict or (rp - residue_mod(v, p**e)) % p**e
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
        if not _in_group(prob.group, low.hull):
            _refute(
                "order-pin-indivisible",
                cited,
                "x is forced to a hull point outside the group",
            )
        _decide_pinned(prob, low.hull, cited, "equal order bounds force x uniquely")


def _candidates(prob: _Problem, slots: _Slots, walk) -> Iterator[Element]:
    """Distinct candidate witnesses, in a fixed order.

    First the descent point: the live slot residues under the coordinates
    ``_descend`` fixes against the tightest low and high bound, the only
    bounds ``_normalize`` keeps.  With T live negated literals, and only
    then, the escape points n = 1..T+1 follow: the placement steps to the
    next point of its gap, a free span coordinate gains one slot modulus on
    the n-th fresh basis symbol and a free scalar coordinate n slot moduli.
    No step moves a slot residue or the order of x against a bound.  A fresh
    symbol satisfies every negated (dis)equality or subgroup literal whose
    cut lies past it, and on a scalar coordinate such a literal rules out at
    most one n.  ``walk`` is ``_descend``'s result.
    """
    group = prob.group
    residues = {i: v for i, (_, v) in slots.items()}
    pins, points, free = walk
    descent = _assemble(group, pins, residues)
    if descent is not None:
        yield descent
    if not prob.negs:
        return
    shifts = []
    for i in range(free, group.K):
        if i not in pins:
            basis = None
            if group.blocks[i].kind == "GP":
                support = (b for t in prob.values for b, _ in t.coords[i])
                basis = max(support, default=0) + 1
            m = (slots.get(i) or _solve_slot(i, None, _carriers(prob, i)))[0]
            shifts.append((i, basis, m))
    seen = {descent}
    placed = pins
    for n in range(1, len(prob.negs) + 2):
        point = next(points, None)
        if point is not None:
            placed = {**placed, free - 1: (point, None)}
        moved = dict(residues)
        for i, basis, m in shifts:
            if basis is None:
                moved[i] = residues.get(i, 0) + n * m
            else:
                # above every basis of the term values, so the pairs stay sorted
                moved[i] = residues.get(i, ()) + ((basis + n - 1, m),)
        x = _assemble(group, placed, moved)
        if x is not None and x not in seen:
            seen.add(x)
            yield x


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
    group = prob.group
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
                here = _carriers(prob, j)
                _refute(
                    "order-gap-off-class",
                    tuple(sorted({low.src, high.src} | {c.src for c in here})),
                    f"no {'integer' if block.kind == 'Z' else 'value'} of the slot's "
                    "class lies between the order bounds",
                    coordinate=j,
                    modulus=(slots.get(j) or _solve_slot(j, None, here))[0],
                )
    return pins, iter(()), group.K


def _gap_points(prob: _Problem, slots: _Slots, j: int, lo, hi) -> Iterator:
    """Values of coordinate j strictly between lo and hi (None: unbounded)
    on its slot's residue class, each further into the gap than the last:
    up from lo if there is a lower bound, else down from hi.  A span block
    is placed by its b0 coefficient, the other coefficients keeping their
    slot residues; the real value of those and of the bounds is enclosed
    numerically, and the candidate is still checked exactly."""
    block = prob.group.blocks[j]
    m, r = slots.get(j) or _solve_slot(j, None, _carriers(prob, j))
    fixed: SpanPairs = ()
    if block.kind == "GP":
        # the b0 residue, and the pairs above it; r is 0 off the live slots
        r, fixed = 0, r or ()
        if fixed and fixed[0][0] == 0:
            r, fixed = fixed[0][1], fixed[1:]
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
    values: dict[int, object],
) -> Element | None:
    """Build an element from per-coordinate block values in normal form (the
    slot residues), zero elsewhere, with the coordinate pins normalized and
    laid over them; None if a pin leaves its block."""
    blocks, coords = group.blocks, list(group.zero().coords)
    for i, v in values.items():
        coords[i] = v
    try:
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
    anything, so a radius, support bound or budget below 1 is rejected, and
    one that is not an integer raises TypeError.
    """
    if operator.index(radius) < 1:
        raise ValueError("the oracle radius must be a positive integer")
    if operator.index(max_support) < 1:
        raise ValueError("the oracle support bound must be a positive integer")
    if operator.index(candidate_budget) < 1:
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

