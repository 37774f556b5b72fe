"""Consistency of one-variable literal conjunctions over a concrete group.

The procedure is three-valued.  SAT answers always come with a witness that
has been checked by the literal evaluator; UNSAT answers always come with a
certificate.  Anything the procedure cannot settle is reported UNKNOWN,
never guessed.

Shape of the decision:

1.  Positive congruence literals are rewritten to coefficient 1 and
    prime-power modulus.  Their meaning then splits coordinatewise, and on
    each block coordinate only finitely many basis coefficients are
    constrained (the union of the parameter supports plus one fresh basis
    symbol).  Each such slot carries congruences with a single prime, so its
    solution set is one residue class modulo the largest prime power, or
    empty; empty slots yield an UNSAT certificate listing the exhausted
    residues.
2.  Equalities and subgroup-coset literals pin the variable (or single
    coordinates) exactly, which either refutes or reduces to evaluation.
3.  Order literals are intersected as bounds in the divisible hull via
    cross-multiplied comparisons.  An empty bound interval is UNSAT.  When
    the most significant coordinate has strict rational slack between the
    bounds, a witness is assembled from the slot residues with that
    coordinate placed strictly inside the gap; this covers every
    conjunction whose order constraints live in a most significant
    divisible coordinate (the fragment all pattern constructions use).
4.  Negated literals are handled by bounded enumeration of residue bumps;
    if no candidate satisfies the conjunction the answer is UNKNOWN.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from typing import Iterator, Sequence

from .errors import NotReducibleError
from .formulas import (
    _CMP_FLIP,
    Conjunction,
    LitKind,
    conjoin,
    evaluate,
    evaluate_conj,
    normalize_type_I,
    term_value,
)
from .groups import (
    Element,
    GroupSpec,
    Ordering,
    block_divide,
    block_divisible,
    compare,
    divide_exact,
    is_divisible,
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


def _unsat(*entries: CertEntry) -> SolveResult:
    return SolveResult(SolveStatus.UNSAT, certificate=tuple(entries))


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


@dataclass
class _Slot:
    coord: int
    basis: int | None  # span basis index; None on scalar blocks
    modulus: int = 1
    residue: int = 0


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


def _coord0_fraction(t: Element, k: int) -> Fraction | None:
    """Coordinate-0 value of t/k as a rational; None on span blocks."""
    if t.spec.blocks[0].kind == "GP":
        return None
    return Fraction(t.coords[0]) / k


class _SlotConflict(Exception):
    def __init__(self, entry: CertEntry):
        self.entry = entry


def _solve_prime_slot(
    coord: int,
    basis: int | None,
    constraints: list[tuple[int, int, Fraction | int, int]],
) -> tuple[int, int]:
    """Solve congruences (p, e, target, src) sharing one prime on a slot.

    Returns (modulus, residue).  The solution set of such a system is a
    single residue class modulo p^max(e) or empty; on conflict raises with
    a certificate enumerating the excluded residues.
    """
    p = constraints[0][0]
    e_max = max(e for _, e, _, _ in constraints)
    m = p**e_max
    base = None
    for pp, e, tgt, _src in constraints:
        if e == e_max:
            base = residue_mod(tgt, m)
            break
    assert base is not None
    for _pp, e, tgt, _src in constraints:
        if (base - residue_mod(tgt, p**e)) % (p**e) != 0:
            excluded = tuple(range(m)) if m <= _CERT_ENUM_CAP else None
            raise _SlotConflict(
                CertEntry(
                    kind="congruence-conflict",
                    coordinate=coord,
                    basis=basis,
                    modulus=m,
                    excluded=excluded,
                    literals=tuple(sorted({c[3] for c in constraints})),
                    note="no residue satisfies all congruences on this slot",
                )
            )
    return m, base


def _merge_int_slot(
    coord: int, constraints: list[tuple[int, int, int, int]]
) -> tuple[int, int]:
    """Combine per-prime classes on an integer coordinate by CRT."""
    by_prime: dict[int, list[tuple[int, int, int, int]]] = {}
    for c in constraints:
        by_prime.setdefault(c[0], []).append(c)
    m, r = 1, 0
    for p in sorted(by_prime):
        mp, rp = _solve_prime_slot(coord, None, by_prime[p])
        r = crt_pair(r, m, rp, mp)
        m *= mp
    return m, r


def solve(conj: Conjunction, *, candidate_budget: int = 20000) -> SolveResult:
    """Decide a conjunction; see the module docstring for the procedure."""
    group = conj.group
    K = group.K

    # -- phase 1: normalize congruences, sort literals by role -------------
    bank = list(conj.params)
    congs: list[_Cong] = []
    lows: list[_Bound] = []
    highs: list[_Bound] = []
    pin: tuple[Element, int] | None = None
    coord_pins: dict[int, tuple[object, int]] = {}
    has_diseq = False
    terms = conj.term_values

    for idx, lit in enumerate(conj.literals):
        if lit.kind is LitKind.CONG:
            try:
                res = normalize_type_I(lit, tuple(bank), group)
            except NotReducibleError:
                return _unsat(
                    CertEntry(
                        kind="congruence-term-not-reducible",
                        literals=(idx,),
                        note=(
                            "k*x is always p-divisible above the cut but the "
                            "term is not; the literal is unsatisfiable"
                        ),
                    )
                )
            bank = list(res.params)
            for piece in res.literals:
                pf = factorize(piece.m)
                if not pf:
                    continue  # vacuous modulus-1 literal
                (p, e), = pf.items()
                congs.append(
                    _Cong(p, e, piece.alpha.s,
                          term_value(piece.term, bank, group), idx)
                )
        elif lit.kind is LitKind.ORD:
            t = terms[idx]
            k, cmp = lit.k, lit.cmp
            if k < 0:
                k, t = -k, neg(t)
                cmp = _CMP_FLIP[cmp]
            if cmp == "=":
                if not is_divisible(t, k):
                    return _unsat(
                        CertEntry(
                            kind="equality-indivisible",
                            literals=(idx,),
                            note=f"k*x = t has no solution: t is not divisible by {k}",
                        )
                    )
                v = divide_exact(t, k)
                if pin is not None and pin[0] != v:
                    return _unsat(
                        CertEntry(kind="pin-conflict", literals=(pin[1], idx))
                    )
                pin = (v, idx)
            elif cmp in (">", ">="):
                lows.append(_Bound(t, k, cmp == ">", idx))
            else:
                highs.append(_Bound(t, k, cmp == "<", idx))
        elif lit.kind is LitKind.INGRP:
            t = terms[idx] if lit.k > 0 else neg(terms[idx])
            for i in range(lit.alpha.s):
                q = block_divide(group.blocks[i], t.coords[i], abs(lit.k))
                if q is None:
                    return _unsat(
                        CertEntry(
                            kind="coset-pin-indivisible",
                            coordinate=i,
                            literals=(idx,),
                            note="k*x pinned to a value outside the block",
                        )
                    )
                prev = coord_pins.get(i)
                if prev is not None and prev[0] != q:
                    return _unsat(
                        CertEntry(
                            kind="pin-conflict",
                            coordinate=i,
                            literals=(prev[1], idx),
                        )
                    )
                coord_pins[i] = (q, idx)
        else:
            has_diseq = True

    # -- phase 2: fully pinned conjunctions reduce to evaluation -----------
    if pin is not None:
        x = pin[0]
        if evaluate_conj(conj, x):
            return SolveResult(SolveStatus.SAT, witness=x)
        failing = tuple(
            i for i, lit in enumerate(conj.literals)
            if not evaluate(lit, x, conj.params)
        )
        return _unsat(
            CertEntry(
                kind="pin-refuted",
                literals=failing,
                note="the equality literal determines x uniquely",
            )
        )

    # -- phase 3: per-slot congruence solving -------------------------------
    all_terms = list(terms) + [c.value for c in congs]
    # the coordinate pins alone, zero elsewhere
    pinned = _assemble(group, [], coord_pins, {}, None) if coord_pins else None

    slots: list[_Slot] = []
    try:
        for i in range(K):
            block = group.blocks[i]
            here = [c for c in congs if c.alpha_s > i]
            if i in coord_pins:
                for c in here:
                    d = sub(pinned, c.value).coords[i]
                    if not block_divisible(block, d, c.p**c.e):
                        raise _SlotConflict(
                            CertEntry(
                                kind="pin-congruence-conflict",
                                coordinate=i,
                                modulus=c.p**c.e,
                                literals=(coord_pins[i][1], c.src),
                            )
                        )
                continue
            if block.kind == "Q":
                slots.append(_Slot(i, None))
                continue
            if block.kind == "Z":
                cs = [(c.p, c.e, c.value.coords[i], c.src) for c in here]
                if cs:
                    m, r = _merge_int_slot(i, cs)
                    slots.append(_Slot(i, None, m, r))
                else:
                    slots.append(_Slot(i, None))
                continue
            if block.kind == "ZLOC":
                cs = [
                    (c.p, c.e, c.value.coords[i], c.src)
                    for c in here
                    if c.p == block.p
                ]
                if cs:
                    m, r = _solve_prime_slot(i, None, cs)
                    slots.append(_Slot(i, None, m, r))
                else:
                    slots.append(_Slot(i, None))
                continue
            # span block: one slot per constrained basis symbol plus a fresh one
            support = set()
            for t in all_terms:
                support.update(b for b, _ in t.coords[i])
            fresh = max(support, default=-1) + 1
            local = [c for c in here if c.p == block.p]
            for b in sorted(support) + [fresh]:
                cs = [
                    (c.p, c.e, span_coefficient(c.value.coords[i], b), c.src)
                    for c in local
                ]
                if cs:
                    m, r = _solve_prime_slot(i, b, cs)
                    slots.append(_Slot(i, b, m, r))
                else:
                    slots.append(_Slot(i, b))
    except _SlotConflict as sc:
        return _unsat(sc.entry)

    # -- phase 4: order bounds ----------------------------------------------
    low = _tightest(lows, want_max=True)
    high = _tightest(highs, want_max=False)
    if low is not None and high is not None:
        c = _bound_cmp(low, high)
        if c is Ordering.GT:
            return _unsat(
                CertEntry(
                    kind="order-bounds-empty",
                    literals=(low.src, high.src),
                    note="the lower bound exceeds the upper bound",
                )
            )
        if c is Ordering.EQ:
            if low.strict or high.strict:
                return _unsat(
                    CertEntry(
                        kind="order-bounds-empty",
                        literals=(low.src, high.src),
                        note="equal bounds with a strict side",
                    )
                )
            if not is_divisible(low.t, low.k):
                return _unsat(
                    CertEntry(
                        kind="order-pin-indivisible",
                        literals=(low.src, high.src),
                        note="x is forced to a hull point outside the group",
                    )
                )
            x = divide_exact(low.t, low.k)
            if evaluate_conj(conj, x):
                return SolveResult(SolveStatus.SAT, witness=x)
            return _unsat(
                CertEntry(
                    kind="pin-refuted",
                    literals=(low.src, high.src),
                    note="equal order bounds force x uniquely",
                )
            )

    # -- phase 5: candidate assembly and evaluation --------------------------
    have_ords = bool(lows or highs)
    placement, tie = _place_coordinate0(
        group, slots, coord_pins, lows, highs
    ) if have_ords else (None, False)

    seen: set = set()
    tried = 0

    def try_candidate(x: Element | None):
        nonlocal tried
        if x is None or x in seen:
            return None
        seen.add(x)
        tried += 1
        if evaluate_conj(conj, x):
            return SolveResult(SolveStatus.SAT, witness=x)
        return None

    for par in conj.params:
        res = try_candidate(par)
        if res:
            return res
    res = try_candidate(group.zero())
    if res:
        return res
    for b in lows + highs:
        if is_divisible(b.t, b.k):
            res = try_candidate(divide_exact(b.t, b.k))
            if res:
                return res

    base = _assemble(group, slots, coord_pins, {}, placement)
    res = try_candidate(base)
    if res:
        return res

    if has_diseq or tie or (have_ords and placement is None):
        alt_placements: list = [placement]
        if placement is not None and group.blocks[0].kind == "Q":
            alt_placements += [placement + 1, placement + Fraction(1, 3)]
        vary = [s for s in slots if s.coord != 0 or placement is None]
        moves = [1, 2]
        exhausted = False
        for count in (1, 2):
            if exhausted:
                break
            for combo in itertools.combinations(range(len(vary)), count):
                if exhausted:
                    break
                for mv in itertools.product(moves, repeat=count):
                    if tried >= candidate_budget:
                        exhausted = True
                        break
                    overrides = {
                        (vary[j].coord, vary[j].basis): vary[j].residue
                        + mv[n] * vary[j].modulus
                        for n, j in enumerate(combo)
                    }
                    for pl in alt_placements:
                        res = try_candidate(
                            _assemble(group, slots, coord_pins, overrides, pl)
                        )
                        if res:
                            return res

    # -- phase 6: classify the failure ---------------------------------------
    if has_diseq:
        return _unknown(
            "negated literals present; bounded enumeration found no witness"
        )
    if have_ords and (placement is None or tie):
        return _unknown(
            "order constraints leave no strict slack in the most significant "
            "coordinate; outside the complete fragment"
        )
    return _unknown("witness assembly failed outside the complete fragment")


def _assemble(
    group: GroupSpec,
    slots: list[_Slot],
    coord_pins: dict[int, tuple[object, int]],
    overrides: dict[tuple[int, int | None], int],
    placement,
) -> Element | None:
    """Build an element from slot residues, coordinate pins, residue
    overrides and an optional coordinate-0 placement value."""
    span_acc: dict[int, dict[int, int]] = {}
    scalar: dict[int, int] = {}
    for s in slots:
        v = overrides.get((s.coord, s.basis), s.residue)
        if s.basis is None:
            scalar[s.coord] = v
        else:
            span_acc.setdefault(s.coord, {})[s.basis] = v
    coords = []
    for i, block in enumerate(group.blocks):
        if i in coord_pins:
            coords.append(coord_pins[i][0])
            continue
        if i == 0 and placement is not None:
            if block.kind == "GP":
                pairs = dict(span_acc.get(0, {}))
                pairs[0] = placement
                coords.append(tuple(sorted(pairs.items())))
            else:
                coords.append(placement)
            continue
        if block.kind == "GP":
            coords.append(tuple(sorted(span_acc.get(i, {}).items())))
        elif block.kind == "Z":
            coords.append(scalar.get(i, 0))
        else:
            coords.append(Fraction(scalar.get(i, 0)))
    try:
        return Element(group, tuple(coords))
    except ValueError:
        return None


def _place_coordinate0(
    group: GroupSpec,
    slots: list[_Slot],
    coord_pins: dict[int, tuple[object, int]],
    lows: list[_Bound],
    highs: list[_Bound],
):
    """Choose a coordinate-0 value strictly between the order bounds so that
    every comparison is decided at the most significant coordinate.

    Returns (placement, tie): placement None when no strict slack could be
    certified; tie True when the rational parts of the bounds coincide.
    """
    if 0 in coord_pins:
        return None, True
    block = group.blocks[0]
    slot0 = next((s for s in slots if s.coord == 0 and s.basis in (None, 0)), None)
    m = slot0.modulus if slot0 else 1
    r = slot0.residue if slot0 else 0

    if block.kind != "GP":
        lo = None
        for b in lows:
            f = _coord0_fraction(b.t, b.k)
            lo = f if lo is None or f > lo else lo
        hi = None
        for b in highs:
            f = _coord0_fraction(b.t, b.k)
            hi = f if hi is None or f < hi else hi
        if lo is not None and hi is not None and lo >= hi:
            return None, True
        if block.kind == "Q":
            if lo is None and hi is None:
                return Fraction(0), False
            if lo is None:
                return hi - 1, False
            if hi is None:
                return lo + 1, False
            return (lo + hi) / 2, False
        if block.kind == "Z":
            if lo is None and hi is None:
                return r, False
            if lo is None:
                n = r + m * ((int_below(hi) - r) // m)
                return n, False
            n = r + m * (-((r - int_above(lo)) // m))
            if n < int_above(lo):
                n += m
            if hi is not None and not n < hi:
                return None, True
            return n, False
        # ZLOC: x0 = r + m*z with z any p-local rational in the open gap
        if lo is None and hi is None:
            return Fraction(r), False
        zlo = None if lo is None else (lo - r) / m
        zhi = None if hi is None else (hi - r) / m
        z = _local_rational_between(block.p, zlo, zhi)
        if z is None:
            return None, True
        return Fraction(r) + m * z, False

    # span block most significant: adjust the b0 coefficient, enclosing the
    # fixed irrational contribution and the bound values numerically; the
    # final candidate is still verified exactly by the evaluator.
    fixed_pairs = tuple(
        sorted(
            (s.basis, Fraction(s.residue))
            for s in slots
            if s.coord == 0 and s.basis not in (None, 0) and s.residue
        )
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
            return Fraction(r) + m * z, False
    return None, True


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
                if is_divisible(g, p**d):
                    push(divide_exact(g, p**d))

    zero = group.zero()
    if evaluate_conj(conj, zero):
        return zero

    coeffs = [c for a in range(1, radius + 1) for c in (a, -a)]
    scaled = [[scale(c, g) for c in coeffs] for g in gens]
    tried = 0
    for support in range(1, min(max_support, len(gens)) + 1):
        for combo in itertools.combinations(range(len(gens)), support):
            for cs in itertools.product(range(len(coeffs)), repeat=support):
                tried += 1
                if tried > candidate_budget:
                    return None
                x = scaled[combo[0]][cs[0]]
                for j, ci in zip(combo[1:], cs[1:]):
                    x = x + scaled[j][ci]
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
        merged = reduce(conjoin, (formulas[j] for j in subset))
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
