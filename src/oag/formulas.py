"""Quantifier-free literals in one variable over a lexicographic group.

A literal relates k*x to an integer combination t of explicit parameter
elements.  Six shapes cover everything expressible:

* ``CONG``      k*x = t  mod (cut subgroup + m*G)
* ``NCONG``     its negation
* ``ORD``       k*x <cmp> t  for cmp in < <= = >= >
* ``INGRP``     k*x - t lies in the cut subgroup
* ``NEQ``       k*x != t
* ``NOTINGRP``  k*x - t outside the cut subgroup

The classical four-way classification is: CONG is type I, NCONG type II,
ORD and INGRP type III, NEQ and NOTINGRP type IV.  A cut of index K names
the zero subgroup, so plain congruences mod mG are CONG literals at cut K.

Congruence rewrites (coprime-modulus splitting, coefficient reduction at
the block prime, unit inversion of the coefficient) preserve pointwise
equivalence and bring every CONG literal to coefficient 1 with prime-power
modulus; modulus-1 leftovers are kept as explicit vacuous literals so a
rewrite chain stays auditable.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from math import gcd
from typing import Mapping, Sequence

from .convex import ConvexCut, in_coset, in_subgroup
from .errors import NotReducibleError, PreconditionError
from .groups import (
    Element,
    GroupSpec,
    Ordering,
    _check_same_spec,
    _quotient,
    block_modulus,
    coset_key,
    compare,
    scale,
    sub,
)
from .numutil import factorize


class LitKind(str, Enum):
    CONG = "cong"
    NCONG = "ncong"
    ORD = "ord"
    INGRP = "ingrp"
    NEQ = "neq"
    NOTINGRP = "notingrp"


class LiteralType(str, Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


_CMP_OK = {"<": (-1,), "<=": (-1, 0), "=": (0,), ">=": (0, 1), ">": (1,)}
# the comparison that holds after swapping its two sides
_CMP_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


@dataclass(frozen=True)
class Term:
    """Integer combination of parameter-bank entries: sum of c_i * a_i."""

    coeffs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        acc: dict[int, int] = {}
        for idx, c in self.coeffs:
            # operator.index: a float or Fraction raises TypeError, not truncated
            if operator.index(idx) < 0:
                raise ValueError("parameter indices must be >= 0")
            acc[idx] = acc.get(idx, 0) + operator.index(c)
        object.__setattr__(
            self, "coeffs", tuple(sorted((i, c) for i, c in acc.items() if c))
        )

    @classmethod
    def of(cls, coeffs: Mapping[int, int]) -> "Term":
        return cls(tuple(coeffs.items()))

    def scaled(self, s: int) -> "Term":
        return Term(tuple((i, c * s) for i, c in self.coeffs))

    def shifted(self, offset: int) -> "Term":
        return Term(tuple((i + offset, c) for i, c in self.coeffs))

    def max_param(self) -> int:
        return max((i for i, _ in self.coeffs), default=-1)


@dataclass(frozen=True)
class Literal:
    kind: LitKind
    k: int
    term: Term
    m: int | None = None
    alpha: ConvexCut | None = None
    cmp: str | None = None

    def __post_init__(self):
        # a float or Fraction k or m raises TypeError here, not inside solve
        if operator.index(self.k) == 0:
            raise ValueError("the coefficient of x must be nonzero")
        if self.m is not None:
            operator.index(self.m)
        if self.kind in (LitKind.CONG, LitKind.NCONG):
            if self.m is None or self.m < 1:
                raise ValueError("congruence literals need a positive modulus")
            if self.alpha is None:
                raise ValueError("congruence literals need a cut")
        elif self.kind is LitKind.ORD:
            if self.cmp not in _CMP_OK:
                raise ValueError(f"bad comparison {self.cmp!r}")
        elif self.kind in (LitKind.INGRP, LitKind.NOTINGRP):
            if self.alpha is None:
                raise ValueError("subgroup literals need a cut")


def cong(k: int, m: int, alpha: ConvexCut, term: Term) -> Literal:
    return Literal(LitKind.CONG, k, term, m=m, alpha=alpha)


def ncong(k: int, m: int, alpha: ConvexCut, term: Term) -> Literal:
    return Literal(LitKind.NCONG, k, term, m=m, alpha=alpha)


def ord_lit(k: int, cmp: str, term: Term) -> Literal:
    return Literal(LitKind.ORD, k, term, cmp=cmp)


def in_group(k: int, alpha: ConvexCut, term: Term) -> Literal:
    return Literal(LitKind.INGRP, k, term, alpha=alpha)


def neq(k: int, term: Term) -> Literal:
    return Literal(LitKind.NEQ, k, term)


def not_in_group(k: int, alpha: ConvexCut, term: Term) -> Literal:
    return Literal(LitKind.NOTINGRP, k, term, alpha=alpha)


@dataclass(frozen=True)
class Conjunction:
    """A finite set of literals over one variable plus the parameter bank
    their terms refer to."""

    group: GroupSpec
    literals: tuple[Literal, ...]
    params: tuple[Element, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "literals", tuple(self.literals))
        object.__setattr__(self, "params", tuple(self.params))
        for e in self.params:
            if e.spec is not self.group and e.spec != self.group:
                raise PreconditionError("parameter from a different group spec")
        top = max((l.term.max_param() for l in self.literals), default=-1)
        if top >= len(self.params):
            raise PreconditionError(
                f"term references parameter a{top} but the bank has "
                f"{len(self.params)} entries"
            )
        for lit in self.literals:
            if lit.alpha is not None and lit.alpha.s > self.group.K:
                raise PreconditionError(
                    f"cut{lit.alpha.s} exceeds the number of blocks "
                    f"({self.group.K})"
                )

    @cached_property
    def term_values(self) -> tuple[Element, ...]:
        """The value of each literal's term over the bank, in literal order."""
        return tuple(
            term_value(l.term, self.params, self.group) for l in self.literals
        )


def classify(lit: Literal) -> LiteralType:
    if lit.kind is LitKind.CONG:
        return LiteralType.I
    if lit.kind is LitKind.NCONG:
        return LiteralType.II
    if lit.kind in (LitKind.ORD, LitKind.INGRP):
        return LiteralType.III
    return LiteralType.IV


def term_value(term: Term, params: Sequence[Element], group: GroupSpec) -> Element:
    """The sum of c * a_idx over the term, from its first summand on; a
    coefficient of 1 adds the parameter itself."""
    out = None
    for idx, c in term.coeffs:
        try:
            a = params[idx]
        except IndexError:
            raise PreconditionError(f"parameter a{idx} is unresolved") from None
        if c != 1:
            a = scale(c, a)
        if out is None:
            _check_same_spec(group.zero(), a)
            out = a
        else:
            out = out + a
    return group.zero() if out is None else out


def _holds(lit: Literal, x: Element, t: Element) -> bool:
    """Truth of the literal at x, given the value t of its term.  The one
    place that decides what a literal means."""
    # one branch per kind: a negated-kind table was slower, here and in parsing
    kx = x if lit.k == 1 else scale(lit.k, x)
    if lit.kind is LitKind.ORD:
        return compare(kx, t).value in _CMP_OK[lit.cmp]
    if lit.kind is LitKind.NEQ:
        return compare(kx, t) is not Ordering.EQ
    d = sub(kx, t)
    if lit.kind is LitKind.CONG:
        return in_coset(d, lit.alpha, lit.m)
    if lit.kind is LitKind.NCONG:
        return not in_coset(d, lit.alpha, lit.m)
    if lit.kind is LitKind.INGRP:
        return in_subgroup(d, lit.alpha)
    return not in_subgroup(d, lit.alpha)


def _constant_truth(lit: Literal, t: Element) -> bool | None:
    """The truth of the literal at every x, given the value t of its term,
    or None when it depends on x.

    Every literal but an order inequality says whether k*x - t lies in
    V = H_s + mG, with m = 0 for the subgroup literals and s = K for
    (dis)equality.  As k*x ranges over kG, the positive form holds nowhere
    when t is outside kG + V = H_s + gcd(k, m)G, and everywhere when kG lies
    in V (s = 0, or m*B contains k*B on every block B above the cut) and t
    is in V."""
    if lit.kind is LitKind.ORD and lit.cmp != "=":
        return None
    blocks = t.spec.blocks
    s = len(blocks) if lit.alpha is None else lit.alpha.s
    m = lit.m or 0
    if coset_key(t, s, gcd(lit.k, m)):
        holds = False
    elif s == 0 or (
        m
        and all(lit.k % block_modulus(b, m) == 0 for b in blocks[:s])
        and not coset_key(t, s, m)
    ):
        holds = True
    else:
        return None
    negated = lit.kind in (LitKind.NCONG, LitKind.NEQ, LitKind.NOTINGRP)
    return holds is not negated


def evaluate(lit: Literal, x: Element, params: Sequence[Element]) -> bool:
    return _holds(lit, x, term_value(lit.term, params, x.spec))


def evaluate_conj(conj: Conjunction, x: Element) -> bool:
    return all(
        _holds(lit, x, t) for lit, t in zip(conj.literals, conj.term_values)
    )


def conjoin(first: Conjunction, *rest: Conjunction) -> Conjunction:
    """Conjunction of formulas over one group; each later bank is appended
    and its term indices shifted past the banks before it."""
    literals, params = list(first.literals), first.params
    for c in rest:
        if c.group is not first.group and c.group != first.group:
            raise PreconditionError("conjunctions over different group specs")
        literals += (replace(l, term=l.term.shifted(len(params))) for l in c.literals)
        params += c.params
    return Conjunction(first.group, literals, params)


# --- congruence rewrites -------------------------------------------------


@dataclass(frozen=True)
class NormalizeStep:
    op: str
    before: Literal
    after: tuple[Literal, ...]
    note: str = ""


@dataclass(frozen=True)
class NormalizeResult:
    literals: tuple[Literal, ...]
    params: tuple[Element, ...]
    steps: tuple[NormalizeStep, ...]


def _require_cong(lit: Literal) -> None:
    if lit.kind is not LitKind.CONG:
        raise PreconditionError("rewrite applies to positive congruence literals")


def crt_split(lit: Literal) -> list[Literal]:
    """Split a congruence into one literal per prime power of its modulus.

    The conjunction of the pieces is equivalent to the input; modulus 1
    yields the empty list (a vacuous literal), and a prime-power modulus
    the input itself.
    """
    _require_cong(lit)
    f = factorize(lit.m)
    if len(f) == 1:
        return [lit]
    return [replace(lit, m=p**e) for p, e in sorted(f.items())]


def _prime_power(m: int) -> tuple[int, int]:
    f = factorize(m)
    if len(f) != 1:
        raise PreconditionError(f"modulus {m} is not a prime power")
    return next(iter(f.items()))


def derive_reduction_hint(
    lit: Literal, params: Sequence[Element], group: GroupSpec
) -> Element:
    """Construct a' with t - p*a' in the cut subgroup, for the reduction of
    a congruence at prime-power modulus whose coefficient p divides k.

    Exists exactly when every coordinate of t above the cut is p-divisible;
    otherwise the literal itself is unsatisfiable (k*x is always in pG, so
    t would have to be in pG + cut subgroup as well) and NotReducibleError
    is raised.
    """
    p, _ = _prime_power(lit.m)
    t = term_value(lit.term, params, group)
    a_prime = _quotient(t, p, lit.alpha.s)
    if a_prime is None:
        raise NotReducibleError(
            "term is not p-divisible above the cut; the literal has constant "
            "truth value false"
        )
    return a_prime


def reduce_k_prime(
    lit: Literal, params: Sequence[Element], a_prime: Element
) -> tuple[Literal, tuple[Element, ...]]:
    """Rewrite k*x = t mod (cut + p^l G) with p | k into
    (k/p)*x = a' mod (cut + p^(l-1) G), given t - p*a' in the cut subgroup.

    Returns the literal together with the extended parameter bank (a' is
    appended as a fresh parameter).
    """
    _require_cong(lit)
    p, e = _prime_power(lit.m)
    if e < 1:
        raise PreconditionError("modulus 1 congruences cannot be reduced")
    if lit.k % p != 0:
        raise PreconditionError(f"{p} does not divide the coefficient {lit.k}")
    t = term_value(lit.term, params, a_prime.spec)
    if not in_subgroup(sub(t, scale(p, a_prime)), lit.alpha):
        raise NotReducibleError(
            "supplied element does not decompose the term: t - p*a' is not "
            "in the cut subgroup"
        )
    new_params = tuple(params) + (a_prime,)
    new_lit = replace(
        lit,
        k=lit.k // p,
        m=p ** (e - 1),
        term=Term.of({len(params): 1}),
    )
    return new_lit, new_params


def unit_normalize(lit: Literal) -> Literal:
    """Invert a coefficient coprime to the modulus: k*x = t becomes
    x = s*t with s*k = 1 mod m.  Identity when k is already 1."""
    _require_cong(lit)
    if lit.k == 1:
        return lit
    if lit.m > 1:
        p, _ = _prime_power(lit.m)
        if lit.k % p == 0:
            raise PreconditionError(
                f"coefficient {lit.k} shares the factor {p} with the modulus"
            )
    s = pow(lit.k, -1, lit.m) if lit.m > 1 else 0
    return replace(lit, k=1, term=lit.term.scaled(s))


def normalize_type_I(
    lit: Literal,
    params: Sequence[Element],
    group: GroupSpec,
    hints: Sequence[Element] | None = None,
) -> NormalizeResult:
    """Full congruence normal form: split the modulus into prime powers,
    strip the block prime from the coefficient (consuming supplied hint
    elements first, deriving the decomposition from the term value
    otherwise), then invert the remaining unit coefficient.

    Every output literal has coefficient 1 and prime-power modulus, and the
    output conjunction is pointwise equivalent to the input literal.
    """
    _require_cong(lit)
    bank = tuple(params)
    steps: list[NormalizeStep] = []
    hint_queue = list(hints) if hints else []

    pieces = crt_split(lit)
    if len(pieces) != 1:
        steps.append(NormalizeStep("crt_split", lit, tuple(pieces)))

    out: list[Literal] = []
    for cur in pieces:
        p, e = _prime_power(cur.m)
        while e >= 1 and cur.k % p == 0:
            if hint_queue:
                a_prime = hint_queue.pop(0)
            else:
                a_prime = derive_reduction_hint(cur, bank, group)
            nxt, bank = reduce_k_prime(cur, bank, a_prime)
            steps.append(NormalizeStep("reduce_k_prime", cur, (nxt,)))
            cur = nxt
            e -= 1
        if cur.k != 1:
            # p no longer divides k, or the modulus is down to 1
            nxt = unit_normalize(cur)
            steps.append(NormalizeStep("unit_normalize", cur, (nxt,)))
            cur = nxt
        out.append(cur)
    return NormalizeResult(tuple(out), bank, tuple(steps))


def format_term(term: Term) -> str:
    if not term.coeffs:
        return "0"
    return " + ".join(f"{c}*a{i}" for i, c in term.coeffs)


def format_literal(lit: Literal) -> str:
    t = format_term(lit.term)
    if lit.kind is LitKind.CONG:
        return f"cong[{lit.m}, cut{lit.alpha.s}]({lit.k}x, {t})"
    if lit.kind is LitKind.NCONG:
        return f"!cong[{lit.m}, cut{lit.alpha.s}]({lit.k}x, {t})"
    if lit.kind is LitKind.ORD:
        return f"{lit.k}x {lit.cmp} {t}"
    if lit.kind is LitKind.INGRP:
        return f"ing[cut{lit.alpha.s}]({lit.k}x, {t})"
    if lit.kind is LitKind.NEQ:
        return f"!{lit.k}x = {t}"
    return f"!ing[cut{lit.alpha.s}]({lit.k}x, {t})"


def format_conjunction(conj: Conjunction) -> str:
    return " & ".join(format_literal(l) for l in conj.literals)
