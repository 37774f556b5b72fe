"""A reference literal evaluator, independent of the solver's.

``solve`` accepts a SAT witness through the literal evaluator of
:mod:`oag.formulas`.  This module decides the same literals a second time,
written from the definitions.  It imports nothing from ``solver`` and uses
none of ``_holds``, ``in_coset``, ``in_subgroup``, ``coset_key``,
``block_residues``, ``block_modulus``, ``sub`` or ``residue_mod``:

* A literal other than an order comparison or a disequality says whether
  k*x - t lies in H_s + mG, where H_s is the convex subgroup of the
  coordinates >= s.  That holds exactly when every coordinate i < s of
  k*x - t is divisible by m in its block B_i.  The subgroup literals are the
  case m = 0: there the coordinate must be zero.
* The denominators of a ``Zloc(p)`` value and of a ``Gp(p)`` coefficient
  are prime to p, so such a rational is divisible by m in its block exactly
  when p^v_p(m) divides its numerator.  An integer of ``Z`` is divisible
  when m divides it, and every rational of ``Q`` is divisible.  So the
  modulus of B/mB is p^v_p(m), m or 1.
* Order comparisons and disequalities compare k*x with t by
  ``groups.compare``, after ``groups.scale``.

``verify`` builds one ``InstanceCheck`` per (row, column) instance and
confirms a path witness with ``confirm``, which lists the witness's nonzero
coordinates once for all the path's literals.
"""

from __future__ import annotations

from itertools import compress
from typing import Sequence

from .errors import PreconditionError, SpecMismatchError
from .formulas import Conjunction, Literal, LitKind
from .groups import BlockKind, Element, GroupSpec, Ordering, compare, scale

# the orderings of k*x against t under which an order literal holds, and
# under which a disequality does
_ORDERS = {
    "<": frozenset({Ordering.LT}),
    "<=": frozenset({Ordering.LT, Ordering.EQ}),
    "=": frozenset({Ordering.EQ}),
    ">=": frozenset({Ordering.EQ, Ordering.GT}),
    ">": frozenset({Ordering.GT}),
}
_UNEQUAL = frozenset({Ordering.LT, Ordering.GT})


def _modulus(block: BlockKind, m: int) -> int:
    """The modulus of B/mB: 1 on Q, m on Z, and p^v_p(m) on Zloc(p) and
    Gp(p); 0 (the coordinate must be zero) when m is 0."""
    if m == 0:
        return 0
    if block.kind == "Q":
        return 1
    if block.kind == "Z":
        return m
    q = 1
    while m % block.p == 0:
        m //= block.p
        q *= block.p
    return q


def _divisible(c, mod: int) -> bool:
    """Whether the rational c is divisible in a block of modulus mod:
    ``mod`` divides its numerator, or c is zero when mod is 0."""
    return not (c.numerator % mod if mod else c)


def _span_divisible(pairs, mod: int) -> bool:
    """Whether every coefficient of the (basis, coefficient) pairs is
    divisible in a block of modulus mod."""
    for _, c in pairs:
        if c.numerator % mod if mod else c:
            return False
    return True


class _LiteralCheck:
    """One literal with the value t of its term, ready to be decided at
    any x of the group.  An order literal or disequality keeps the
    orderings of k*x against t under which it holds.  A coset or subgroup
    literal keeps its cut s, the modulus of each block below the cut, and
    the term's nonzero coordinates below the cut that are not divisible
    there, where k*x - t fails whenever x is zero."""

    __slots__ = ("k", "t", "orders", "positive", "s", "mods", "spans", "off")

    def __init__(self, lit: Literal, t: Element):
        self.k, self.t = lit.k, t
        kind = lit.kind
        self.orders = (
            _ORDERS[lit.cmp] if kind is LitKind.ORD
            else _UNEQUAL if kind is LitKind.NEQ
            else None
        )
        if self.orders is not None:
            return
        self.positive = kind in (LitKind.CONG, LitKind.INGRP)
        self.s = s = lit.alpha.s
        blocks = t.spec.blocks[:s]
        m = lit.m if kind in (LitKind.CONG, LitKind.NCONG) else 0
        self.mods = mods = tuple(_modulus(b, m) for b in blocks)
        self.spans = spans = tuple(b.kind == "GP" for b in blocks)
        self.off = tuple(
            i
            for i, v in enumerate(t.coords[:s])
            if v and mods[i] != 1
            and not (_span_divisible(v, mods[i]) if spans[i] else _divisible(v, mods[i]))
        )

    def holds(self, x: Element, nonzero: Sequence[int]) -> bool:
        """The literal's truth at x, whose nonzero coordinates, in
        increasing order, are ``nonzero``."""
        k = self.k
        if self.orders is not None:
            return compare(x if k == 1 else scale(k, x), self.t) in self.orders
        return self._in_coset(x.coords, nonzero) is self.positive

    def _in_coset(self, xs, nonzero: Sequence[int]) -> bool:
        """Whether k*x - t lies in H_s + mG.  Below the cut only the
        coordinates where x or t is nonzero can fail; where x is zero the
        answer was read from t when the check was built."""
        k, s, mods, spans, ts = self.k, self.s, self.mods, self.spans, self.t.coords
        for i in nonzero:
            if i >= s:
                break
            mod = mods[i]
            if mod == 1:
                continue
            xi, ti = xs[i], ts[i]
            if not spans[i]:
                if not _divisible(k * xi - ti, mod):
                    return False
                continue
            kx = xi if k == 1 else tuple((b, k * c) for b, c in xi)
            if not ti:
                diff = kx
            elif kx == ti:
                continue
            else:
                merged = dict(kx)
                for b, c in ti:
                    merged[b] = merged.get(b, 0) - c
                diff = merged.items()
            if not _span_divisible(diff, mod):
                return False
        return all(xs[i] for i in self.off)


def _nonzero(x: Element) -> list[int]:
    return list(compress(range(len(x.coords)), x.coords))


def holds(lit: Literal, x: Element, t: Element) -> bool:
    """Truth of the literal at x, given the value t of its term, by the
    reference evaluator."""
    if x.spec is not t.spec and x.spec != t.spec:
        raise SpecMismatchError("elements belong to different group specs")
    if lit.alpha is not None and lit.alpha.s > x.spec.K:
        raise PreconditionError(f"cut {lit.alpha.s} out of range for K={x.spec.K}")
    return _LiteralCheck(lit, t).holds(x, _nonzero(x))


class InstanceCheck:
    """The literals of one conjunction with their term values, read once,
    for deciding the conjunction at many x."""

    __slots__ = ("group", "checks")

    def __init__(self, conj: Conjunction):
        self.group: GroupSpec = conj.group
        self.checks = tuple(
            _LiteralCheck(lit, t) for lit, t in zip(conj.literals, conj.term_values)
        )

    def holds(self, x: Element, nonzero: Sequence[int]) -> bool:
        """Whether x, with the given nonzero coordinates, satisfies every
        literal."""
        for c in self.checks:
            if not c.holds(x, nonzero):
                return False
        return True


def confirm(instances: Sequence[InstanceCheck], x: Element) -> bool:
    """Whether x satisfies every literal of every instance.  The nonzero
    coordinates of x are listed once for all of them."""
    for inst in instances:
        if x.spec is not inst.group and x.spec != inst.group:
            raise SpecMismatchError("witness from a different group spec")
    nonzero = _nonzero(x)
    for inst in instances:
        if not inst.holds(x, nonzero):
            return False
    return True
