"""Exact elements of finite lexicographic sums of Archimedean ordered-group blocks.

A group is described by a ``GroupSpec``: a nonempty ordered list of blocks,
index 0 most significant.  Four block kinds are supported:

* ``INT``        -- the integers
* ``RAT``        -- the rationals
* ``PLOCAL(p)``  -- rationals whose denominator is coprime to the prime p
* ``PSPAN(p)``   -- finite PLOCAL(p)-linear combinations of a fixed countable
  basis b0, b1, b2, ... with b0 = 1

The basis symbol bk (k >= 1) is realized as the square root of the k-th
prime, so the basis is linearly independent over the rationals and the real
ordering of any combination is decidable.  All arithmetic is exact rational
arithmetic; floating point never enters, and order certification on spans
uses adaptive-precision rational enclosures of the square roots.

Elements are immutable and hashable; every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from functools import cache, cached_property, total_ordering
from itertools import compress
from typing import Iterable, Mapping, Union

from .errors import NotDivisibleError, SpecMismatchError
from .numutil import int_valuation, is_prime, nth_prime, residue_mod, sqrt_enclosure

# a Q or Zloc value and a span coefficient are ints when integral, else
# Fractions of denominator above 1; see _canon
SpanPairs = tuple[tuple[int, Union[int, Fraction]], ...]
BlockValue = Union[int, Fraction, SpanPairs]


class Ordering(IntEnum):
    LT = -1
    EQ = 0
    GT = 1


@dataclass(frozen=True)
class BlockKind:
    """One Archimedean block: 'Z', 'Q', 'ZLOC' (p-local rationals) or 'GP'
    (p-local span of the square-root basis)."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "ZLOC", "GP"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.kind in ("ZLOC", "GP"):
            if self.p is None or not is_prime(self.p):
                raise ValueError(f"block {self.kind} needs a prime, got {self.p!r}")
        elif self.p is not None:
            raise ValueError(f"block {self.kind} takes no prime")

    def __str__(self) -> str:
        if self.kind == "Z":
            return "Z"
        if self.kind == "Q":
            return "Q"
        if self.kind == "ZLOC":
            return f"Zloc({self.p})"
        return f"Gp({self.p})"


INT = BlockKind("Z")
RAT = BlockKind("Q")


def PLOCAL(p: int) -> BlockKind:
    return BlockKind("ZLOC", p)


def PSPAN(p: int) -> BlockKind:
    return BlockKind("GP", p)


@dataclass(frozen=True)
class GroupSpec:
    """Ordered list of blocks, most significant first."""

    blocks: tuple[BlockKind, ...]

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValueError("a group spec needs at least one block")
        for b in blocks:
            if not isinstance(b, BlockKind):
                raise TypeError(f"expected BlockKind, got {type(b).__name__}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def K(self) -> int:
        return len(self.blocks)

    def zero(self) -> "Element":
        return self._zero

    @cached_property
    def _zero(self) -> "Element":
        # built once per spec; cached_property writes the instance dict
        # directly, so it works on the frozen dataclass
        return _raw_element(self, tuple(_zero_value(b) for b in self.blocks))

    def __str__(self) -> str:
        parts: list[str] = []
        i = 0
        while i < len(self.blocks):
            j = i
            while j < len(self.blocks) and self.blocks[j] == self.blocks[i]:
                j += 1
            run = j - i
            parts.append(str(self.blocks[i]) + (f"^{run}" if run > 1 else ""))
            i = j
        return "lex(" + ", ".join(parts) + ")"


def _zero_value(block: BlockKind) -> BlockValue:
    return () if block.kind == "GP" else 0


def _canon(c) -> int | Fraction:
    """A rational in canonical form: an int when it is integral, else a
    Fraction; an int or a Fraction is kept, not copied."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _divide(c: int | Fraction, n: int) -> int | Fraction:
    """c/n, never a float: an int when n divides the int c, else a
    Fraction; canonical when c is, as a canonical Fraction c/n keeps a
    denominator above 1."""
    return c // n if type(c) is int and not c % n else Fraction(c, n)


def _norm_span(value) -> SpanPairs:
    """Canonical span form: sorted (basis index, coefficient) pairs, no zeros."""
    if isinstance(value, (int, Fraction)):
        pairs: Iterable = (((0, value),) if value else ())
    elif isinstance(value, Mapping):
        pairs = value.items()
    else:
        pairs = value
    acc: dict[int, int | Fraction] = {}
    for idx, c in pairs:
        idx = int(idx)
        if idx < 0:
            raise ValueError("basis indices must be >= 0")
        c = _canon(c)
        if c:
            acc[idx] = _canon(acc[idx] + c) if idx in acc else c
    return tuple(sorted((i, c) for i, c in acc.items() if c))


def _norm_block_value(block: BlockKind, value) -> BlockValue:
    if block.kind != "GP":
        f = _canon(value)
        if block.kind == "Z" and type(f) is not int:
            raise ValueError(f"Z coordinate must be an integer, got {value!r}")
        if block.kind == "ZLOC" and f.denominator % block.p == 0:
            raise ValueError(f"{f} has denominator divisible by {block.p}")
        return f
    span = _norm_span(value)
    for _, c in span:
        if c.denominator % block.p == 0:
            raise ValueError(f"span coefficient {c} not {block.p}-local")
    return span


@total_ordering
@dataclass(frozen=True)
class Element:
    """One group element: a block value per coordinate of the spec."""

    spec: GroupSpec
    coords: tuple[BlockValue, ...]

    def __post_init__(self):
        coords = tuple(self.coords)
        if len(coords) != self.spec.K:
            raise ValueError(
                f"expected {self.spec.K} coordinates, got {len(coords)}"
            )
        coords = tuple(
            _norm_block_value(b, v) for b, v in zip(self.spec.blocks, coords)
        )
        object.__setattr__(self, "coords", coords)

    def __add__(self, other: "Element") -> "Element":
        return add(self, other)

    def __sub__(self, other: "Element") -> "Element":
        return sub(self, other)

    def __neg__(self) -> "Element":
        return neg(self)

    def __rmul__(self, k: int) -> "Element":
        return scale(k, self)

    def __lt__(self, other):
        return compare(self, other) is Ordering.LT

    def __hash__(self) -> int:
        # equal elements share their spec, so the coords alone decide
        return hash(self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __str__(self) -> str:
        return format_element(self)


def _raw_element(spec: GroupSpec, coords: tuple[BlockValue, ...]) -> Element:
    """Internal constructor for coordinates already in canonical form.

    Arithmetic on canonical values stays canonical (sums and integer
    multiples of p-local rationals are p-local, _canon turns an integral
    result back into an int, span helpers keep pairs sorted and zero-free),
    so the per-construction validation of Element can be skipped on these
    paths.
    """
    e = object.__new__(Element)
    object.__setattr__(e, "spec", spec)
    object.__setattr__(e, "coords", coords)
    return e


def unit_element(spec: GroupSpec, coord: int, value=1, basis: int = 0) -> Element:
    """Element supported on a single coordinate; for span blocks the value
    is placed on the given basis symbol."""
    coords = [_zero_value(b) for b in spec.blocks]
    if spec.blocks[coord].kind == "GP":
        coords[coord] = ((basis, value),)
    else:
        coords[coord] = value
    return Element(spec, tuple(coords))


def _check_same_spec(a: Element, b: Element) -> None:
    if a.spec is not b.spec and a.spec != b.spec:
        raise SpecMismatchError("elements belong to different group specs")


def _span_add(x: SpanPairs, y: SpanPairs, sign: int = 1) -> SpanPairs:
    """x + sign*y for canonical spans and sign = +-1, by one merge of the
    two sorted pair tuples; an empty x or y needs no merge, and neither
    does x - x, which a witness coordinate minus the term value it was
    solved from often is."""
    if not y:
        return x
    if sign < 0 and x == y:
        return ()
    if not x:
        return y if sign > 0 else tuple((i, -c) for i, c in y)
    out = []
    i = j = 0
    nx, ny = len(x), len(y)
    while i < nx and j < ny:
        ix, cx = x[i]
        iy, cy = y[j]
        if ix < iy:
            out.append(x[i])
            i += 1
        elif iy < ix:
            out.append(y[j] if sign > 0 else (iy, -cy))
            j += 1
        else:
            c = _canon(cx + cy if sign > 0 else cx - cy)
            if c:
                out.append((ix, c))
            i += 1
            j += 1
    out.extend(x[i:])
    out.extend(y[j:] if sign > 0 else ((iy, -cy) for iy, cy in y[j:]))
    return tuple(out)


def span_coefficient(v: SpanPairs, basis: int) -> int | Fraction:
    for i, c in v:
        if i == basis:
            return c
    return 0


# The kernel below relies on the canonical form (ints on Z; on Q, Zloc and
# span coefficients an int when integral, else a Fraction; sorted zero-free
# span pairs): integral values never pay for Fraction arithmetic, and a
# result of Fraction arithmetic goes through _canon.  A zero coordinate (0
# or ()) is falsy, which is the one zero test, and the other side of a sum
# with it is already the canonical result, so it is passed through with no
# arithmetic.  add and sub share one merge, in sub, the hotter of the two: it
# copies the left operand's coordinates and visits only the right operand's
# nonzero ones, which compress picks out by that truth value.


def add(a: Element, b: Element) -> Element:
    return sub(a, b, 1)


def sub(a: Element, b: Element, _sign: int = -1) -> Element:
    """a - b, or a + b when add passes _sign = 1."""
    _check_same_spec(a, b)
    coords, other, blocks = list(a.coords), b.coords, a.spec.blocks
    for i in compress(range(len(other)), other):
        x, y = coords[i], other[i]
        coords[i] = (
            _span_add(x, y, _sign) if blocks[i].kind == "GP"
            else _canon(x + y if _sign > 0 else x - y) if x
            else y if _sign > 0 else -y
        )
    return _raw_element(a.spec, tuple(coords))


def neg(a: Element) -> Element:
    return scale(-1, a)


def scale(k: int, a: Element) -> Element:
    if not isinstance(k, int):
        raise TypeError("scale takes an integer multiplier")
    coords = tuple(
        x if not x or k == 1
        else (tuple((i, _canon(c * k)) for i, c in x) if k else ()) if block.kind == "GP"
        else _canon(x * k)
        for block, x in zip(a.spec.blocks, a.coords)
    )
    return _raw_element(a.spec, coords)


def span_enclosure(pairs: SpanPairs, bits: int) -> tuple[Fraction, Fraction]:
    """Rational interval containing the real value of a span at the given
    working precision."""
    lo = hi = Fraction(0)
    for idx, c in pairs:
        if idx == 0:
            lo += c
            hi += c
            continue
        slo, shi = sqrt_enclosure(nth_prime(idx), bits)
        if c >= 0:
            lo += c * slo
            hi += c * shi
        else:
            lo += c * shi
            hi += c * slo
    return lo, hi


def _span_sign(pairs: SpanPairs) -> int:
    """Exact sign of the real value of a nonempty canonical span.

    Terminates because a span with a nonzero coefficient vector has nonzero
    real value (the realized basis is linearly independent over Q), so some
    working precision separates the enclosure from 0.
    """
    if not pairs:
        return 0
    if len(pairs) == 1 and pairs[0][0] == 0:
        c = pairs[0][1]
        return -1 if c < 0 else 1
    bits = 32
    while True:
        lo, hi = span_enclosure(pairs, bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


def block_sign(block: BlockKind, x: BlockValue, y: BlockValue) -> int:
    """The sign of x - y for two values of one block."""
    if block.kind == "GP":
        return _span_sign(_span_add(x, y, -1))
    return (x > y) - (x < y)


def compare(a: Element, b: Element) -> Ordering:
    """Lexicographic order, coordinate 0 most significant.

    Coordinates are compared by exact equality first; a nonzero span
    difference is signed by adaptive-precision enclosure of its real value.
    """
    _check_same_spec(a, b)
    for block, x, y in zip(a.spec.blocks, a.coords, b.coords):
        if x == y:
            continue
        # scalars stay inline: routing them through block_sign was slower
        s = block_sign(block, x, y) if block.kind == "GP" else -1 if x < y else 1
        return Ordering.LT if s < 0 else Ordering.GT
    return Ordering.EQ


def block_modulus(block: BlockKind, m: int) -> int:
    """The modulus of B/mB, the one rule behind every divisibility and
    residue test: 1 on Q, m on Z, and p^v_p(m) on Zloc(p) and on each basis
    coefficient of Gp(p).  A block of modulus 1 is m-divisible as a whole."""
    if block.kind == "Q":
        return 1
    if block.kind == "Z":
        return m
    return _prime_power_part(block.p, m)


@cache
def _prime_power_part(p: int, m: int) -> int:
    """p^v_p(m), memoized: the residue tests ask it again and again for the
    few (prime, modulus) pairs their literals use."""
    return p ** int_valuation(m, p)


def block_residues(
    block: BlockKind, value: BlockValue, m: int
) -> tuple[tuple[int | None, int], ...]:
    """The image of a block value in B/mB: its (basis, residue) pairs with
    nonzero residue, in basis order; the basis is None on scalar blocks."""
    if not value or (mod := block_modulus(block, m)) == 1:
        return ()
    if block.kind == "GP":
        return tuple([(b, r) for b, c in value if (r := residue_mod(c, mod))])
    r = residue_mod(value, mod)
    return ((None, r),) if r else ()


def coset_key(
    v: Element, s: int, m: int
) -> tuple[tuple[int, int | None, int], ...]:
    """The image of v in the product of the B_i/mB_i over i < s: the sorted
    (coordinate, basis, residue) triples with nonzero residue.  Its kernel is
    H_s + mG, H_s the convex subgroup of the coordinates >= s; so v is in
    H_s + mG exactly when the key is empty, and two elements share a coset
    exactly when their keys are equal."""
    blocks, coords = v.spec.blocks, v.coords
    # zero residues drop out, so only the nonzero coordinates are visited
    return tuple(
        (i, b, r)
        for i in compress(range(s), coords)
        for b, r in block_residues(blocks[i], coords[i], m)
    )


def block_divide(block: BlockKind, value: BlockValue, n: int) -> BlockValue | None:
    """Exact quotient value/n inside the block, or None if not divisible."""
    if block_residues(block, value, n):
        return None
    if block.kind == "Z":
        return value // n
    if block.kind == "GP":
        return tuple((i, _divide(c, n)) for i, c in value)
    return _divide(value, n)


def is_divisible(a: Element, n: int) -> bool:
    """Whether a is in nG, i.e. every coordinate is n-divisible in its block."""
    if n < 1:
        raise ValueError("divisor must be a positive integer")
    return not coset_key(a, a.spec.K, n)


def _quotient(a: Element, n: int, upto: int) -> Element | None:
    """The coordinates of a below `upto` divided by n, the rest zero; None
    when one of the divided coordinates is not n-divisible in its block."""
    coords = []
    for block, v in zip(a.spec.blocks[:upto], a.coords[:upto]):
        q = block_divide(block, v, n)
        if q is None:
            return None
        coords.append(q)
    coords.extend(a.spec.zero().coords[upto:])
    return _raw_element(a.spec, tuple(coords))


def divide_exact(a: Element, n: int) -> Element:
    """The unique y with scale(n, y) == a; raises NotDivisibleError otherwise."""
    if n < 1:
        raise ValueError("divisor must be a positive integer")
    q = _quotient(a, n, a.spec.K)
    if q is None:
        raise NotDivisibleError(f"element is not divisible by {n}")
    return q


def format_block_value(block: BlockKind, v: BlockValue) -> str:
    if block.kind == "GP":
        if not v:
            return "0"
        parts = []
        for n, (idx, c) in enumerate(v):
            mag = abs(c)
            body = f"b{idx}" if mag == 1 else f"{mag}*b{idx}"
            if n == 0:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)
    return str(v)


def format_element(a: Element) -> str:
    inner = " | ".join(
        format_block_value(b, v) for b, v in zip(a.spec.blocks, a.coords)
    )
    return f"({inner})"
