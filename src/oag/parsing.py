"""Text grammars for group specs, elements, and literal conjunctions.

Spec syntax::

    spec  := "lex(" block ("," block)* ")"
    block := ("Z" | "Q" | "Zloc(" prime ")" | "Gp(" prime ")") ["^" count]

Element syntax (coordinates separated by "|", outer parentheses optional)::

    ( 1/2 | b0 + 2*b1 | 0 )

Scalar coordinates are integers or rationals; span coordinates are sums of
basis terms ``rat "*" bN`` (a bare ``bN`` means coefficient 1, a bare
rational means a multiple of b0, which has value 1).

Formula syntax::

    conj    := literal ("&" literal)*
    literal := ["!"] atom
    atom    := "cong" "[" int "," cut "]" "(" int "x" "," term ")"
             | "ing" "[" cut "]" "(" int "x" "," term ")"
             | lin cmp lin
    lin     := int "x" | term
    term    := "0" | int "*" param (("+"|"-") int "*" param)*
    param   := "a" int        cut := "cut" int
    cmp     := "<" | "<=" | "=" | ">=" | ">"

A negated comparison folds into the complementary literal ("!= " becomes a
disequality, "!<" becomes ">=", and so on); negated cong/ing atoms become
the negative literal kinds.

A ``ParseError``'s position is an offset into the whole text the parse
function was given, also inside the pieces of a parameter list.

Each text is scanned once into the list of its token strings, ending in an
empty string that stands for the end of the input.  A token's kind shows in
its first character (digit: number, letter or "_": identifier, otherwise a
symbol).  The productions take that list and an index, read the values by
index and return what they read with the index after it (``_uint`` and
``_name_index`` read one token and return its value alone); every
production that would consume the end marker raises instead.  Token
positions are only needed for errors, so a failing production names a
token index and ``_parse`` recovers its position by scanning the text again.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice

from .convex import ConvexCut
from .errors import ParseError
from .formulas import (
    _CMP_FLIP,
    Literal,
    Term,
    cong,
    in_group,
    ncong,
    neq,
    not_in_group,
    ord_lit,
)
from .groups import (
    INT,
    RAT,
    BlockKind,
    Element,
    GroupSpec,
    PLOCAL,
    PSPAN,
    _norm_block_value,
    _raw_element,
)
from .numutil import is_prime

_SYMBOLS = r"<>=()\[\],^|&!+\-*/;"
# one token per match, whitespace before it included
_TOKEN_RE = re.compile(rf"\s*(\d+|[A-Za-z_][A-Za-z0-9_]*|<=|>=|[{_SYMBOLS}])")
# a character that is not whitespace and starts no token
_BAD_RE = re.compile(rf"[^\s\dA-Za-z_{_SYMBOLS}]")


class _Fail(Exception):
    """A syntax error at token index i, before its position is known."""

    def __init__(self, message: str, i: int):
        self.message, self.i = message, i


def _parse(production, text: str, start: int, end: int, *args):
    """production applied to the tokens of text[start:end]; positions in
    its errors count from text[0]."""
    bad = _BAD_RE.search(text, start, end)
    if bad is not None:
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
    toks = _TOKEN_RE.findall(text, start, end)
    toks.append("")
    try:
        return production(toks, *args)
    except _Fail as exc:
        starts = (m.start(1) for m in _TOKEN_RE.finditer(text, start, end))
        raise ParseError(exc.message, next(islice(starts, exc.i, None), end)) from None


def _found(val: str) -> str:
    return repr(val or "end of input")


def _expect(toks: list[str], i: int, value: str) -> int:
    if toks[i] != value:
        raise _Fail(f"expected {value!r}, found {_found(toks[i])}", i)
    return i + 1


def _end(toks: list[str], i: int) -> None:
    if toks[i]:
        raise _Fail(f"unexpected trailing input {toks[i]!r}", i)


def _uint(toks: list[str], i: int) -> int:
    if not toks[i].isdecimal():
        raise _Fail(f"expected a number, found {_found(toks[i])}", i)
    return int(toks[i])


def _int(toks: list[str], i: int) -> tuple[int, int]:
    val = toks[i]
    if val == "-":
        return -_uint(toks, i + 1), i + 2
    if val == "+":
        i += 1
    return _uint(toks, i), i + 1


def _rational(toks: list[str], i: int) -> tuple[int | Fraction, int]:
    """An integer, or a Fraction when the text has a denominator."""
    num, i = _int(toks, i)
    if toks[i] != "/":
        return num, i
    den = _uint(toks, i + 1)
    if den == 0:
        raise _Fail("zero denominator", i + 2)
    return Fraction(num, den), i + 2


def _name_index(toks: list[str], i: int, prefix: str, what: str) -> int:
    """N from the identifier ``prefix N`` at toks[i] (aN, bN, cutN)."""
    val = toks[i]
    digits = val[len(prefix):]
    if not (val.startswith(prefix) and digits.isdigit()):
        raise _Fail(f"expected {what}, found {val!r}", i)
    return int(digits)


# --- group specs -----------------------------------------------------------


def parse_spec(text: str) -> GroupSpec:
    return _parse(_spec, text, 0, len(text))


def _spec(toks: list[str]) -> GroupSpec:
    blocks: list[BlockKind] = []
    i = _block(toks, _expect(toks, _expect(toks, 0, "lex"), "("), blocks)
    while toks[i] == ",":
        i = _block(toks, i + 1, blocks)
    _end(toks, _expect(toks, i, ")"))
    return GroupSpec(tuple(blocks))


def _block(toks: list[str], i: int, blocks: list[BlockKind]) -> int:
    name, at = toks[i], i
    i += 1
    if name == "Z":
        block = INT
    elif name == "Q":
        block = RAT
    elif name in ("Zloc", "Gp"):
        i = _expect(toks, i, "(")
        p = _uint(toks, i)
        if not is_prime(p):
            raise _Fail(f"{p} is not prime", at)
        i = _expect(toks, i + 1, ")")
        block = PLOCAL(p) if name == "Zloc" else PSPAN(p)
    else:
        raise _Fail(f"expected a block (Z, Q, Zloc(p), Gp(p)), found {name!r}", at)
    count = 1
    if toks[i] == "^":
        count, i = _uint(toks, i + 1), i + 2
        if count < 1:
            raise _Fail("block count must be >= 1", at)
    blocks.extend([block] * count)
    return i


# --- elements ----------------------------------------------------------------


def parse_element(spec: GroupSpec, text: str) -> Element:
    return _parse(_element, text, 0, len(text), spec)


def parse_params(spec: GroupSpec, text: str) -> tuple[Element, ...]:
    """Semicolon-separated element list; the empty string is an empty bank."""
    body = text.strip()
    if not body:
        return ()
    start = len(text) - len(text.lstrip())
    params = []
    for piece in body.split(";"):
        end = start + len(piece)
        params.append(_parse(_element, text, start, end, spec))
        start = end + 1
    return tuple(params)


def _element(toks: list[str], spec: GroupSpec) -> Element:
    """Each coordinate is normalized once, where it is read.  A coordinate
    outside its block is reported at its own start, once the whole text has
    parsed."""
    wrapped = toks[0] == "("
    i = int(wrapped)
    coords = []
    outside = None
    for n, block in enumerate(spec.blocks):
        if n:
            i = _expect(toks, i, "|")
        at = i
        if block.kind == "GP":
            value, i = _span(toks, i)
        else:
            value, i = _rational(toks, i)
            if block.kind == "Z" and type(value) is Fraction and value.denominator != 1:
                raise _Fail("Z coordinate must be an integer", at)
        try:
            coords.append(_norm_block_value(block, value))
        except ValueError as exc:
            outside = outside or _Fail(str(exc), at)
    if wrapped:
        i = _expect(toks, i, ")")
    _end(toks, i)
    if outside:
        raise outside
    return _raw_element(spec, tuple(coords))


def _span(toks: list[str], i: int) -> tuple[list, int]:
    """The (basis, coefficient) pairs of a span coordinate, as written."""
    pairs = []
    val = toks[i]
    sign = -1 if val == "-" else 1
    if val == "-" or val == "+":
        i += 1
    while True:
        if toks[i].isidentifier():
            pairs.append((_name_index(toks, i, "b", "a basis symbol bN"), sign))
            i += 1
        else:
            coeff, i = _rational(toks, i)
            if sign < 0:
                coeff = -coeff
            if toks[i] == "*":
                pairs.append((_name_index(toks, i + 1, "b", "a basis symbol bN"), coeff))
                i += 2
            else:
                pairs.append((0, coeff))  # bare rational: multiple of b0
        val = toks[i]
        if val != "+" and val != "-":
            return pairs, i
        sign = 1 if val == "+" else -1
        i += 1


# --- formulas ----------------------------------------------------------------


def parse_formula(text: str) -> tuple[Literal, ...]:
    return _parse(_conjunction, text, 0, len(text))


def _conjunction(toks: list[str]) -> tuple[Literal, ...]:
    lit, i = _literal(toks, 0)
    literals = [lit]
    while toks[i] == "&":
        lit, i = _literal(toks, i + 1)
        literals.append(lit)
    _end(toks, i)
    return tuple(literals)


_NEG_CMP = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def _literal(toks: list[str], i: int) -> tuple[Literal, int]:
    negated = toks[i] == "!"
    if negated:
        i += 1
    at = i
    if toks[i] == "cong":
        i = _expect(toks, i + 1, "[")
        m = _uint(toks, i)
        if m < 1:
            raise _Fail("modulus must be >= 1", at)
        alpha, i = _cut(toks, _expect(toks, i + 1, ","))
        k, t, i = _kx_term(toks, _expect(toks, i, "]"))
        return (ncong if negated else cong)(k, m, alpha, t), i
    if toks[i] == "ing":
        alpha, i = _cut(toks, _expect(toks, i + 1, "["))
        k, t, i = _kx_term(toks, _expect(toks, i, "]"))
        return (not_in_group if negated else in_group)(k, alpha, t), i
    return _comparison(toks, i, negated)


def _cut(toks: list[str], i: int) -> tuple[ConvexCut, int]:
    return ConvexCut(_name_index(toks, i, "cut", "cutN")), i + 1


def _kx_term(toks: list[str], i: int) -> tuple[int, Term, int]:
    at = _expect(toks, i, "(")
    k, i = _int(toks, at)
    if toks[i] != "x":
        raise _Fail(f"expected 'x' after the coefficient, found {toks[i]!r}", i)
    if k == 0:
        raise _Fail("the coefficient of x must be nonzero", at)
    t, i = _term(toks, _expect(toks, i + 1, ","))
    return k, t, _expect(toks, i, ")")


def _term(toks: list[str], i: int) -> tuple[Term, int]:
    coeffs: dict[int, int] = {}
    sign = 1
    first = True
    while True:
        at = i
        c, i = _int(toks, i)
        if toks[i] == "*":
            idx = _name_index(toks, i + 1, "a", "a parameter aN")
            coeffs[idx] = coeffs.get(idx, 0) + sign * c
            i += 2
        elif c or not first:  # a lone leading 0 denotes the empty term
            raise _Fail("expected '*aN' after the coefficient", at)
        first = False
        val = toks[i]
        if val != "+" and val != "-":
            return Term.of(coeffs), i
        sign = 1 if val == "+" else -1
        i += 1


def _lin(toks: list[str], i: int) -> tuple[int | None, Term | None, int]:
    """One side of a comparison: either k*x or a term."""
    val = toks[i]
    if val.isdecimal() or val == "-" or val == "+":
        k, j = _int(toks, i)
        if toks[j] == "x":
            if k == 0:
                raise _Fail("the coefficient of x must be nonzero", i)
            return k, None, j + 1
    t, i = _term(toks, i)
    return None, t, i


def _comparison(toks: list[str], i: int, negated: bool) -> tuple[Literal, int]:
    at = i
    lk, lt, i = _lin(toks, i)
    cmp = toks[i]
    if cmp not in _CMP_FLIP:
        raise _Fail(f"expected a comparison, found {cmp!r}", i)
    rk, rt, i = _lin(toks, i + 1)
    if lk is not None and rk is not None:
        raise _Fail("both comparison sides mention x", at)
    if lk is None and rk is None:
        raise _Fail("neither comparison side mentions x", at)
    if lk is None:
        # flip so x sits on the left
        k, t = rk, lt
        cmp = _CMP_FLIP[cmp]
    else:
        k, t = lk, rt
    if negated:
        if cmp == "=":
            return neq(k, t), i
        cmp = _NEG_CMP[cmp]
    return ord_lit(k, cmp, t), i
