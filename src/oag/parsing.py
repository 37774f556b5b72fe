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
"""

from __future__ import annotations

import re
from fractions import Fraction

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
from .groups import INT, RAT, BlockKind, Element, GroupSpec, PLOCAL, PSPAN
from .numutil import is_prime

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym><=|>=|[<>=()\[\],^|&!+\-*/;])"
)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            if m.lastgroup != "ws":
                self.toks.append((m.lastgroup, m.group(), pos))
            pos = m.end()
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        if self.i < len(self.toks):
            return self.toks[self.i]
        return ("eof", "", len(self.text))

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value: str) -> tuple[str, str, int]:
        kind, val, pos = self.peek()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", pos)
        return self.next()

    def at(self, value: str) -> bool:
        return self.peek()[1] == value

    def done(self) -> bool:
        return self.i >= len(self.toks)

    def expect_end(self) -> None:
        if not self.done():
            kind, val, pos = self.peek()
            raise ParseError(f"unexpected trailing input {val!r}", pos)


def _parse_uint(tk: _Tokens) -> int:
    kind, val, pos = tk.peek()
    if kind != "num":
        raise ParseError(f"expected a number, found {val or 'end of input'!r}", pos)
    tk.next()
    return int(val)


def _parse_int(tk: _Tokens) -> int:
    sign = 1
    if tk.at("-"):
        tk.next()
        sign = -1
    elif tk.at("+"):
        tk.next()
    return sign * _parse_uint(tk)


def _parse_rational(tk: _Tokens) -> Fraction:
    num = _parse_int(tk)
    if tk.at("/"):
        tk.next()
        den = _parse_uint(tk)
        if den == 0:
            raise ParseError("zero denominator", tk.peek()[2])
        return Fraction(num, den)
    return Fraction(num)


# --- group specs -----------------------------------------------------------


def parse_spec(text: str) -> GroupSpec:
    tk = _Tokens(text)
    tk.expect("lex")
    tk.expect("(")
    blocks: list[BlockKind] = []
    while True:
        blocks.extend(_parse_block(tk))
        if tk.at(","):
            tk.next()
            continue
        break
    tk.expect(")")
    tk.expect_end()
    return GroupSpec(tuple(blocks))


def _parse_block(tk: _Tokens) -> list[BlockKind]:
    kind, val, pos = tk.next()
    if val == "Z":
        block = INT
    elif val == "Q":
        block = RAT
    elif val in ("Zloc", "Gp"):
        tk.expect("(")
        p = _parse_uint(tk)
        if not is_prime(p):
            raise ParseError(f"{p} is not prime", pos)
        tk.expect(")")
        block = PLOCAL(p) if val == "Zloc" else PSPAN(p)
    else:
        raise ParseError(f"expected a block (Z, Q, Zloc(p), Gp(p)), found {val!r}", pos)
    count = 1
    if tk.at("^"):
        tk.next()
        count = _parse_uint(tk)
        if count < 1:
            raise ParseError("block count must be >= 1", pos)
    return [block] * count


# --- elements ----------------------------------------------------------------


def parse_element(spec: GroupSpec, text: str) -> Element:
    tk = _Tokens(text)
    wrapped = tk.at("(")
    if wrapped:
        tk.next()
    coords = []
    for i, block in enumerate(spec.blocks):
        if i > 0:
            tk.expect("|")
        pos = tk.peek()[2]
        try:
            coords.append(_parse_coordinate(tk, block))
        except ValueError as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(str(exc), pos) from None
    if wrapped:
        tk.expect(")")
    tk.expect_end()
    try:
        return Element(spec, tuple(coords))
    except ValueError as exc:
        raise ParseError(str(exc), 0) from None


def _parse_coordinate(tk: _Tokens, block: BlockKind):
    if block.kind == "Z":
        kind, val, pos = tk.peek()
        v = _parse_rational(tk)
        if v.denominator != 1:
            raise ParseError("Z coordinate must be an integer", pos)
        return int(v)
    if block.kind in ("Q", "ZLOC"):
        return _parse_rational(tk)
    return _parse_span(tk)


def _parse_span(tk: _Tokens):
    pairs: list[tuple[int, Fraction]] = []
    sign = 1
    if tk.at("-"):
        tk.next()
        sign = -1
    elif tk.at("+"):
        tk.next()
    while True:
        pairs.append(_parse_span_term(tk, sign))
        if tk.at("+"):
            tk.next()
            sign = 1
        elif tk.at("-"):
            tk.next()
            sign = -1
        else:
            break
    return tuple(pairs)


def _parse_span_term(tk: _Tokens, sign: int) -> tuple[int, Fraction]:
    kind, val, pos = tk.peek()
    if kind == "ident":
        idx = _parse_basis(tk)
        return idx, Fraction(sign)
    coeff = sign * _parse_rational(tk)
    if tk.at("*"):
        tk.next()
        return _parse_basis(tk), coeff
    return 0, coeff  # bare rational: multiple of b0


def _parse_basis(tk: _Tokens) -> int:
    kind, val, pos = tk.next()
    m = re.fullmatch(r"b(\d+)", val) if kind == "ident" else None
    if m is None:
        raise ParseError(f"expected a basis symbol bN, found {val!r}", pos)
    return int(m.group(1))


def parse_params(spec: GroupSpec, text: str) -> tuple[Element, ...]:
    """Semicolon-separated element list; the empty string is an empty bank."""
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_element(spec, part) for part in text.split(";"))


# --- formulas ----------------------------------------------------------------


def parse_formula(text: str) -> tuple[Literal, ...]:
    tk = _Tokens(text)
    literals = [_parse_literal(tk)]
    while tk.at("&"):
        tk.next()
        literals.append(_parse_literal(tk))
    tk.expect_end()
    return tuple(literals)


_NEG_CMP = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def _parse_literal(tk: _Tokens) -> Literal:
    negated = False
    if tk.at("!"):
        tk.next()
        negated = True
    kind, val, pos = tk.peek()
    if val == "cong":
        tk.next()
        tk.expect("[")
        m = _parse_uint(tk)
        if m < 1:
            raise ParseError("modulus must be >= 1", pos)
        tk.expect(",")
        alpha = _parse_cut(tk)
        tk.expect("]")
        k, t = _parse_kx_term(tk)
        return ncong(k, m, alpha, t) if negated else cong(k, m, alpha, t)
    if val == "ing":
        tk.next()
        tk.expect("[")
        alpha = _parse_cut(tk)
        tk.expect("]")
        k, t = _parse_kx_term(tk)
        return not_in_group(k, alpha, t) if negated else in_group(k, alpha, t)
    return _parse_comparison(tk, negated)


def _parse_cut(tk: _Tokens) -> ConvexCut:
    kind, val, pos = tk.next()
    m = re.fullmatch(r"cut(\d+)", val) if kind == "ident" else None
    if m is None:
        raise ParseError(f"expected cutN, found {val!r}", pos)
    return ConvexCut(int(m.group(1)))


def _parse_kx_term(tk: _Tokens) -> tuple[int, Term]:
    tk.expect("(")
    k = _parse_coefficient_x(tk)
    tk.expect(",")
    t = _parse_term(tk)
    tk.expect(")")
    return k, t


def _parse_coefficient_x(tk: _Tokens) -> int:
    pos = tk.peek()[2]
    k = _parse_int(tk)
    kind, val, pos2 = tk.next()
    if val != "x":
        raise ParseError(f"expected 'x' after the coefficient, found {val!r}", pos2)
    if k == 0:
        raise ParseError("the coefficient of x must be nonzero", pos)
    return k


def _parse_term(tk: _Tokens) -> Term:
    coeffs: dict[int, int] = {}
    sign = 1
    first = True
    while True:
        pos = tk.peek()[2]
        c = sign * _parse_int(tk)
        if tk.at("*"):
            tk.next()
            idx = _parse_param(tk)
            coeffs[idx] = coeffs.get(idx, 0) + c
        elif c == 0 and first:
            # a lone 0 denotes the empty term
            pass
        else:
            raise ParseError("expected '*aN' after the coefficient", pos)
        first = False
        if tk.at("+"):
            tk.next()
            sign = 1
        elif tk.at("-"):
            tk.next()
            sign = -1
        else:
            return Term.of(coeffs)


def _parse_param(tk: _Tokens) -> int:
    kind, val, pos = tk.next()
    m = re.fullmatch(r"a(\d+)", val) if kind == "ident" else None
    if m is None:
        raise ParseError(f"expected a parameter aN, found {val!r}", pos)
    return int(m.group(1))


def _parse_lin(tk: _Tokens) -> tuple[int | None, Term | None]:
    """One side of a comparison: either k*x or a term."""
    save = tk.i
    kind, val, pos = tk.peek()
    if kind == "num" or val in ("-", "+"):
        k = _parse_int(tk)
        if tk.peek()[1] == "x":
            tk.next()
            if k == 0:
                raise ParseError("the coefficient of x must be nonzero", pos)
            return k, None
        tk.i = save
    return None, _parse_term(tk)


def _parse_comparison(tk: _Tokens, negated: bool) -> Literal:
    pos = tk.peek()[2]
    lk, lt = _parse_lin(tk)
    kind, cmp, cpos = tk.next()
    if cmp not in _CMP_FLIP:
        raise ParseError(f"expected a comparison, found {cmp!r}", cpos)
    rk, rt = _parse_lin(tk)
    if lk is not None and rk is not None:
        raise ParseError("both comparison sides mention x", pos)
    if lk is None and rk is None:
        raise ParseError("neither comparison side mentions x", pos)
    if lk is None:
        # flip so x sits on the left
        k, t = rk, lt
        cmp = _CMP_FLIP[cmp]
    else:
        k, t = lk, rt
    if negated:
        if cmp == "=":
            return neq(k, t)
        cmp = _NEG_CMP[cmp]
    return ord_lit(k, cmp, t)
