"""Seeded random generators shared by the test modules."""

from __future__ import annotations

import random
from fractions import Fraction

from oag import (
    INT,
    PLOCAL,
    PSPAN,
    RAT,
    Conjunction,
    ConvexCut,
    Element,
    GroupSpec,
    Term,
    cong,
    in_group,
    ncong,
    neq,
    not_in_group,
    ord_lit,
    parse_formula,
    parse_params,
    parse_spec,
)

PRIMES = (2, 3, 5)


def is_canonical_rational(c) -> bool:
    """The canonical form of a Q or Zloc value and of a span coefficient: an
    int exactly when c is integral, otherwise a Fraction of denominator
    above 1 (never an integral Fraction, never a float)."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def assert_canonical(x: Element) -> None:
    """Every coordinate of x in canonical form, in value and type: an int on
    Z, a canonical rational on Q and Zloc, and sorted zero-free pairs with
    canonical rational coefficients on Gp."""
    for block, v in zip(x.spec.blocks, x.coords):
        if block.kind == "GP":
            assert [i for i, _ in v] == sorted({i for i, _ in v})
            assert all(is_canonical_rational(c) and c for _, c in v)
        else:
            assert type(v) is int if block.kind == "Z" else is_canonical_rational(v)


def random_spec(rng: random.Random, max_blocks: int = 5) -> GroupSpec:
    n = rng.randint(1, max_blocks)
    blocks = []
    for _ in range(n):
        roll = rng.randrange(4)
        if roll == 0:
            blocks.append(INT)
        elif roll == 1:
            blocks.append(RAT)
        elif roll == 2:
            blocks.append(PLOCAL(rng.choice(PRIMES)))
        else:
            blocks.append(PSPAN(rng.choice(PRIMES)))
    return GroupSpec(tuple(blocks))


def random_local_fraction(rng: random.Random, p: int) -> Fraction:
    num = rng.randint(-24, 24)
    den = rng.choice([d for d in (1, 2, 3, 5, 7, 9) if d % p != 0])
    return Fraction(num, den)


def random_block_value(rng: random.Random, block):
    if block.kind == "Z":
        return rng.randint(-20, 20)
    if block.kind == "Q":
        return Fraction(rng.randint(-24, 24), rng.randint(1, 9))
    if block.kind == "ZLOC":
        return random_local_fraction(rng, block.p)
    pairs = {}
    for _ in range(rng.randint(0, 3)):
        pairs[rng.randrange(4)] = random_local_fraction(rng, block.p)
    return tuple(pairs.items())


def random_element(rng: random.Random, spec: GroupSpec) -> Element:
    return Element(
        spec, tuple(random_block_value(rng, b) for b in spec.blocks)
    )


def random_divisible_element(rng: random.Random, spec: GroupSpec, n: int) -> Element:
    from oag import scale

    return scale(n, random_element(rng, spec))


def random_cong_literal(rng: random.Random, spec: GroupSpec, n_params: int):
    """A positive congruence literal with a random coefficient, modulus and
    cut, whose term draws on the first n_params bank entries."""
    k = rng.choice([1, 2, 3, 5, 6, -1, -3, 4])
    m = rng.choice([1, 2, 3, 4, 6, 8, 9, 12, 18])
    alpha = ConvexCut(rng.randint(0, spec.K))
    coeffs = {}
    for _ in range(rng.randint(1, min(3, n_params))):
        coeffs[rng.randrange(n_params)] = rng.randint(-3, 3) or 1
    return cong(k, m, alpha, Term.of(coeffs))


def random_term(rng: random.Random, n_params: int) -> Term:
    coeffs = {}
    for _ in range(rng.randint(1, min(3, n_params))):
        coeffs[rng.randrange(n_params)] = rng.randint(-3, 3) or 1
    return Term.of(coeffs)


def random_literal(rng: random.Random, spec: GroupSpec, n_params: int):
    """A literal of any of the six kinds over the first n_params bank
    entries, with a cut anywhere in 0..K."""
    kind = rng.randrange(6)
    k = rng.choice([1, 2, 3, -1, -2, 4])
    term = random_term(rng, n_params)
    alpha = ConvexCut(rng.randint(0, spec.K))
    m = rng.choice([1, 2, 3, 4, 6, 8, 9])
    if kind == 0:
        return cong(k, m, alpha, term)
    if kind == 1:
        return ncong(k, m, alpha, term)
    if kind == 2:
        return ord_lit(k, rng.choice(["<", "<=", "=", ">=", ">"]), term)
    if kind == 3:
        return in_group(k, alpha, term)
    if kind == 4:
        return neq(k, term)
    return not_in_group(k, alpha, term)


def random_conjunctions(seed: int, count: int) -> list[Conjunction]:
    """Seeded conjunctions over at most 3 blocks with 1-3 parameters and
    1-3 literals drawn from all six kinds."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        spec = random_spec(rng, max_blocks=3)
        params = tuple(random_element(rng, spec) for _ in range(rng.randint(1, 3)))
        lits = tuple(
            random_literal(rng, spec, len(params))
            for _ in range(rng.randint(1, 3))
        )
        out.append(Conjunction(spec, lits, params))
    return out


_TOPPED_SPECS = (
    "lex(Zloc(2))", "lex(Zloc(3))", "lex(Gp(2))", "lex(Gp(3))",
    "lex(Zloc(2), Z)", "lex(Zloc(3), Q)", "lex(Gp(2), Q)", "lex(Gp(3), Z)",
    "lex(Zloc(2), Gp(3))", "lex(Gp(2), Zloc(3))", "lex(Zloc(3), Zloc(3))",
    "lex(Gp(2), Gp(2))", "lex(Zloc(2), Z, Q)", "lex(Gp(3), Q, Z)",
)


def _small_coordinate(rng: random.Random, block) -> str:
    if block.kind == "Z":
        return str(rng.randint(-4, 4))
    if block.kind == "Q":
        return rng.choice(["0", "1", "-1", "1/2", "3", "5", "-2/3"])
    if block.kind == "ZLOC":
        q = 3 if block.p == 2 else 2
        return rng.choice(["0", "1", "2", "-1", "3", "4", f"1/{q}", f"-2/{q}", "6"])
    third = "1/3*b0" if block.p != 3 else "1/2*b0"
    return rng.choice(["0", "b0", "2*b0", "-b0", "b1", "b0 + b1", "3*b0", "4*b0 - b1", third])


def order_gap_conjunctions(seed: int, count: int) -> list[Conjunction]:
    """Seeded conjunctions of a lower order bound on 1*a0, a literal
    k*x < 1*a1 or k*x <= 1*a1 (an upper bound unless k = -1) and 0-2
    congruences on a2 or a3, over specs topped by a Zloc or Gp block.  The
    four parameters take small coordinates, so the two bounds often agree
    on coordinate 0 and force it."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        spec = parse_spec(rng.choice(_TOPPED_SPECS))
        params = "; ".join(
            "(" + " | ".join(_small_coordinate(rng, b) for b in spec.blocks) + ")"
            for _ in range(4)
        )
        lits = [
            f"{rng.choice([1, 2, 3, -1])}x {rng.choice(['>', '>='])} 1*a0",
            f"{rng.choice([1, 2, 3, -1])}x {rng.choice(['<', '<='])} 1*a1",
        ]
        if lits[0].startswith("-"):  # -x < t bounds x from below
            lits[0] = lits[0].replace(">", "<")
        for _ in range(rng.randint(0, 2)):
            lits.append(
                f"cong[{rng.choice([2, 3, 4, 6, 9])}, cut{rng.randint(1, spec.K)}]"
                f"({rng.choice([1, 2, 3, -1])}x, 1*a{rng.randint(2, 3)})"
            )
        rng.shuffle(lits)
        out.append(
            Conjunction(spec, parse_formula(" & ".join(lits)), parse_params(spec, params))
        )
    return out
