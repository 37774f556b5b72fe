import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oag import (
    INT,
    PLOCAL,
    PSPAN,
    RAT,
    Element,
    GroupSpec,
    NotDivisibleError,
    Ordering,
    SpecMismatchError,
    add,
    compare,
    divide_exact,
    is_divisible,
    neg,
    parse_element,
    parse_spec,
    scale,
    sub,
    unit_element,
)
from oag import ConvexCut, in_coset
from oag import groups
from oag.groups import (
    _quotient,
    _span_add,
    _zero_value,
    block_divide,
    block_modulus,
    coset_key,
)
from oag.numutil import (
    _MR_BOUND,
    factorize,
    int_valuation,
    is_prime,
    nth_prime,
    residue_mod,
)
from helpers import assert_canonical, is_canonical_rational, random_element, random_spec


G_QP2 = GroupSpec((RAT, PSPAN(2)))


def test_add_coordinatewise():
    a = parse_element(G_QP2, "(1/2 | b0)")
    assert add(a, a) == parse_element(G_QP2, "(1 | 2*b0)")


def test_derived_order_operators_agree_with_compare():
    # <=, > and >= come from total_ordering on __lt__ and ==; b shares a
    # random prefix with a, so the order is also decided past coordinate 0
    rng = random.Random(29)
    kinds = set()
    for _ in range(400):
        spec = random_spec(rng)
        a = random_element(rng, spec)
        cut = rng.randint(0, spec.K)
        b = Element(spec, a.coords[:cut] + random_element(rng, spec).coords[cut:])
        c = compare(a, b)
        assert (a < b, a <= b, a > b, a >= b) == (
            c is Ordering.LT,
            c is not Ordering.GT,
            c is Ordering.GT,
            c is not Ordering.LT,
        )
        kinds.update(block.kind for block in spec.blocks)
    assert kinds == {"Z", "Q", "ZLOC", "GP"}


def test_scale_zero_gives_zero():
    a = parse_element(G_QP2, "(1/2 | 3*b1)")
    assert scale(0, a) == G_QP2.zero()


def test_neg_distributes_over_add():
    rng = random.Random(7)
    for _ in range(100):
        spec = random_spec(rng)
        a, b = random_element(rng, spec), random_element(rng, spec)
        assert neg(add(a, b)) == add(neg(a), neg(b))


def test_spec_mismatch_raises():
    a = G_QP2.zero()
    b = GroupSpec((RAT,)).zero()
    with pytest.raises(SpecMismatchError):
        add(a, b)


def test_compare_sqrt2_below_two():
    # b1 realizes sqrt(2) < 2
    a = parse_element(G_QP2, "(0 | b1)")
    b = parse_element(G_QP2, "(0 | 2*b0)")
    assert compare(a, b) is Ordering.LT


def test_compare_reflexive():
    rng = random.Random(11)
    for _ in range(30):
        spec = random_spec(rng)
        a = random_element(rng, spec)
        assert compare(a, a) is Ordering.EQ


def test_compare_leftmost_dominates():
    a = parse_element(G_QP2, "(1 | -100*b0)")
    b = parse_element(G_QP2, "(0 | b0)")
    assert compare(a, b) is Ordering.GT


def test_compare_mixed_irrational_span():
    g = GroupSpec((PSPAN(3),))
    # sqrt(2) + sqrt(3) vs 3: 3.146... > 3
    a = Element(g, (((1, Fraction(1)), (2, Fraction(1))),))
    b = Element(g, (((0, Fraction(3)),),))
    assert compare(a, b) is Ordering.GT
    # sqrt(2) + sqrt(3) < 3.15
    c = Element(g, (((0, Fraction(63, 20)),),))
    assert compare(a, c) is Ordering.LT


def test_order_translation_invariant():
    rng = random.Random(13)
    for _ in range(60):
        spec = random_spec(rng)
        a, b, c = (random_element(rng, spec) for _ in range(3))
        if compare(a, b) is Ordering.LT:
            assert compare(add(a, c), add(b, c)) is Ordering.LT


def test_strict_total_order():
    rng = random.Random(17)
    for _ in range(60):
        spec = random_spec(rng)
        a, b = random_element(rng, spec), random_element(rng, spec)
        cab, cba = compare(a, b), compare(b, a)
        assert cab is Ordering(-cba)
        assert (cab is Ordering.EQ) == (a == b)


def test_divisible_zero_any_n():
    rng = random.Random(19)
    for _ in range(20):
        spec = random_spec(rng)
        assert is_divisible(spec.zero(), rng.randint(1, 30))


def test_divisible_plocal_by_coprime():
    g = GroupSpec((PLOCAL(2),))
    e = Element(g, (Fraction(1, 3),))
    assert is_divisible(e, 3)
    q = divide_exact(e, 3)
    assert q == Element(g, (Fraction(1, 9),))
    assert scale(3, q) == e


def test_not_divisible_pspan_unit():
    g = GroupSpec((PSPAN(2),))
    e = unit_element(g, 0)
    assert not is_divisible(e, 2)
    with pytest.raises(NotDivisibleError):
        divide_exact(e, 2)


def test_divide_exact_simple():
    g = GroupSpec((PSPAN(2),))
    e = Element(g, (((1, Fraction(2)),),))
    assert divide_exact(e, 2) == unit_element(g, 0, basis=1)
    assert divide_exact(g.zero(), 12) == g.zero()


def test_divide_round_trip_random():
    rng = random.Random(23)
    for _ in range(100):
        spec = random_spec(rng)
        n = rng.randint(1, 12)
        a = scale(n, random_element(rng, spec))
        assert is_divisible(a, n)
        q = divide_exact(a, n)
        assert scale(n, q) == a
        assert q.coords == Element(spec, q.coords).coords  # already canonical


def test_divisibility_closed_under_addition():
    rng = random.Random(29)
    for _ in range(80):
        spec = random_spec(rng)
        n = rng.randint(1, 10)
        a, b = random_element(rng, spec), random_element(rng, spec)
        if is_divisible(a, n) and is_divisible(b, n):
            assert is_divisible(add(a, b), n)


@st.composite
def spec_and_elements(draw, count=3):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    spec = random_spec(rng)
    return spec, tuple(random_element(rng, spec) for _ in range(count))


@settings(max_examples=60, deadline=None)
@given(spec_and_elements())
def test_abelian_group_laws(data):
    spec, (a, b, c) = data
    zero = spec.zero()
    assert add(a, b) == add(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert add(a, zero) == a
    assert add(a, neg(a)) == zero
    assert sub(a, b) == add(a, neg(b))


@settings(max_examples=60, deadline=None)
@given(spec_and_elements(count=1), st.integers(-6, 6), st.integers(-6, 6))
def test_scale_is_repeated_addition(data, j, k):
    spec, (a,) = data
    assert add(scale(j, a), scale(k, a)) == scale(j + k, a)


def test_block_validation():
    with pytest.raises(ValueError):
        PSPAN(4)
    with pytest.raises(ValueError):
        PLOCAL(1)
    with pytest.raises(ValueError):
        GroupSpec(())
    with pytest.raises(ValueError):
        Element(GroupSpec((PLOCAL(2),)), (Fraction(1, 2),))
    with pytest.raises(ValueError):
        Element(GroupSpec((INT,)), (Fraction(1, 2),))


def test_element_canonical_span_form():
    g = GroupSpec((PSPAN(2),))
    a = Element(g, ({2: Fraction(1), 1: Fraction(0), 3: Fraction(3, 5)},))
    assert a.coords[0] == ((2, 1), (3, Fraction(3, 5)))
    assert [type(c) for _, c in a.coords[0]] == [int, Fraction]


def _sparsify(a, mask):
    """a with the coordinates whose mask bit is clear set to zero."""
    return Element(a.spec, tuple(
        v if mask >> i & 1 else _zero_value(b)
        for i, (b, v) in enumerate(zip(a.spec.blocks, a.coords))
    ))


def _assert_canonical(r):
    assert r.coords == Element(r.spec, r.coords).coords
    assert_canonical(r)


def _as_fractions(a):
    """a's coordinates with every Q, Zloc and span value as a Fraction,
    integral ones included: valid input, but not canonical."""
    return tuple(
        v if b.kind == "Z"
        else tuple((i, Fraction(c)) for i, c in v) if b.kind == "GP"
        else Fraction(v)
        for b, v in zip(a.spec.blocks, a.coords)
    )


@settings(max_examples=80, deadline=None)
@given(spec_and_elements(count=2), st.integers(0, 31), st.integers(0, 31),
       st.integers(-6, 6), st.integers(1, 12))
def test_kernel_results_canonical_in_value_and_type(data, ma, mb, k, n):
    spec, (a, b) = data
    zero = spec.zero()
    for x in (a, _sparsify(a, ma), zero):
        for y in (b, _sparsify(b, mb), zero, x):
            _assert_canonical(add(x, y))
            _assert_canonical(sub(x, y))
        _assert_canonical(neg(x))
        _assert_canonical(scale(k, x))
        _assert_canonical(scale(1, x))
        _assert_canonical(Element(spec, _as_fractions(x)))
        _assert_canonical(divide_exact(scale(n, x), n))
        for upto in range(spec.K + 1):
            q = _quotient(x, n, upto)
            if q is not None:
                _assert_canonical(q)
        for block, v in zip(spec.blocks, x.coords):
            q = block_divide(block, v, n)
            if q is not None:
                assert_canonical(groups._raw_element(GroupSpec((block,)), (q,)))


def _span_add_reference(x, y, sign):
    """x + sign*y through a dict of coefficients, sorted at the end."""
    acc = dict(x)
    for i, c in y:
        acc[i] = acc.get(i, 0) + sign * c
    return tuple(sorted((i, c) for i, c in acc.items() if c))


def _span(*pairs):
    """A canonical span: an int coefficient where it is integral."""
    fs = ((i, Fraction(c)) for i, c in pairs)
    return tuple((i, f.numerator if f.denominator == 1 else f) for i, f in fs)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "x, y",
    [
        pytest.param(_span((0, 1), (2, 3)), _span((1, 2), (3, 1)), id="interleaved"),
        pytest.param(_span((0, 1), (4, 5)), _span((0, 1), (2, 7), (4, -5)), id="partial-cancel"),
        pytest.param(_span((1, "1/3"), (2, 3)), _span((1, "1/3"), (2, 3)), id="all-equal"),
        pytest.param(_span((1, "1/3"), (2, 3)), _span((1, "-1/3"), (2, -3)), id="all-opposite"),
        pytest.param(_span((1, "1/3"), (2, "1/2")), _span((1, "2/3"), (2, "-1/2")), id="fractions-to-int"),
        pytest.param(_span((5, 2)), _span((0, 1), (1, 1)), id="y-below-x"),
        pytest.param((), _span((0, 1), (3, "-2/5")), id="empty-x"),
        pytest.param(_span((0, 1), (3, "-2/5")), (), id="empty-y"),
        pytest.param((), (), id="both-empty"),
    ],
)
def test_span_add_matches_dict_merge(x, y, sign):
    out = _span_add(x, y, sign)
    assert out == _span_add_reference(x, y, sign)
    assert [i for i, _ in out] == sorted({i for i, _ in out})
    assert all(is_canonical_rational(c) and c for _, c in out)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.integers(0, 5), st.integers(-3, 3).filter(bool)),
    st.dictionaries(st.integers(0, 5), st.integers(-3, 3).filter(bool)),
    st.sampled_from([1, -1]),
)
def test_span_add_matches_dict_merge_random(dx, dy, sign):
    # small indices and coefficients make shared indices and cancellations
    # to zero common
    x, y = _span(*sorted(dx.items())), _span(*sorted(dy.items()))
    assert _span_add(x, y, sign) == _span_add_reference(x, y, sign)


@settings(max_examples=60, deadline=None)
@given(spec_and_elements(count=2), st.integers(1, 12))
def test_equal_elements_hash_equal(data, n):
    spec, (a, b) = data
    routes = [
        Element(spec, a.coords),
        add(sub(a, b), b),
        sub(add(a, b), b),
        neg(neg(a)),
        scale(1, a),
        add(a, spec.zero()),
        sub(a, spec.zero()),
        divide_exact(scale(n, a), n),
        parse_element(spec, str(a)),
    ]
    for r in routes:
        assert r == a
        assert hash(r) == hash(a)
    assert len({a, *routes}) == 1


def test_equal_coords_in_different_specs_are_unequal():
    pairs = [
        (GroupSpec((INT,)), GroupSpec((RAT,)), (1,)),
        (GroupSpec((RAT,)), GroupSpec((PLOCAL(2),)), (Fraction(1, 3),)),
        (GroupSpec((PSPAN(2),)), GroupSpec((PSPAN(3),)), (((1, Fraction(1)),),)),
    ]
    for g, h, coords in pairs:
        a, b = Element(g, coords), Element(h, coords)
        assert a.coords == b.coords
        assert a != b
        assert len({a, b}) == 2


@pytest.mark.parametrize(
    "block, table",
    [
        (RAT, {1: 1, 2: 1, 12: 1}),
        (INT, {1: 1, 2: 2, 12: 12}),
        (PLOCAL(2), {1: 1, 3: 1, 12: 4, 8: 8}),
        (PSPAN(3), {1: 1, 2: 1, 12: 3, 18: 9}),
    ],
    ids=str,
)
def test_block_modulus_table(block, table):
    assert {m: block_modulus(block, m) for m in table} == table


def test_block_modulus_memo_matches_the_rule():
    # the memoized answer against the rule itself, for every block kind, on
    # repeated calls and on equal blocks that are distinct objects
    def rule(block, m):
        if block.kind == "Q":
            return 1
        if block.kind == "Z":
            return m
        return block.p ** int_valuation(m, block.p)

    kinds = [RAT, INT] + [k(p) for k in (PLOCAL, PSPAN) for p in (2, 3, 5, 7)]
    twins = [groups.BlockKind(b.kind, b.p) for b in kinds]
    assert all(a == b and a is not b for a, b in zip(kinds, twins))
    groups._prime_power_part.cache_clear()  # a cold round, then a warm one
    for _ in range(2):
        for block in kinds + twins:
            for m in range(1, 401):
                assert block_modulus(block, m) == rule(block, m)


def _valuation(q: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational, counted factor by factor."""
    v, n, d = 0, q.numerator, q.denominator
    while n % p == 0:
        n, v = n // p, v + 1
    while d % p == 0:
        d, v = d // p, v - 1
    return v


def _in_coset_reference(x, s, m):
    """x in H_s + mG by the definition: every coordinate below s is
    m-divisible in its block, through p-adic valuations on p-local blocks."""
    for block, v in zip(x.spec.blocks[:s], x.coords[:s]):
        if block.kind == "Z" and v % m:
            return False
        if block.kind in ("ZLOC", "GP"):
            e = _valuation(Fraction(m), block.p)
            coeffs = [c for _, c in v] if block.kind == "GP" else [v]
            if any(c and _valuation(c, block.p) < e for c in coeffs):
                return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32), st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 25, 36]))
def test_coset_key_is_the_coset_invariant(seed, m):
    rng = random.Random(seed)
    kinds = [INT, RAT, PLOCAL(rng.choice((2, 3, 5))), PSPAN(rng.choice((2, 3, 5)))]
    blocks = list(random_spec(rng, max_blocks=3).blocks) + kinds
    rng.shuffle(blocks)
    spec = GroupSpec(tuple(blocks))
    s = rng.randint(0, spec.K)
    a = random_element(rng, spec)
    # b in a's coset half the time: a plus an element of mG and one of H_s
    b = random_element(rng, spec)
    if rng.random() < 0.5:
        h = random_element(rng, spec)
        h = Element(spec, spec.zero().coords[:s] + h.coords[s:])
        b = add(a, add(scale(m, b), h))
    assert (coset_key(sub(a, b), s, m) == ()) == (
        coset_key(a, s, m) == coset_key(b, s, m)
    )
    for x in (a, b, sub(a, b)):
        assert in_coset(x, ConvexCut(s), m) == _in_coset_reference(x, s, m)


def test_span_minus_itself_is_empty():
    x = ((0, 3), (2, Fraction(-1, 3)), (5, 7))
    assert _span_add(x, x, -1) == ()
    assert _span_add(x, tuple(list(x)), -1) == ()  # equal, not identical
    assert _span_add(x, x, 1) == ((0, 6), (2, Fraction(-2, 3)), (5, 14))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32))
def test_element_minus_itself_is_zero(seed):
    rng = random.Random(seed)
    blocks = list(random_spec(rng, max_blocks=3).blocks)
    blocks += [PSPAN(rng.choice((2, 3, 5))), PSPAN(rng.choice((2, 3, 5)))]
    rng.shuffle(blocks)
    spec = GroupSpec(tuple(blocks))
    a = random_element(rng, spec)
    copy = Element(spec, a.coords)  # equal coordinates in other objects
    for b in (a, copy):
        d = sub(a, b)
        assert d == spec.zero() and d.is_zero()
        assert d.coords == spec.zero().coords
        assert [type(v) for v in d.coords] == [type(v) for v in spec.zero().coords]
    for block, v in zip(spec.blocks, a.coords):
        if block.kind == "GP":
            assert _span_add(v, v, -1) == ()


def _factorize_reference(n):
    out, p = {}, 2
    while n > 1:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    return out


def test_factorize_matches_trial_division():
    for n in range(1, 2001):
        assert factorize(n) == _factorize_reference(n)
    for p, q in ((101, 103), (9973, 9967), (65537, 65537), (2, 999983), (7919, 104729)):
        assert is_prime(p) and is_prime(q)
        assert factorize(p * q) == _factorize_reference(p * q)
    # memoized: a repeated modulus returns the same dict
    assert factorize(360) is factorize(360)
    with pytest.raises(ValueError):
        factorize(0)


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(1, 500))
def test_residue_mod_int_matches_fraction(n, m):
    assert residue_mod(n, m) == residue_mod(Fraction(n), m)
    assert type(residue_mod(n, m)) is int


def test_nth_prime():
    assert nth_prime(10000) == 104729
    first = [n for n in range(nth_prime(2000) + 1) if is_prime(n)]
    assert first == [nth_prime(k) for k in range(1, 2001)]
    with pytest.raises(ValueError):
        nth_prime(0)


def _is_prime_by_trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_matches_trial_division():
    assert [
        n for n in range(2 * 10**5) if is_prime(n) != _is_prime_by_trial_division(n)
    ] == []


@pytest.mark.parametrize(
    "n, prime",
    [
        (3215031751, False),  # strong pseudoprime to the bases 2, 3, 5, 7
        (3825123056546413051, False),  # ... to the bases 2 to 31
        (318665857834031151167461, False),  # ... to the bases 2 to 37
        (2**61 - 1, True),
        (100000000000031, True),
    ],
)
def test_is_prime_on_large_numbers(n, prime):
    assert is_prime(n) is prime


def test_is_prime_stops_at_the_bound():
    # the first prime above the bound; trial division would need ~10^12 steps
    with pytest.raises(ValueError, match=str(_MR_BOUND)):
        is_prime(3317044064679887385962123)
    assert is_prime(_MR_BOUND + 1) is False  # even: a factor up to 41 decides


def test_large_prime_in_a_spec_parses_fast():
    start = time.perf_counter()
    spec = parse_spec("lex(Gp(100000000000031)^3)")
    assert time.perf_counter() - start < 0.1
    assert spec.blocks == (PSPAN(100000000000031),) * 3


@pytest.mark.parametrize(
    "bound, precisions",
    [
        # convergents of sqrt(2) just above it: 64 and 256 bits separate them
        ("665857/470832", [32, 64]),
        (
            "1572584048032918633353217/1111984844349868137938112",
            [32, 64, 128, 256],
        ),
    ],
    ids=["64-bits", "256-bits"],
)
def test_span_sign_doubles_the_precision(monkeypatch, bound, precisions):
    seen = []
    real = groups.sqrt_enclosure

    def recording(n, bits):
        seen.append(bits)
        return real(n, bits)

    monkeypatch.setattr(groups, "sqrt_enclosure", recording)
    g = parse_spec("lex(Gp(5))")
    b1 = parse_element(g, "(b1)")  # the real value sqrt(2)
    assert compare(b1, parse_element(g, f"({bound}*b0)")) is Ordering.LT
    assert seen == precisions
