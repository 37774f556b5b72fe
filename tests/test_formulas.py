import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oag import (
    ConvexCut,
    Conjunction,
    LiteralType,
    NotReducibleError,
    PreconditionError,
    Term,
    classify,
    cong,
    conjoin,
    crt_split,
    evaluate,
    evaluate_conj,
    gen_chain_pattern,
    gen_optimal_pattern,
    in_group,
    ncong,
    neq,
    normalize_type_I,
    not_in_group,
    ord_lit,
    parse_element,
    parse_spec,
    reduce_k_prime,
    scale,
    solve,
    term_value,
    unit_normalize,
)
from oag.formulas import _constant_truth, _holds, derive_reduction_hint
from oag.groups import INT, PLOCAL, PSPAN, RAT, Element, GroupSpec, add, sub
from helpers import (
    PRIMES,
    random_cong_literal,
    random_element,
    random_spec,
    random_term,
)

G = parse_spec("lex(Q, Gp(2))")
A0 = parse_element(G, "(0 | b0)")


@pytest.mark.parametrize(
    "make",
    [
        lambda cut: in_group(1, cut, Term.of({0: 1})),
        lambda cut: cong(1, 2, cut, Term.of({0: 1})),
        lambda cut: not_in_group(1, cut, Term.of({0: 1})),
    ],
)
def test_conjunction_rejects_cut_past_the_blocks(make):
    # G has K = 2 blocks, so cut 2 (the zero subgroup) is the last cut
    solve(Conjunction(G, (make(ConvexCut(2)),), (A0,)))
    with pytest.raises(PreconditionError, match="cut5"):
        Conjunction(G, (make(ConvexCut(5)),), (A0,))
    with pytest.raises(PreconditionError):
        Conjunction(G, (make(ConvexCut(3)),), (A0,))


@pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(3, 2), Fraction(2)])
def test_term_rejects_a_non_integer_coefficient_or_index(bad):
    # int() would truncate 1.5 to 1, and 1x = 1.5*a0 would then format as
    # 1x = 1*a0 and solve SAT over lex(Z) at a0 = (2)
    with pytest.raises(TypeError):
        Term.of({0: bad})
    with pytest.raises(TypeError):
        Term(((bad, 1),))
    with pytest.raises(TypeError):
        ord_lit(1, "=", Term.of({0: bad}))
    assert Term.of({0: 3, 1: -2}).coeffs == ((0, 3), (1, -2))


@pytest.mark.parametrize("bad", [1.5, 4.0, Fraction(4)])
def test_literal_rejects_a_non_integer_k_or_m(bad):
    cut, term = ConvexCut(1), Term.of({0: 1})
    for make in (
        lambda: ord_lit(bad, "<", term),
        lambda: neq(bad, term),
        lambda: in_group(bad, cut, term),
        lambda: cong(bad, 4, cut, term),
        lambda: cong(1, bad, cut, term),
        lambda: ncong(1, bad, cut, term),
    ):
        with pytest.raises(TypeError):
            make()
    assert cong(3, 4, cut, term).m == 4


def test_term_values_follow_literal_order():
    lits = (
        ord_lit(1, "<", Term.of({0: 2})),
        neq(1, Term.of({})),
        cong(1, 2, ConvexCut(1), Term.of({0: -1})),
    )
    c = Conjunction(G, lits, (A0,))
    assert c.term_values == tuple(term_value(l.term, (A0,), G) for l in lits)
    assert c.term_values is c.term_values  # computed once


def test_evaluate_trivial_congruence():
    lit = cong(1, 6, ConvexCut(1), Term.of({0: 1}))
    assert evaluate(lit, A0, (A0,))


def test_evaluate_cong_examples():
    lit = cong(1, 2, ConvexCut(2), Term.of({0: 1}))
    assert evaluate(lit, parse_element(G, "(0 | b0 + 2*b1)"), (A0,))
    assert not evaluate(lit, parse_element(G, "(0 | b1)"), (A0,))


def test_evaluate_cut0_always_true():
    rng = random.Random(3)
    for _ in range(40):
        spec = random_spec(rng)
        params = (random_element(rng, spec),)
        lit = cong(rng.choice([1, 2, 3]), rng.randint(1, 9), ConvexCut(0), Term.of({0: 1}))
        assert evaluate(lit, random_element(rng, spec), params)


def test_ncong_is_pointwise_negation():
    rng = random.Random(5)
    for _ in range(80):
        spec = random_spec(rng)
        params = tuple(random_element(rng, spec) for _ in range(2))
        pos = random_cong_literal(rng, spec, 2)
        negl = ncong(pos.k, pos.m, pos.alpha, pos.term)
        x = random_element(rng, spec)
        assert evaluate(negl, x, params) == (not evaluate(pos, x, params))


def test_evaluate_order_and_disequality():
    x = parse_element(G, "(1 | 0)")
    p = (parse_element(G, "(2 | 0)"),)
    assert evaluate(ord_lit(1, "<", Term.of({0: 1})), x, p)
    assert evaluate(ord_lit(3, ">", Term.of({0: 1})), x, p)  # 3 > 2
    assert evaluate(ord_lit(2, "=", Term.of({0: 1})), x, p)
    assert not evaluate(neq(2, Term.of({0: 1})), x, p)


def test_evaluate_subgroup_literals():
    x = parse_element(G, "(1 | 5*b1)")
    p = (parse_element(G, "(1 | b1)"),)
    # difference (0 | 4*b1) is supported on coordinates >= 1
    assert evaluate(in_group(1, ConvexCut(1), Term.of({0: 1})), x, p)
    # at cut 2 membership means the difference is zero
    assert not evaluate(in_group(1, ConvexCut(2), Term.of({0: 1})), x, p)
    assert evaluate(not_in_group(1, ConvexCut(2), Term.of({0: 1})), x, p)
    # k*x picks up a coordinate-0 difference against 5*t
    assert not evaluate(in_group(1, ConvexCut(1), Term.of({0: 5})), x, p)


def test_classify_exhaustive():
    t = Term.of({0: 1})
    assert classify(cong(3, 4, ConvexCut(1), t)) is LiteralType.I
    assert classify(ncong(3, 4, ConvexCut(1), t)) is LiteralType.II
    assert classify(ord_lit(1, "<", t)) is LiteralType.III
    assert classify(in_group(1, ConvexCut(1), t)) is LiteralType.III
    assert classify(neq(1, t)) is LiteralType.IV
    assert classify(not_in_group(1, ConvexCut(1), t)) is LiteralType.IV


def test_crt_split_examples():
    t = Term.of({0: 1})
    lit = cong(1, 12, ConvexCut(1), t)
    out = crt_split(lit)
    assert [l.m for l in out] == [4, 3]
    lit8 = cong(1, 8, ConvexCut(1), t)
    assert crt_split(lit8) == [lit8] and crt_split(lit8)[0] is lit8
    assert crt_split(cong(1, 1, ConvexCut(1), t)) == []


def test_crt_split_equivalence_random():
    rng = random.Random(7)
    for _ in range(200):
        spec = random_spec(rng)
        params = tuple(random_element(rng, spec) for _ in range(2))
        lit = random_cong_literal(rng, spec, 2)
        pieces = crt_split(lit)
        x = random_element(rng, spec)
        assert evaluate(lit, x, params) == all(
            evaluate(p, x, params) for p in pieces
        )


def test_reduce_k_prime_example():
    # 2x = 2a' mod (cut + 4G)  becomes  x = a' mod (cut + 2G)
    g = parse_spec("lex(Gp(2))")
    a_prime = parse_element(g, "b1")
    t_elem = scale(2, a_prime)
    lit = cong(2, 4, ConvexCut(1), Term.of({0: 1}))
    new, bank = reduce_k_prime(lit, (t_elem,), a_prime)
    assert new.k == 1 and new.m == 2
    assert term_value(new.term, bank, g) == a_prime


def test_reduce_k_prime_vacuous_modulus():
    g = parse_spec("lex(Gp(2))")
    a_prime = parse_element(g, "b1")
    lit = cong(2, 2, ConvexCut(1), Term.of({0: 1}))
    new, bank = reduce_k_prime(lit, (scale(2, a_prime),), a_prime)
    assert new.m == 1 and new.k == 1
    # modulus 1 keeps the literal vacuously true for any x
    assert evaluate(new, parse_element(g, "17*b3"), bank)


def test_reduce_k_prime_equivalence_random():
    rng = random.Random(11)
    for _ in range(150):
        spec = random_spec(rng)
        p = rng.choice((2, 3))
        e = rng.randint(1, 3)
        a_prime = random_element(rng, spec)
        t_elem = scale(p, a_prime)
        lit = cong(p * rng.choice([1, 2, 3]), p**e, ConvexCut(rng.randint(0, spec.K)), Term.of({0: 1}))
        new, bank = reduce_k_prime(lit, (t_elem,), a_prime)
        x = random_element(rng, spec)
        assert evaluate(lit, x, (t_elem,)) == evaluate(new, x, bank)


def test_reduce_k_prime_rejects_bad_hint():
    g = parse_spec("lex(Gp(2), Gp(2))")
    t_elem = parse_element(g, "(b0 | 0)")  # not 2-divisible above cut 2
    lit = cong(2, 4, ConvexCut(2), Term.of({0: 1}))
    with pytest.raises(NotReducibleError):
        reduce_k_prime(lit, (t_elem,), parse_element(g, "(b0 | 0)"))


def test_unit_normalize_examples():
    t = Term.of({0: 1})
    out = unit_normalize(cong(3, 2, ConvexCut(1), t))
    assert out.k == 1 and out.term == t  # inverse of 3 mod 2 is 1
    out4 = unit_normalize(cong(3, 4, ConvexCut(1), t))
    assert out4.k == 1 and out4.term == Term.of({0: 3})  # 3*3 = 9 = 1 mod 4
    lit = cong(1, 8, ConvexCut(1), t)
    assert unit_normalize(lit) is lit


def test_unit_normalize_equivalence_random():
    rng = random.Random(13)
    for _ in range(150):
        spec = random_spec(rng)
        p = rng.choice((2, 3, 5))
        e = rng.randint(1, 3)
        k = rng.choice([k for k in range(-7, 8) if k and k % p])
        params = tuple(random_element(rng, spec) for _ in range(2))
        lit = cong(k, p**e, ConvexCut(rng.randint(0, spec.K)), Term.of({0: rng.randint(-3, 3), 1: 1}))
        out = unit_normalize(lit)
        assert out.k == 1
        x = random_element(rng, spec)
        assert evaluate(lit, x, params) == evaluate(out, x, params)


def test_normalize_full_pipeline_example():
    # 5x = t mod 8G rewrites to x = 5t (5*5 = 25 = 1 mod 8)
    g = parse_spec("lex(Gp(2))")
    params = (parse_element(g, "b1"),)
    lit = cong(5, 8, ConvexCut(1), Term.of({0: 1}))
    res = normalize_type_I(lit, params, g)
    assert len(res.literals) == 1
    out = res.literals[0]
    assert out.k == 1 and out.m == 8 and out.term == Term.of({0: 5})


def test_normalize_identity_on_normal_form():
    g = parse_spec("lex(Gp(2))")
    lit = cong(1, 8, ConvexCut(1), Term.of({0: 1}))
    res = normalize_type_I(lit, (parse_element(g, "b1"),), g)
    assert res.literals == (lit,) and not res.steps


def test_normalize_mixed_modulus_with_derived_hints():
    g = parse_spec("lex(Q, Gp(2))")
    u = parse_element(g, "(0 | b1)")
    t_elem = scale(6, u)
    lit = cong(6, 12, ConvexCut(2), Term.of({0: 1}))
    res = normalize_type_I(lit, (t_elem,), g)
    assert all(l.k == 1 for l in res.literals)
    rng = random.Random(17)
    for _ in range(40):
        x = random_element(rng, g)
        assert evaluate(lit, x, (t_elem,)) == all(
            evaluate(l, x, res.params) for l in res.literals
        )


def test_normalize_detects_unsatisfiable_congruence():
    g = parse_spec("lex(Gp(2), Gp(2))")
    t_elem = parse_element(g, "(b0 | 0)")
    lit = cong(2, 4, ConvexCut(2), Term.of({0: 1}))
    with pytest.raises(NotReducibleError):
        normalize_type_I(lit, (t_elem,), g)


def test_derive_reduction_hint_matches_supplied():
    g = parse_spec("lex(Q, Gp(2))")
    a_prime = parse_element(g, "(0 | b2)")
    t_elem = scale(2, a_prime)
    lit = cong(2, 4, ConvexCut(2), Term.of({0: 1}))
    derived = derive_reduction_hint(lit, (t_elem,), g)
    assert derived == a_prime
    # cut below K: coordinates at or past the cut, odd or not, come back zero
    g = parse_spec("lex(Gp(2), Gp(2), Z)")
    t_elem = parse_element(g, "(2*b1 | 3*b0 | 3)")
    lit = cong(2, 4, ConvexCut(1), Term.of({0: 1}))
    derived = derive_reduction_hint(lit, (t_elem,), g)
    assert derived == parse_element(g, "(b1 | 0 | 0)")
    reduce_k_prime(lit, (t_elem,), derived)  # t - 2*a' lies in the cut subgroup


def test_conjoin_reindexes_parameters():
    g = parse_spec("lex(Q, Gp(2))")
    a = Conjunction(g, (cong(1, 2, ConvexCut(2), Term.of({0: 1})),), (A0,))
    b = Conjunction(g, (ord_lit(1, "<", Term.of({0: 1})),), (parse_element(g, "(5 | 0)"),))
    both = conjoin(a, b)
    assert len(both.params) == 2
    x = parse_element(g, "(0 | b0 + 2*b2)")
    assert evaluate_conj(both, x)


def test_conjoin_many_matches_nested_binary_calls():
    g = parse_spec("lex(Q, Gp(2))")
    parts = [
        Conjunction(g, (cong(1, 2, ConvexCut(2), Term.of({0: 1})),), (A0,)),
        Conjunction(
            g,
            (ord_lit(1, "<", Term.of({1: 1})), neq(1, Term.of({0: 2}))),
            (parse_element(g, "(5 | 0)"), parse_element(g, "(1 | b1)")),
        ),
        Conjunction(
            g, (ord_lit(1, ">", Term.of({0: 1})),), (parse_element(g, "(-3 | b2)"),)
        ),
    ]
    many = conjoin(*parts)
    nested = conjoin(conjoin(parts[0], parts[1]), parts[2])
    assert many.literals == nested.literals
    assert many.params == nested.params
    assert many.term_values == nested.term_values
    # the merged values equal those computed from scratch
    fresh = Conjunction(g, many.literals, many.params)
    assert many.term_values == fresh.term_values
    assert conjoin(parts[0]) == parts[0]
    other = Conjunction(parse_spec("lex(Q)"), (), ())
    with pytest.raises(PreconditionError):
        conjoin(parts[0], parts[1], other)


def test_conjoin_shifts_each_part_by_its_offset():
    # b sits at offset 2 in conjoin(a, b) and again in conjoin(a, b, b), where
    # it also sits at 3; a sits at 1 in conjoin(b, a).  The literals must be
    # those of a fresh shift whether or not the part has been merged before,
    # and the parts themselves stay as they were
    g = parse_spec("lex(Q, Gp(2))")
    a = Conjunction(
        g,
        (cong(1, 2, ConvexCut(2), Term.of({0: 1})), neq(1, Term.of({0: 1, 1: -2}))),
        (A0, parse_element(g, "(1 | b1)")),
    )
    b = Conjunction(g, (ord_lit(1, "<", Term.of({0: 3})),), (parse_element(g, "(5 | 0)"),))
    before = {id(c): [(l, l.term.coeffs) for l in c.literals] for c in (a, b)}
    for _ in range(2):
        for parts in ((a, b), (b, a), (a, b, b)):
            got = conjoin(*parts)
            expected, offset = [], 0
            for part in parts:
                expected += [
                    replace(l, term=Term(tuple((i + offset, c) for i, c in l.term.coeffs)))
                    for l in part.literals
                ]
                offset += len(part.params)
            assert got.literals == tuple(expected)
            assert got.params == sum((part.params for part in parts), ())
            assert got.term_values == Conjunction(g, got.literals, got.params).term_values
    for c in (a, b):
        assert [(l, l.term.coeffs) for l in c.literals] == before[id(c)]
        assert c == Conjunction(g, c.literals, c.params)


def test_conjoin_matches_a_checked_conjunction_on_pattern_paths():
    # over random paths of generated patterns, conjoin must equal the
    # conjunction built from the shifted literals and the appended banks
    rng = random.Random(17)
    patterns = [
        gen_chain_pattern(2, 3, 2).pattern,
        gen_chain_pattern(3, 2, 3).pattern,
        gen_optimal_pattern([2], [2], 3).pattern,
        gen_optimal_pattern([2, 3], [1, 1], 3).pattern,
    ]
    for pattern in patterns:
        g = pattern.group
        for _ in range(20):
            rows = [r for r in pattern.rows if rng.random() < 0.8] or pattern.rows[:1]
            parts = [Conjunction(g, r.template, rng.choice(r.columns)) for r in rows]
            got = conjoin(*parts)
            literals, params = [], ()
            for part in parts:
                for l in part.literals:
                    coeffs = tuple((i + len(params), c) for i, c in l.term.coeffs)
                    literals.append(replace(l, term=Term(coeffs)))
                params += part.params
            want = Conjunction(g, tuple(literals), params)
            assert got.group == want.group
            assert got.literals == want.literals
            assert got.params == want.params
            assert got.term_values == want.term_values
    with pytest.raises(PreconditionError):
        conjoin(parts[0], Conjunction(parse_spec("lex(Q)"), (), ()))


def test_conjunction_validates_parameter_bank():
    g = parse_spec("lex(Q, Gp(2))")
    with pytest.raises(Exception):
        Conjunction(g, (cong(1, 2, ConvexCut(1), Term.of({3: 1})),), (A0,))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, -1, 2, -2, 3]))
def test_literal_truth_is_translation_invariant(seed, k):
    # oracle_search relies on this: each literal holds at x + u exactly
    # when it holds at x against the shifted term value t - k*u
    rng = random.Random(seed)
    blocks = list(random_spec(rng, max_blocks=3).blocks)
    blocks.insert(rng.randint(0, len(blocks)), PSPAN(rng.choice(PRIMES)))
    spec = GroupSpec(tuple(blocks))
    x, u = random_element(rng, spec), random_element(rng, spec)
    # a2 is k*(x + u) itself, so equalities and congruences also hold
    params = (
        random_element(rng, spec), random_element(rng, spec), scale(k, add(x, u))
    )

    def term():
        return Term.of({2: 1}) if rng.random() < 0.4 else random_term(rng, 3)

    def cut():
        return ConvexCut(rng.randint(0, spec.K))

    m = rng.choice([1, 2, 3, 4, 6, 9])
    lits = (
        cong(k, m, cut(), term()),
        ncong(k, m, cut(), term()),
        ord_lit(k, rng.choice(["<", "<=", "=", ">=", ">"]), term()),
        in_group(k, cut(), term()),
        neq(k, term()),
        not_in_group(k, cut(), term()),
    )
    conj = Conjunction(spec, lits, params)
    at_x = [
        _holds(lit, x, sub(t, scale(k, u)))
        for lit, t in zip(conj.literals, conj.term_values)
    ]
    for lit, holds in zip(lits, at_x):
        assert evaluate_conj(Conjunction(spec, (lit,), params), add(x, u)) == holds
    assert evaluate_conj(conj, add(x, u)) == all(at_x)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_normalization_preserves_meaning(seed):
    rng = random.Random(seed)
    spec = random_spec(rng)
    u = random_element(rng, spec)
    k = rng.choice([1, 2, 3, 4, 6, -2, 5, 9])
    m = rng.choice([1, 2, 3, 4, 6, 8, 12, 18])
    t_elem = scale(abs(k), u)
    lit = cong(k, m, ConvexCut(rng.randint(0, spec.K)), Term.of({0: 1}))
    res = normalize_type_I(lit, (t_elem,), spec)
    assert all(l.k == 1 for l in res.literals)
    x = random_element(rng, spec)
    assert evaluate(lit, x, (t_elem,)) == all(
        evaluate(l, x, res.params) for l in res.literals
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_constant_truth_agrees_with_holds(seed):
    # wherever _constant_truth gives a truth value, _holds gives the same one
    # at random x; the term values are drawn plain, as multiples of k or m,
    # and with zero coordinates below a cut, so both constants occur
    rng = random.Random(seed)
    blocks = list(random_spec(rng, max_blocks=2).blocks)
    blocks += [INT, RAT, PLOCAL(rng.choice(PRIMES)), PSPAN(rng.choice(PRIMES))]
    rng.shuffle(blocks)
    spec = GroupSpec(tuple(blocks))
    k = rng.choice([1, -1, 2, -2, 3, 4, 6, 12])
    m = rng.choice([1, 2, 3, 4, 6, 8, 9])
    s = rng.randint(0, spec.K)
    low = random_element(rng, spec)
    terms = (
        random_element(rng, spec),
        scale(k, random_element(rng, spec)),
        scale(m, random_element(rng, spec)),
        Element(spec, spec.zero().coords[:s] + low.coords[s:]),
    )
    none = Term()
    cut = ConvexCut(s)
    lits = (
        cong(k, m, cut, none),
        ncong(k, m, cut, none),
        ord_lit(k, rng.choice(["<", "<=", "=", ">=", ">"]), none),
        ord_lit(k, "=", none),
        in_group(k, cut, none),
        neq(k, none),
        not_in_group(k, cut, none),
    )
    xs = [random_element(rng, spec) for _ in range(20)]
    for t in terms:
        for lit in lits:
            truth = _constant_truth(lit, t)
            if truth is not None:
                assert all(_holds(lit, x, t) is truth for x in xs)
