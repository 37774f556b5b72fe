import random

from hypothesis import given, settings, strategies as st

from oag import (
    INT,
    PLOCAL,
    PSPAN,
    RAT,
    ConvexCut,
    Element,
    GroupSpec,
    add,
    analyze,
    collapse_sorts,
    dp_rank_bound,
    hsub,
    in_coset,
    parse_element,
    parse_spec,
    scale,
    singular_primes,
    sorts,
    strongly_dependent,
    unit_element,
)
from oag.groups import coset_key
from helpers import random_element, random_spec

G3 = parse_spec("lex(Q, Gp(2), Gp(2))")


def hsub_oracle(a, n):
    """Definition scan: the largest convex subgroup whose coset misses a."""
    failing = [s for s in range(a.spec.K + 1) if not in_coset(a, ConvexCut(s), n)]
    return ConvexCut(min(failing)) if failing else ConvexCut(a.spec.K)


def test_in_coset_whole_group():
    rng = random.Random(3)
    for _ in range(20):
        spec = random_spec(rng)
        x = random_element(rng, spec)
        assert in_coset(x, ConvexCut(0), rng.randint(1, 10))


def test_in_coset_zero_subgroup_is_divisibility():
    from oag import is_divisible

    rng = random.Random(5)
    for _ in range(40):
        spec = random_spec(rng)
        x = random_element(rng, spec)
        n = rng.randint(1, 10)
        assert in_coset(x, ConvexCut(spec.K), n) == is_divisible(x, n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32), st.integers(1, 36))
def test_in_coset_is_an_empty_coset_key(seed, m):
    # in_coset tests each numerator against the block modulus where
    # coset_key builds the residues; they agree at every cut, on all four
    # block kinds, with negative and fractional coefficients, on x, on the
    # multiple m*x (in mG) and on m*x plus the coordinates of y from a cut on
    rng = random.Random(seed)
    kinds = [INT, RAT, PLOCAL(rng.choice((2, 3, 5))), PSPAN(rng.choice((2, 3, 5)))]
    blocks = kinds + list(random_spec(rng, max_blocks=2).blocks)
    rng.shuffle(blocks)
    spec = GroupSpec(tuple(blocks))
    x, y = random_element(rng, spec), random_element(rng, spec)
    s = rng.randint(0, spec.K)
    tail = Element(spec, spec.zero().coords[:s] + y.coords[s:])
    for v in (x, scale(m, x), add(scale(m, x), tail)):
        for cut in range(spec.K + 1):
            assert in_coset(v, ConvexCut(cut), m) == (coset_key(v, cut, m) == ())


def test_in_coset_example():
    x = parse_element(G3, "(0 | b0 | 0)")
    assert not in_coset(x, ConvexCut(2), 2)


def test_in_coset_is_congruence():
    rng = random.Random(7)
    for _ in range(60):
        spec = random_spec(rng)
        cut = ConvexCut(rng.randint(0, spec.K))
        m = rng.randint(1, 9)
        x, y = random_element(rng, spec), random_element(rng, spec)
        if in_coset(x, cut, m) and in_coset(y, cut, m):
            assert in_coset(add(x, y), cut, m)
            assert in_coset(scale(-1, x), cut, m)


def test_hsub_divisible_gives_zero_subgroup():
    rng = random.Random(11)
    for _ in range(30):
        spec = random_spec(rng)
        n = rng.randint(1, 8)
        a = scale(n, random_element(rng, spec))
        assert hsub(a, n) == ConvexCut(spec.K)


def test_hsub_examples():
    assert hsub(parse_element(G3, "(0 | b0 | 0)"), 2) == ConvexCut(2)
    assert hsub(parse_element(G3, "(0 | 0 | b0)"), 2) == ConvexCut(3)


def test_hsub_matches_oracle():
    rng = random.Random(13)
    for _ in range(300):
        spec = random_spec(rng)
        a = random_element(rng, spec)
        n = rng.randint(1, 12)
        assert hsub(a, n) == hsub_oracle(a, n)


def test_hsub_invariant_mod_p_shifts():
    rng = random.Random(17)
    for _ in range(100):
        spec = random_spec(rng)
        p = rng.choice((2, 3, 5))
        a, g = random_element(rng, spec), random_element(rng, spec)
        assert hsub(add(a, scale(p, g)), p) == hsub(a, p)


def test_sorts_divisible_group():
    assert sorts(parse_spec("lex(Q)"), 2) == [ConvexCut(1)]


def test_sorts_examples():
    assert sorts(G3, 2) == [ConvexCut(3), ConvexCut(2)]
    assert sorts(parse_spec("lex(Z, Z)"), 2) == [ConvexCut(2), ConvexCut(1)]


def test_sorts_matches_sampled_hsub_values():
    rng = random.Random(23)
    for _ in range(40):
        spec = random_spec(rng)
        n = rng.randint(1, 12)
        expected = set(sorts(spec, n))
        seen = {hsub(spec.zero(), n)}
        for i in range(spec.K):
            seen.add(hsub(unit_element(spec, i), n))
            seen.add(hsub(scale(n, unit_element(spec, i)), n))
        for _ in range(30):
            seen.add(hsub(random_element(rng, spec), n))
        assert seen <= expected
        # unit vectors already realize every sort
        assert expected <= seen


def test_sorts_union_over_prime_divisors():
    rng = random.Random(29)
    for _ in range(40):
        spec = random_spec(rng)
        n = rng.randint(1, 18)
        from oag.numutil import factorize

        union = {ConvexCut(spec.K)}
        for p in factorize(n):
            union.update(sorts(spec, p))
        assert set(sorts(spec, n)) == union


def test_collapse_examples():
    g = parse_spec("lex(Q, Gp(2), Gp(3))")
    assert collapse_sorts(g, 2) == [(ConvexCut(3), ConvexCut(2))]
    assert collapse_sorts(G3, 2) == [(ConvexCut(3),), (ConvexCut(2),)]


def test_collapsed_cuts_have_equal_cosets():
    # merged cuts must give the same coset relation at every power of p
    rng = random.Random(41)
    for _ in range(40):
        spec = random_spec(rng)
        p = rng.choice((2, 3, 5))
        for cls in collapse_sorts(spec, p):
            for c1, c2 in zip(cls, cls[1:]):
                for _ in range(10):
                    x = random_element(rng, spec)
                    for exp in (1, 2, 3):
                        assert in_coset(x, c1, p**exp) == in_coset(x, c2, p**exp)


def test_collapse_contains_zero_cut_once():
    rng = random.Random(31)
    for _ in range(40):
        spec = random_spec(rng)
        p = rng.choice((2, 3, 5))
        classes = collapse_sorts(spec, p)
        holding = [cls for cls in classes if ConvexCut(spec.K) in cls]
        assert len(holding) == 1


def test_collapse_never_merges_across_blocking_block():
    rng = random.Random(37)
    for _ in range(60):
        spec = random_spec(rng)
        p = rng.choice((2, 3, 5))
        for cls in collapse_sorts(spec, p):
            for a, b in zip(cls, cls[1:]):
                # a has the larger index (smaller subgroup)
                for blk in spec.blocks[b.s : a.s]:
                    assert blk.kind == "Q" or (
                        blk.kind in ("ZLOC", "GP") and blk.p != p
                    )


def test_singular_primes_examples():
    assert singular_primes(parse_spec("lex(Z, Q)")) == set()
    assert singular_primes(G3) == {2}
    assert singular_primes(parse_spec("lex(Q, Gp(2), Gp(3))")) == {2, 3}


def test_dp_rank_bound_examples():
    assert dp_rank_bound(parse_spec("lex(Z)")) == 1
    assert dp_rank_bound(G3) == 3
    assert dp_rank_bound(parse_spec("lex(Q, Gp(2), Gp(3))")) == 3
    assert strongly_dependent(G3)


def test_analyze_report_counts():
    rep = analyze(parse_spec("lex(Q, Gp(2), Gp(3))"))
    assert rep.singular == (2, 3)
    assert [s.collapsed_count for s in rep.sorts] == [1, 1]
    assert [s.raw_count for s in rep.sorts] == [2, 1]
    assert rep.dp_rank_bound == 3


def test_sorts_composite_modulus():
    g = parse_spec("lex(Q, Gp(2), Gp(3))")
    # sorts of 6 are the union of the sorts of 2 and 3
    assert sorts(g, 6) == [ConvexCut(3), ConvexCut(2)]
