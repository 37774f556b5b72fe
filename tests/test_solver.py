import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oag import (
    ConvexCut,
    Conjunction,
    Element,
    InpPattern,
    PatternRow,
    PreconditionError,
    SolveResult,
    SolveStatus,
    Term,
    check_k_inconsistent,
    compare,
    cong,
    conjoin,
    divide_exact,
    evaluate_conj,
    gen_chain_pattern,
    gen_optimal_pattern,
    is_divisible,
    neq,
    oracle_search,
    ord_lit,
    parse_element,
    parse_formula,
    parse_params,
    parse_spec,
    scale,
    solve,
    unit_element,
    verify,
)
from oag import solver
from oag.formulas import LitKind
from oag.groups import _quotient, block_modulus, span_coefficient
from oag.numutil import crt_pair, factorize, residue_mod
from helpers import (
    assert_canonical,
    random_block_value,
    order_gap_conjunctions,
    random_conjunctions,
    random_cong_literal,
    random_element,
    random_spec,
    random_term,
)

G = parse_spec("lex(Q, Gp(2))")


def conj_of(spec, formula, params):
    return Conjunction(spec, parse_formula(formula), parse_params(spec, params))


def test_single_literal_sat_witnessed_by_parameter():
    c = conj_of(G, "cong[2, cut2](1x, 1*a0)", "(0 | b0)")
    res = solve(c)
    assert res.status is SolveStatus.SAT
    assert res.witness == parse_element(G, "(0 | b0)")


_PAIR = "cong[{0}, cut{2}](1x, 1*a0) & cong[{1}, cut{2}](1x, 1*a1)"


@pytest.mark.parametrize(
    "spec, formula, params, witness, conflict",
    [
        # Gp(p): one slot per basis symbol; c0 - c1 = (0 | b0 | 0) is not in
        # G_cut2 + 2G
        pytest.param(
            "lex(Q, Gp(2), Gp(2))", _PAIR.format(2, 2, 2),
            "(0 | b0 | 0) ; (0 | 0 | 0)", None,
            dict(coordinate=1, basis=0, modulus=2, excluded=range(2)),
            id="gp-basis-slot",
        ),
        # Z: classes at distinct primes combine by CRT
        pytest.param(
            "lex(Z)", _PAIR.format(2, 3, 1), "(1) ; (2)", "(5)", None,
            id="z-crt",
        ),
        # Z: a class mod 4 against a class mod 2 of the same prime
        pytest.param(
            "lex(Z)", _PAIR.format(4, 2, 1), "(1) ; (0)", None,
            dict(coordinate=0, basis=None, modulus=4, excluded=range(4)),
            id="z-prime-power",
        ),
        pytest.param(
            "lex(Zloc(2))", _PAIR.format(2, 2, 1), "(1) ; (0)", None,
            dict(coordinate=0, basis=None, modulus=2, excluded=range(2)),
            id="zloc-own-prime",
        ),
        # Zloc(p) at a foreign prime and Q are divisible: vacuous slots, so
        # the descent point is zero
        pytest.param(
            "lex(Zloc(3))", _PAIR.format(2, 2, 1), "(1) ; (0)", "(0)", None,
            id="zloc-foreign-prime",
        ),
        pytest.param(
            "lex(Q)", _PAIR.format(2, 2, 1), "(1) ; (0)", "(0)", None,
            id="q",
        ),
    ],
)
def test_incongruent_pair_unsat_with_certificate(
    spec, formula, params, witness, conflict
):
    g = parse_spec(spec)
    c = conj_of(g, formula, params)
    res = solve(c)
    if witness is not None:
        assert res.status is SolveStatus.SAT
        assert res.witness == parse_element(g, witness)
        assert evaluate_conj(c, res.witness)
        return
    assert res.status is SolveStatus.UNSAT
    (entry,) = res.certificate
    assert entry.kind == "congruence-conflict"
    assert entry.literals == (0, 1)
    for name, value in conflict.items():
        assert getattr(entry, name) == value
    assert oracle_search(c, 3) is None


@pytest.mark.parametrize(
    "spec, k, params, modulus, status",
    [
        ("lex(Z)", 1, "(3) ; (0)", 2, SolveStatus.UNSAT),
        ("lex(Z)", -1, "(4) ; (4)", 8, SolveStatus.SAT),
        ("lex(Q)", 1, "(1/3) ; (0)", 2, SolveStatus.SAT),
        ("lex(Zloc(2))", 1, "(3) ; (0)", 2, SolveStatus.UNSAT),
        ("lex(Zloc(3))", 1, "(3) ; (0)", 2, SolveStatus.SAT),
        ("lex(Gp(2))", 1, "(b1) ; (0)", 2, SolveStatus.UNSAT),
        ("lex(Gp(3))", 1, "(b1) ; (0)", 2, SolveStatus.SAT),
        ("lex(Gp(2))", -2, "(2*b1) ; (b1)", 2, SolveStatus.SAT),
    ],
)
def test_coordinate_pin_against_congruence(spec, k, params, modulus, status):
    g = parse_spec(spec)
    c = conj_of(
        g,
        f"ing[cut1]({k}x, 1*a0) & cong[{modulus}, cut1](1x, 1*a1)",
        params,
    )
    res = solve(c)
    assert res.status is status
    if status is SolveStatus.SAT:
        assert evaluate_conj(c, res.witness)
    else:
        (entry,) = res.certificate
        assert entry.kind == "pin-congruence-conflict"
        assert entry.coordinate == 0 and entry.modulus == modulus
        assert entry.literals == (0, 1)


def test_solver_witness_always_evaluates():
    rng = random.Random(3)
    for _ in range(120):
        spec = random_spec(rng)
        params = tuple(random_element(rng, spec) for _ in range(2))
        lits = tuple(
            random_cong_literal(rng, spec, 2) for _ in range(rng.randint(1, 3))
        )
        c = Conjunction(spec, lits, params)
        res = solve(c)
        # pure congruence conjunctions are always decided
        assert res.status is not SolveStatus.UNKNOWN
        if res.status is SolveStatus.SAT:
            assert evaluate_conj(c, res.witness)
        else:
            assert res.certificate
            assert oracle_search(c, 2, max_support=2) is None


def test_order_interval_sat_and_unsat():
    sat = conj_of(G, "1x > 1*a0 & 1x < 1*a1", "(0 | 0) ; (1 | 0)")
    res = solve(sat)
    assert res.status is SolveStatus.SAT
    assert res.witness == parse_element(G, "(1/2 | 0)")

    unsat = conj_of(G, "1x < 1*a0 & 1x > 1*a1", "(0 | 0) ; (1 | 0)")
    res2 = solve(unsat)
    assert res2.status is SolveStatus.UNSAT
    assert res2.certificate[0].kind == "order-bounds-empty"


def test_order_equalities_pin_the_variable():
    c = conj_of(G, "2x = 1*a0", "(3 | 2*b1)")
    res = solve(c)
    assert res.status is SolveStatus.SAT
    assert res.witness == parse_element(G, "(3/2 | b1)")

    c2 = conj_of(parse_spec("lex(Z)"), "2x = 1*a0", "(3)")
    res2 = solve(c2)
    assert res2.status is SolveStatus.UNSAT
    assert res2.certificate[0].kind == "equality-indivisible"


def test_order_equal_bounds_nonstrict():
    c = conj_of(G, "1x >= 1*a0 & 1x <= 1*a0", "(2 | b1)")
    res = solve(c)
    assert res.status is SolveStatus.SAT
    assert res.witness == parse_element(G, "(2 | b1)")


def test_congruence_and_interval_interaction():
    # x = a0 mod 4G with a rational window
    c = conj_of(
        G,
        "cong[4, cut2](1x, 1*a0) & 1x > 1*a1 & 1x < 1*a2",
        "(0 | b0) ; (3 | 0) ; (4 | 0)",
    )
    res = solve(c)
    assert res.status is SolveStatus.SAT
    x = res.witness
    assert evaluate_conj(c, x)
    assert Fraction(7, 2) == x.coords[0]


def test_subgroup_coset_literal_pins_coordinates():
    c = conj_of(G, "ing[cut1](1x, 2*a0)", "(3/2 | b1)")
    res = solve(c)
    assert res.status is SolveStatus.SAT
    assert res.witness.coords[0] == Fraction(3)

    unsat = conj_of(parse_spec("lex(Z, Gp(2))"), "ing[cut1](2x, 1*a0)", "(3 | 0)")
    res2 = solve(unsat)
    assert res2.status is SolveStatus.UNSAT
    assert res2.certificate[0].kind == "coset-pin-indivisible"


def test_disequality_enumeration():
    c = conj_of(G, "!1x = 1*a0", "(0 | b0)")
    res = solve(c)
    assert res.status is SolveStatus.SAT
    assert evaluate_conj(c, res.witness)

    c2 = conj_of(G, "!cong[2, cut2](1x, 1*a0)", "(0 | b0)")
    res2 = solve(c2)
    assert res2.status is SolveStatus.SAT


def test_escape_points_step_the_free_coordinates():
    # the congruence pins the residue 0 mod 2, so the descent point is 0,
    # which fails the first disequality; the T = 2 live negated literals
    # give the escape points n = 1, 2, 3, which add n slot moduli to the
    # free coordinate, and each disequality rules out at most one of them
    g = parse_spec("lex(Z)")
    c = conj_of(g, "!1x = 0 & !1x = 1*a0 & cong[2, cut1](1x, 0)", "(2)")
    prob = solver._normalize(solver.Part(c))
    assert prob.negs == [0, 1]
    slots = solver._solve_slots(prob)
    got = list(solver._candidates(prob, slots, solver._descend(prob, slots)))
    assert got == [parse_element(g, v) for v in ("(0)", "(2)", "(4)", "(6)")]
    res = solve(c)
    assert res.status is SolveStatus.SAT
    assert res.witness == parse_element(g, "(4)")


def test_escape_point_takes_a_fresh_basis_symbol():
    # coordinate 0 is pinned to 3; the descent point (3 | 0) fails the
    # second disequality, and the first escape point puts one slot modulus
    # on b3, the first basis symbol above the term supports
    g = parse_spec("lex(Z, Gp(2))")
    c = conj_of(
        g, "ing[cut1](1x, 1*a0) & !1x = 1*a0 & !1x = 1*a1", "(3 | b2) ; (3 | 0)"
    )
    res = solve(c)
    assert res.status is SolveStatus.SAT
    assert res.witness == parse_element(g, "(3 | b3)")


@pytest.mark.parametrize(
    "spec, param",
    [("lex(Z)", "(1)"), ("lex(Q, Gp(2))", "(0 | b1)"), ("lex(Zloc(2), Q)", "(1 | 0)")],
)
def test_equal_bounds_on_an_indivisible_point(spec, param):
    # 2x >= a0 and 2x <= a0 force x = a0/2, which is not in the group
    c = conj_of(parse_spec(spec), "2x >= 1*a0 & 2x <= 1*a0", param)
    res = solve(c)
    assert res.status is SolveStatus.UNSAT
    (entry,) = res.certificate
    assert entry.kind == "order-pin-indivisible"
    assert entry.literals == (0, 1)
    assert oracle_search(c, 2) is None


def test_contradictory_disequality_is_unknown_not_unsat():
    c = conj_of(G, "cong[2, cut2](1x, 1*a0) & !cong[2, cut2](1x, 1*a0)", "(0 | b0)")
    res = solve(c)
    assert res.status is SolveStatus.UNKNOWN
    assert res.reason


def test_monotonicity_adding_literal_never_unsats_to_sat():
    rng = random.Random(7)
    for _ in range(80):
        spec = random_spec(rng)
        params = tuple(random_element(rng, spec) for _ in range(2))
        lits = [random_cong_literal(rng, spec, 2) for _ in range(2)]
        base = Conjunction(spec, (lits[0],), params)
        extended = Conjunction(spec, tuple(lits), params)
        if solve(base).status is SolveStatus.UNSAT:
            assert solve(extended).status is not SolveStatus.SAT


def test_determinism():
    c = conj_of(
        G,
        "cong[4, cut2](1x, 1*a0) & 1x > 1*a1 & 1x < 1*a2",
        "(0 | b0) ; (3 | 0) ; (4 | 0)",
    )
    r1, r2 = solve(c), solve(c)
    assert r1 == r2


def test_oracle_finds_parameter_witness():
    c = conj_of(G, "cong[2, cut2](1x, 1*a0)", "(0 | b0)")
    found = oracle_search(c, 1)
    assert found is not None
    assert evaluate_conj(c, found)


def test_oracle_soundness_random():
    rng = random.Random(11)
    for _ in range(30):
        spec = random_spec(rng)
        params = tuple(random_element(rng, spec) for _ in range(2))
        lits = tuple(random_cong_literal(rng, spec, 2) for _ in range(2))
        c = Conjunction(spec, lits, params)
        found = oracle_search(c, 2, max_support=2, candidate_budget=3000)
        if found is not None:
            assert evaluate_conj(c, found)


@pytest.mark.parametrize("radius", [0, -3])
def test_oracle_rejects_radius_below_one(radius):
    c = conj_of(G, "cong[2, cut2](1x, 1*a0)", "(0 | b0)")
    with pytest.raises(ValueError):
        oracle_search(c, radius)


@pytest.mark.parametrize(
    "limits", [{"max_support": 0}, {"max_support": -1}, {"candidate_budget": 0}]
)
def test_oracle_rejects_an_empty_search(limits):
    # a search that tries nothing would report no counterexample, and so
    # corroborate every UNSAT verdict
    c = conj_of(G, "cong[2, cut2](1x, 1*a0)", "(0 | b0)")
    with pytest.raises(ValueError):
        oracle_search(c, 1, **limits)


@pytest.mark.parametrize("bad", [2.5, 2.0, Fraction(2)])
@pytest.mark.parametrize("name", ["radius", "max_support", "candidate_budget"])
def test_oracle_rejects_a_non_integer_limit(name, bad):
    # a budget of 2.5 ran as if it were 3
    c = conj_of(G, "cong[2, cut2](1x, 1*a0)", "(0 | b0)")
    with pytest.raises(TypeError):
        oracle_search(c, **{"radius": 1, name: bad})


def test_check_k_inconsistent_contradictory_pair():
    g = parse_spec("lex(Gp(2))")
    cols = [
        Conjunction(
            g,
            (cong(1, 2, ConvexCut(1), Term.of({0: 1})),),
            (unit_element(g, 0, basis=j),),
        )
        for j in range(3)
    ]
    assert check_k_inconsistent(cols, 2) is True
    assert check_k_inconsistent([cols[0], cols[0]], 2) is False
    assert check_k_inconsistent(cols, 5) is True  # vacuous
    with pytest.raises(ValueError):
        check_k_inconsistent(cols, 0)


def test_check_k_inconsistent_propagates_an_unknown_subset(monkeypatch):
    import oag.patterns

    g = parse_spec("lex(Gp(2))")
    cols = [conj_of(g, "cong[2, cut1](1x, 1*a0)", f"(b{j})") for j in range(3)]
    real_solve = oag.patterns.solve
    unknown = SolveResult(SolveStatus.UNKNOWN, reason="stubbed")
    undecided = [cols[0], cols[2]]

    def solve_but_one(*parts):
        # the subset of columns 0 and 2 is left undecided
        if [p.conj for p in parts] == undecided:
            return unknown
        return real_solve(*parts)

    monkeypatch.setattr(oag.patterns, "solve", solve_but_one)
    assert check_k_inconsistent(cols, 2) is None
    # a SAT subset outweighs the unknown one
    assert check_k_inconsistent(cols + [cols[0]], 2) is False


def test_check_k_inconsistent_matches_the_row_verdicts_of_verify():
    repeated = InpPattern(
        G, (PatternRow((ord_lit(1, ">", Term.of({0: 1})),), ((G.zero(),),) * 2, 2),)
    )
    patterns = [
        gen_optimal_pattern([2, 3], [2, 1], 3).pattern,
        gen_chain_pattern(2, 3, 2).pattern,
        repeated,
    ]
    verdicts = []
    for pattern in patterns:
        report = verify(pattern, 1)
        for i, row in enumerate(pattern.rows):
            cols = [pattern.instantiate(i, j) for j in range(len(row.columns))]
            got = check_k_inconsistent(cols, row.k)
            assert report.rows[i].verdict == {True: "true", False: "false"}[got]
            verdicts.append(got)
    assert set(verdicts) == {True, False}


def test_solve_via_normalization_of_composite_coefficients():
    g = parse_spec("lex(Gp(2))")
    a_prime = unit_element(g, 0, basis=1)
    t_elem = scale(2, a_prime)
    c = Conjunction(g, (cong(2, 4, ConvexCut(1), Term.of({0: 1})),), (t_elem,))
    res = solve(c)
    assert res.status is SolveStatus.SAT
    assert evaluate_conj(c, res.witness)


def test_solve_unsatisfiable_composite_coefficient():
    # 2x = b0 mod 4G: the term is not 2-divisible, so no x works
    g = parse_spec("lex(Gp(2))")
    c = Conjunction(
        g, (cong(2, 4, ConvexCut(1), Term.of({0: 1})),), (unit_element(g, 0),)
    )
    res = solve(c)
    assert res.status is SolveStatus.UNSAT
    assert res.certificate[0].kind == "congruence-term-not-reducible"
    assert oracle_search(c, 3) is None


def _reference_oracle(conj, radius, max_support=3, candidate_budget=100000):
    """The oracle search re-adding every candidate from scratch: the
    reference the prefix-sum cache of oracle_search must reproduce."""
    group = conj.group
    gens = []

    def push(e):
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
            push(unit_element(group, i, basis=max(support, default=-1) + 1))
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


def _ord_neq_conjunctions(seed, count):
    """Seeded conjunctions of two order literals and an inequality, each
    with a coefficient of x other than 1."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        spec = random_spec(rng, max_blocks=3)
        params = tuple(random_element(rng, spec) for _ in range(rng.randint(2, 3)))
        k = rng.choice([2, -1, 3, -2])
        lits = (
            ord_lit(k, ">", random_term(rng, len(params))),
            ord_lit(k, "<", random_term(rng, len(params))),
            neq(rng.choice([2, -1, 3, -2]), random_term(rng, len(params))),
        )
        out.append(Conjunction(spec, lits, params))
    return out


def _witness_index(monkeypatch, conj, radius):
    """The number of candidates the reference search tries up to and
    including its witness."""
    calls = []

    def counting(c, x, _real=evaluate_conj):
        calls.append(x)
        return _real(c, x)

    monkeypatch.setitem(globals(), "evaluate_conj", counting)
    assert _reference_oracle(conj, radius) is not None
    monkeypatch.undo()
    return len(calls) - 1  # the first call tests zero


def test_oracle_matches_reference_search(monkeypatch):
    for corpus, budgets in (
        (random_conjunctions(23, 60), (150, 1000)),
        (_ord_neq_conjunctions(5, 40), (600,)),
    ):
        found = 0
        for conj in corpus:
            for budget in budgets:
                x = oracle_search(conj, 2, candidate_budget=budget)
                assert x == _reference_oracle(conj, 2, candidate_budget=budget)
            found += x is not None
        assert 0 < found < len(corpus)
    # every witness needs the last two (then three) parameters with odd
    # coefficients: support 2 (then 3), reached after the combos starting
    # with a0 (other prefixes) are tried.  Budgets that stop just short of
    # the witness, part-way through that support, find nothing.
    for spec, formula, params in (
        ("lex(Gp(2)^2)", "cong[2, cut2](1x, 1*a1 + 1*a2)",
         "(b1 | 0) ; (b0 | 0) ; (0 | b0)"),
        ("lex(Gp(2)^3)", "cong[2, cut3](1x, 1*a1 + 1*a2 + 1*a3)",
         "(b1 | 0 | 0) ; (b0 | 0 | 0) ; (0 | b0 | 0) ; (0 | 0 | b0)"),
    ):
        c = conj_of(parse_spec(spec), formula, params)
        n = _witness_index(monkeypatch, c, 2)
        for budget in (n - 5, n - 1, n, None):
            kw = {} if budget is None else {"candidate_budget": budget}
            x = oracle_search(c, 2, **kw)
            assert x == _reference_oracle(c, 2, **kw)
            assert (x is None) == (budget is not None and budget < n)


@pytest.mark.parametrize(
    "spec, formula, params, witness",
    [
        (
            "lex(Gp(2))",
            "cong[2, cut1](1x, 1*a0) & 1x > 1*a1",
            "(b1) ; (3*b0)",
            "(2*b0 + b1)",
        ),
        (
            "lex(Gp(3), Z)",
            "cong[3, cut1](1x, 1*a0) & 1x < 1*a1 & 1x > 1*a2",
            "(b1 + 2*b2 | 0) ; (2*b0 | 0) ; (b0 | 0)",
            "(-15/4*b0 + b1 + 2*b2 | 0)",
        ),
    ],
)
def test_span_placement_encloses_fixed_residues(spec, formula, params, witness):
    # the congruence fixes nonzero residues on irrational basis symbols of
    # the span coordinate 0, and the b0 placement must account for their
    # real value to land strictly between the order bounds
    g = parse_spec(spec)
    res = solve(conj_of(g, formula, params))
    assert res.status is SolveStatus.SAT
    assert res.witness == parse_element(g, witness)


def _every_slot_key(prob):
    """Every slot key, pinned coordinates skipped: on a span block one per
    basis of the term supports plus a fresh one."""
    group = prob.group
    terms = [t for part in prob.parts for t in part.conj.term_values]
    terms += [c.value for c in prob.congs]
    for i, block in enumerate(group.blocks):
        if i in prob.coord_pins:
            continue
        bases = [None]
        if block.kind == "GP":
            support = {b for t in terms for b, _ in t.coords[i]}
            bases = sorted(support) + [max(support, default=-1) + 1]
        for b in bases:
            yield i, b


def _every_slot_solved(prob):
    """Reference for solver._solve_slots: every slot, live or not, goes
    through _solve_slot, and the slots of a coordinate fold into its
    (modulus, residues), the nonzero residues of a span block as sorted
    (basis, residue) pairs; every basis of a coordinate has one modulus.
    Pinned coordinates are skipped without checking the pins."""
    blocks = prob.group.blocks
    slots = {}
    for i, b in _every_slot_key(prob):
        here = [
            c for c in prob.congs
            if c.alpha_s > i and (blocks[i].kind == "Z" or c.p == blocks[i].p)
        ]
        m, r = solver._solve_slot(i, b, here)
        if b is None:
            slots[i] = (m, r)
            continue
        m0, pairs = slots.setdefault(i, (m, ()))
        assert m0 == m, (i, b)
        slots[i] = (m, pairs + ((b, r),) if r else pairs)
    return slots


def _slots_or_verdict(fn, prob):
    try:
        return list(fn(prob).items())
    except solver._Decided as decided:
        return decided.result


def _every_coordinate_expanded(prob):
    """The live coordinates of phase 3, and on every other unpinned
    coordinate the modulus the solver reads there, with zero residues."""
    live = solver._solve_slots(prob)
    blocks = prob.group.blocks
    return {
        i: live.get(i) or (
            solver._solve_slot(i, None, solver._carriers(prob.group, prob.congs, i))[0],
            () if blocks[i].kind == "GP" else 0,
        )
        for i in dict.fromkeys(i for i, _ in _every_slot_key(prob))
    }


def _slot_value(c, i, b):
    v = c.value.coords[i]
    return v if b is None else span_coefficient(v, b)


def _chain_paths(p, depth, width, row_pairs):
    """The paths of chain(p, depth, width), and with row_pairs also every
    pair of columns of a row, as tuples of Part records shared by all of
    them, as verify passes them to solve."""
    pattern = gen_chain_pattern(p, depth, width).pattern
    inst = [
        [solver.Part(pattern.instantiate(i, j)) for j in range(width)]
        for i in range(depth)
    ]
    out = [
        tuple(inst[i][j] for i, j in enumerate(eta))
        for eta in itertools.product(range(width), repeat=depth)
    ]
    if row_pairs:
        out += [pair for row in inst for pair in itertools.combinations(row, 2)]
    return out


def _alone(conjs):
    return [(solver.Part(c),) for c in conjs]


# K <= 3 conjunctions of every literal kind; the K = 28 Gp(2) spans of the
# benchmark's chain with its 18 conflicting row pairs, and a chain of another
# prime; Z slots that two primes constrain, in the order-gap corpus.  Each
# item is the argument tuple of solve
_SLOT_CORPORA = {
    "11": lambda: _alone(random_conjunctions(11, 300)),
    "1009": lambda: _alone(random_conjunctions(1009, 300)),
    "chain-2-6-3": lambda: _chain_paths(2, 6, 3, row_pairs=True),
    "chain-3-4-3": lambda: _chain_paths(3, 4, 3, row_pairs=False),
    "order-gap-4242": lambda: _alone(order_gap_conjunctions(4242, 2000)),
}


@pytest.mark.parametrize("corpus", list(_SLOT_CORPORA))
def test_solve_slots_match_solving_every_slot(corpus):
    items = _SLOT_CORPORA[corpus]()
    compared = zero_slots = 0
    for parts in items:
        try:
            prob = solver._normalize(*parts)
        except solver._Decided:
            continue
        got = _slots_or_verdict(_every_coordinate_expanded, prob)
        if isinstance(got, SolveResult) and any(
            e.kind == "pin-congruence-conflict" for e in got.certificate
        ):
            continue  # the reference does not check coordinate pins
        assert got == _slots_or_verdict(_every_slot_solved, prob)
        compared += 1
        if isinstance(got, list):
            # phase 3 keeps exactly the coordinates where a congruence
            # carrying residues on the block has a nonzero value
            blocks = prob.group.blocks
            live = [
                (i, slot) for i, slot in got
                if any(
                    c.value.coords[i] for c in prob.congs
                    if c.alpha_s > i
                    and (blocks[i].kind == "Z" or c.p == blocks[i].p)
                )
            ]
            assert list(solver._solve_slots(prob).items()) == live
            # a slot no congruence value reaches still takes its modulus
            moduli = {i: m for i, (m, _) in got}
            zero_slots += sum(
                1 for i, b in _every_slot_key(prob)
                if moduli[i] > 1 and not any(
                    _slot_value(c, i, b) for c in prob.congs if c.alpha_s > i
                )
            )
    assert compared > min(200, len(items) - 1) and zero_slots > 0


def _solve_slot_reference(coord, basis, congs):
    """solver._solve_slot by the per-target rule: every target, zero or not,
    is reduced modulo its own prime power and compared with the residue of
    the first target of the top exponent."""
    by_prime = {}
    for c in congs:
        v = c.value.coords[coord]
        by_prime.setdefault(c.p, []).append(
            (c.e, v if basis is None else span_coefficient(v, basis), c.src)
        )
    m, r = 1, 0
    for p in sorted(by_prime):
        targets = by_prime[p]
        e_max = max(e for e, _, _ in targets)
        mp = p**e_max
        rp = next(v and residue_mod(v, mp) for e, v, _ in targets if e == e_max)
        if any((rp - (v and residue_mod(v, p**e))) % p**e for e, v, _ in targets):
            return solver.CertEntry(
                "congruence-conflict",
                coordinate=coord,
                basis=basis,
                modulus=mp,
                excluded=range(mp) if mp <= solver._CERT_ENUM_CAP else None,
                literals=tuple(sorted({src for _, _, src in targets})),
                note="no residue satisfies all congruences on this slot",
            )
        r = crt_pair(r, m, rp, mp)
        m *= mp
    return m, r


def _normalized(*parts):
    """solver._normalize's record without the literals, whose terms index
    their own part's bank, and the Part records, or its verdict."""
    try:
        prob = solver._normalize(*parts)
    except solver._Decided as decided:
        return decided.result
    skip = ("literals", "parts")
    return [getattr(prob, f.name) for f in dataclasses.fields(prob) if f.name not in skip]


# parts of one or two literals over specs with Z, Zloc and Gp coordinates,
# for the cases where the merge of phase 3 solves a coordinate in full:
# congruences of small values meet on shared coordinates, with primes 2 and
# 3 on the Z coordinates, two congruences of one part may conflict, and
# subgroup literals pin coordinates
_MERGE_SPECS = ("lex(Z, Gp(2))", "lex(Z, Zloc(3), Z)", "lex(Gp(3), Z, Zloc(2))")


def _merge_pool(rng, spec):
    g = parse_spec(spec)

    def param():
        return "(" + " | ".join(
            rng.choice(["0", "b0", "2*b0", "-b0", "b1", "b0 + 3*b1"])
            if b.kind == "GP"
            else rng.choice(["0", "0", "1", "2", "-3", "4", "6"])
            for b in g.blocks
        ) + ")"

    def cong(n):
        m = rng.choice([2, 3, 4, 6, 8, 9, 12])
        k = rng.choice([1, 1, 2, -1])
        return f"cong[{m}, cut{rng.randint(1, g.K)}]({k}x, 1*a{n})"

    pool = []
    for _ in range(24):
        roll = rng.random()
        if roll < 0.2:
            pool.append(conj_of(g, f"ing[cut{rng.randint(1, 2)}](1x, 1*a0)", param()))
        elif roll < 0.4:
            pool.append(conj_of(g, f"{cong(0)} & {cong(1)}", f"{param()} ; {param()}"))
        else:
            pool.append(conj_of(g, cong(0), param()))
    return pool


def _merge_cases(parts, seen):
    """Tally what phase 3 meets on the parts, solved from new records: a
    coordinate where two of them are live, a congruence conflict, one
    within a part, a coordinate that two primes constrain, a pin checked
    against the congruences, and any coordinate the merge leaves to the
    full solve."""
    records = [solver.Part(p.conj) for p in parts]
    slots = None
    try:
        prob = solver._normalize(*records)
        slots = solver._solve_slots(prob)
    except solver._Decided as decided:
        kinds = [e.kind for e in decided.result.certificate]
        seen["conflict"] += "congruence-conflict" in kinds
        seen["pins"] += "pin-congruence-conflict" in kinds
    derived = [r for r in records if r.slots is not None]
    seen["own conflict"] += any(None in r.slots.values() for r in derived)
    if slots is None:
        return
    live = [i for r in derived for i in r.slots]
    seen["shared"] += len(live) > len(set(live))
    seen["crt"] += any(len(factorize(m)) > 1 for m, _ in slots.values())
    seen["pins"] += bool(prob.coord_pins) and bool(slots)
    seen["full"] += None in solver._merge_slots(prob.parts).values()


def _whole(*conjs):
    """One fresh Part of the conjunction of the conjunctions."""
    return solver.Part(conjoin(*conjs))


@pytest.mark.parametrize("seed", [3, 4])
def test_solve_of_parts_matches_solve_of_their_conjunction(seed):
    # solve(*parts) numbers the literals as conjoin does, reads each Part's
    # congruences from its memo for its offset and merges the parts' own
    # slot entries.  Part records shared across calls, 1-3 of them at
    # several offsets, in both orders and one of them twice in a call, give
    # what solve of one fresh Part of the conjoined conjunction gives,
    # rewritten congruences and refutations (cited by their index in the
    # whole) included; so does every path of two generated patterns, its
    # parts shared by all the paths, which are taken in a seeded order, and
    # every row pair, each UNSAT, the congruence rows' by a slot conflict;
    # so do 2-4 shared parts of one or two literals where the merge solves
    # coordinates in full: two parts live on a coordinate, a conflict
    # between parts or within one, two primes on a Z coordinate (CRT), a
    # pin; and so does a conjunction split at literal boundaries into 1-3
    # fresh Parts over its whole bank, against the unsplit conjunction of
    # its literals in the same order, in both orders of the pieces
    rng = random.Random(seed)
    by_spec = {}
    for c in order_gap_conjunctions(seed, 300) + random_conjunctions(seed, 300):
        by_spec.setdefault(str(c.group), []).append(c)
    seen = dict.fromkeys(("rewritten", "later refuted", "twice", "offsets", "row conflicts"), 0)
    for conjs in by_spec.values():
        parts = [solver.Part(c) for c in conjs]
        for _ in range(2 * len(conjs)):
            chosen = rng.choices(range(len(conjs)), k=rng.randint(1, 3))
            for order in (chosen, chosen[::-1]):
                merged = conjoin(*(conjs[n] for n in order))
                args = [parts[n] for n in order]
                got = _normalized(*args)
                assert got == _normalized(solver.Part(merged))
                want = solve(solver.Part(merged)).to_json_dict()
                assert solve(*args).to_json_dict() == want
                seen["rewritten"] += any(
                    lit.kind is LitKind.CONG and lit.k != 1 for lit in merged.literals
                ) and not isinstance(got, SolveResult)
                seen["later refuted"] += isinstance(got, SolveResult) and any(
                    e.kind == "congruence-term-not-reducible"
                    and e.literals[0] >= len(conjs[order[0]].literals)
                    for e in got.certificate
                )
            seen["twice"] += len(set(chosen)) < len(chosen)
        seen["offsets"] += sum(len(p.memo) > 1 for p in parts)
    for pattern in (
        gen_chain_pattern(2, 4, 3).pattern,
        gen_optimal_pattern([2, 3], [2, 1], 3).pattern,
    ):
        inst = [
            [pattern.instantiate(i, j) for j in range(len(row.columns))]
            for i, row in enumerate(pattern.rows)
        ]
        parts = [[solver.Part(c) for c in row] for row in inst]
        etas = list(itertools.product(*(range(len(row)) for row in inst)))
        rng.shuffle(etas)
        for eta in etas:
            got = solve(*(parts[i][j] for i, j in enumerate(eta)))
            want = solve(_whole(*(inst[i][j] for i, j in enumerate(eta))))
            assert got.to_json_dict() == want.to_json_dict()
            assert got.status is SolveStatus.SAT
        for i, row in enumerate(inst):
            for a, b in itertools.combinations(range(len(row)), 2):
                got = solve(parts[i][a], parts[i][b])
                assert got.to_json_dict() == solve(_whole(row[a], row[b])).to_json_dict()
                assert got.status is SolveStatus.UNSAT
                seen["row conflicts"] += got.certificate[0].kind == "congruence-conflict"
    assert seen["rewritten"] > 500 and seen["later refuted"] > 50, seen
    assert seen["twice"] > 100 and seen["offsets"] > 200, seen
    assert seen["row conflicts"] == 4 * 3 + 3 * 3, seen  # 4 and 3 congruence rows
    merges = dict.fromkeys(("shared", "conflict", "own conflict", "crt", "pins", "full"), 0)
    for spec in _MERGE_SPECS:
        conjs = _merge_pool(rng, spec)
        parts = [solver.Part(c) for c in conjs]
        for _ in range(150):
            chosen = rng.choices(range(len(conjs)), k=rng.randint(2, 4))
            for order in (chosen, chosen[::-1]):
                args = [parts[n] for n in order]
                got = solve(*args)
                want = solve(_whole(*(conjs[n] for n in order)))
                assert got.to_json_dict() == want.to_json_dict()
                _merge_cases(args, merges)
    assert min(merges.values()) > 20, merges
    splits = dict.fromkeys(("split", "SAT", "UNSAT", "UNKNOWN"), 0)
    for conj in random_conjunctions(seed, 300):
        n = len(conj.literals)
        cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 2))))
        pieces = [conj.literals[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        for order in (pieces, pieces[::-1]):
            parts = [solver.Part(Conjunction(conj.group, p, conj.params)) for p in order]
            unsplit = Conjunction(conj.group, sum(order, ()), conj.params)
            got = solve(*parts).to_json_dict()
            assert got == solve(unsplit).to_json_dict(), (conj, cuts)
            splits[got["status"]] += 1
        splits["split"] += len(pieces) > 1
    assert min(splits["split"], splits["SAT"], splits["UNSAT"]) > 50, splits


def test_solve_needs_conjunctions_over_one_group():
    # the error conjoin raises for mismatched groups, also where the first
    # argument alone refutes, and for no argument at all
    refuted = conj_of(parse_spec("lex(Z)"), "ing[cut1](2x, 1*a0)", "(1)")
    assert solve(refuted).status is SolveStatus.UNSAT
    other = conj_of(parse_spec("lex(Q)"), "1x > 1*a0", "(1)")
    for args in (
        (refuted, other),
        (other, refuted),
        (solver.Part(refuted), other),
        (solver.Part(refuted), solver.Part(other)),
    ):
        with pytest.raises(PreconditionError):
            solve(*args)
    with pytest.raises(PreconditionError):
        solve()


def test_no_sat_answer_leaves_solve_without_the_reference_check(monkeypatch):
    # every SAT return site of solve, _decide_pinned's among them, accepts
    # through the reference evaluator of checker: with its literal check
    # rejecting every x, no solve is SAT, on plain conjunctions, on the
    # paths of a pattern passed as Parts and on conjunctions whose pins
    # force x
    import oag.checker

    chain = gen_chain_pattern(2, 3, 2).pattern
    inst = [[solver.Part(chain.instantiate(i, j)) for j in range(2)] for i in range(3)]
    paths = [
        tuple(inst[i][j] for i, j in enumerate(eta))
        for eta in itertools.product(range(2), repeat=3)
    ]
    z = parse_spec("lex(Z)")
    pinned = [
        conj_of(z, "1x = 1*a0 & 1x > 0", "(2)"),  # the equality pin
        conj_of(z, "2x >= 1*a0 & 2x <= 1*a0", "(2)"),  # equal bounds
        conj_of(z, "ing[cut1](1x, 1*a0) & !1x = 0", "(2)"),  # every coordinate
    ]
    calls = [(c,) for seed in (5, 77) for c in random_conjunctions(seed, 300)]
    calls += paths + [(c,) for c in pinned]
    before = [solve(*args).status for args in calls]
    assert before.count(SolveStatus.SAT) > 200
    assert before[-len(paths) - 3 :] == [SolveStatus.SAT] * (len(paths) + 3)
    monkeypatch.setattr(oag.checker._LiteralCheck, "holds", lambda self, x, nonzero: False)
    after = [solve(*args) for args in calls]
    assert [r for r in after if r.status is SolveStatus.SAT] == []
    # a forced x that the checks reject is refuted citing what they reject
    assert [r.certificate[0].literals for r in after[-3:]] == [(0, 1), (0, 1), (0, 1)]
    assert {r.certificate[0].kind for r in after[-3:]} == {"pin-refuted"}


# parts to conjoin with the part P below, which asks for x = 2 mod 8 on its
# Z coordinate: there they ask for residue 0 mod 2, 2, 8, 16 and 3, the cut
# of "equal, cut0" passes no coordinate, and the last, live on P's Z
# coordinate too, asks for 1 mod 2
_OTHER_PARTS = {
    "smaller": ("cong[2, cut1](1x, 1*a0)", "(0 | b0)"),
    "smaller again": ("cong[2, cut1](1x, 1*a0)", "(0 | b1)"),
    "equal": ("cong[8, cut1](1x, 1*a0)", "(0 | b0)"),
    "equal, cut0": ("cong[8, cut0](1x, 1*a0)", "(0 | b0)"),
    "larger": ("cong[16, cut1](1x, 1*a0)", "(0 | b0)"),
    "other prime": ("cong[3, cut1](1x, 1*a0)", "(0 | b0)"),
    "live too": ("cong[2, cut1](1x, 1*a0)", "(1 | b0)"),
}


@pytest.mark.parametrize("reverse", [False, True])
def test_merge_keeps_a_lone_parts_slot_where_it_meets_the_others(monkeypatch, reverse):
    # phase 3 keeps the slot entry of a coordinate on which one Part passed
    # to solve alone is live, as the part solved it on its own, when its
    # class meets every congruence of the other parts there: P's class
    # 2 mod 8 on its Z coordinate is 0 mod 2 but not 0 mod 4, and 8 is
    # prime to 3.  Shared Part records, first used in either order, give
    # what records made fresh for each call give: a part whose congruences
    # P's class meets, or that does not reach the coordinate, costs no
    # _solve_slot call, and every other one (a larger exponent, another
    # prime, a part live there too) clashes with P there, and only there, so
    # the coordinate is solved anew with all its congruences and a
    # refutation is the one the full solve gives
    g = parse_spec("lex(Z, Gp(2))")
    texts = {"P": ("cong[8, cut2](1x, 1*a0)", "(2 | 2*b0 + 6*b1)"), **_OTHER_PARTS}

    def parts():
        return {name: solver.Part(conj_of(g, *text)) for name, text in texts.items()}

    calls = []
    real_slot = solver._solve_slot
    monkeypatch.setattr(
        solver, "_solve_slot", lambda *args: calls.append(args) or real_slot(*args)
    )

    def run(*parts):
        prob = solver._normalize(*parts)
        return solve(*parts), _slots_or_verdict(solver._solve_slots, prob)

    shared = parts()
    run(shared["P"])  # P's own entries, derived once
    assert shared["P"].slots == {0: (8, 2), 1: (8, ((0, 2), (1, 6)))}
    within = {"smaller", "smaller again", "equal, cut0"}
    names = sorted(_OTHER_PARTS, reverse=reverse)
    got = {}
    for name in names:
        for order in ((name, "P"), ("P", name)):
            fresh = parts()
            want = run(*(fresh[n] for n in order))
            del calls[:]
            got[order] = run(*(shared[n] for n in order))
            assert got[order] == want, order
            assert {c[0] for c in calls} == (set() if name in within else {0}), order
        clashes = set() if name in within else {0}
        for pair in ((shared["P"], shared[name]), (shared[name], shared["P"])):
            assert set(solver._clashes(*pair)) == clashes, name
    for name, slot in (("smaller", (8, 2)), ("equal, cut0", (8, 2)), ("other prime", (24, 18))):
        res, slots = got[(name, "P")]
        assert res.status is SolveStatus.SAT and slots[0] == (0, slot)
    for name in ("equal", "larger", "live too"):
        res, _ = got[("P", name)]
        assert [e.kind for e in res.certificate] == ["congruence-conflict"]
        assert res.certificate[0].literals == (0, 1)


def test_one_part_calls_compare_nothing_and_each_pair_is_compared_once(monkeypatch):
    # only a call of two or more parts compares parts: a one-argument
    # solve, plain or one Part, derives the part's slots but calls _clashes
    # 0 times; on the paths of chain(2, 3, 2), whose parts are shared, each
    # pair from two rows is compared once
    compared = []
    real_clashes = solver._clashes
    monkeypatch.setattr(
        solver, "_clashes", lambda a, b: compared.append((a, b)) or real_clashes(a, b)
    )
    conjs = random_conjunctions(5, 300) + order_gap_conjunctions(5, 300)
    parts = [solver.Part(c) for c in conjs]
    for c, part in zip(conjs, parts):
        assert solve(c).to_json_dict() == solve(part).to_json_dict()
    assert compared == []
    assert sum(bool(p.slots) for p in parts if p.slots is not None) > 80
    for path in _chain_paths(2, 3, 2, row_pairs=False):
        assert solve(*path).status is SolveStatus.SAT
    assert len(compared) == len(set((id(a), id(b)) for a, b in compared)) == 3 * 2 * 2


def test_a_part_conflicting_on_its_own_clashes_where_it_is_live():
    # A asks for 1 and 0 mod 2 on basis b0 of its Gp(2) coordinate, so it
    # has no slot entry there; B, live there too with residue 0 mod 4,
    # meets A's second congruence but not its first.  In either order the
    # coordinate is solved in full and refuted as the conjoined conjunction
    # is
    g = parse_spec("lex(Gp(2))")
    a = conj_of(g, "cong[2, cut1](1x, 1*a0) & cong[2, cut1](1x, 1*a1)", "(b0) ; (0)")
    b = conj_of(g, "cong[4, cut1](1x, 1*a0)", "(4*b0)")
    for order in ((a, b), (b, a)):
        parts = [solver.Part(c) for c in order]
        got = solve(*parts)
        assert got.to_json_dict() == solve(conjoin(*order)).to_json_dict()
        assert [e.kind for e in got.certificate] == ["congruence-conflict"]
        assert set(solver._clashes(*parts)) == {0}


def test_parts_live_on_a_coordinate_with_equal_classes_do_not_clash(monkeypatch):
    # A and B ask for 2 and 6 mod 4 on the Z coordinate and for 2*b1 mod 4
    # on the Gp(2) one: equal classes on both, so their pair keeps both
    # entries and solves no slot anew, and answers as their conjunction
    g = parse_spec("lex(Z, Gp(2))")
    conjs = [
        conj_of(g, "cong[4, cut2](1x, 1*a0)", a0) for a0 in ("(2 | 2*b1)", "(6 | 2*b1)")
    ]
    parts = [solver.Part(c) for c in conjs]
    for part in parts:
        assert solve(part).status is SolveStatus.SAT
    assert [p.slots for p in parts] == [{0: (4, 2), 1: (4, ((1, 2),))}] * 2
    want = solve(conjoin(*conjs))
    assert want.status is SolveStatus.SAT
    calls = []
    real_slot = solver._solve_slot
    monkeypatch.setattr(
        solver, "_solve_slot", lambda *args: calls.append(args) or real_slot(*args)
    )
    assert solve(*parts).to_json_dict() == want.to_json_dict()
    assert calls == [] and solver._clashes(*parts) == ()


def _own_part(conj):
    """A fresh Part of the conjunction with its own slot entries derived,
    or None where phase 1 refutes it."""
    part = solver.Part(conj)
    try:
        solver._normalize(part)
    except solver._Decided:
        return None
    solver._derive_slots(part)
    return part


def _pair_clashes(a, b):
    """Reference for solver._clashes: the coordinates where a part's own
    slot entry differs from _slot over both parts' carriers there, a
    refuted _slot included."""
    group, congs = a.conj.group, a.congs + b.congs
    live = solver._live(congs)
    differs = set()
    for part in (a, b):
        for i, entry in part.slots.items():
            if entry is None:
                continue
            try:
                joint = solver._slot(i, live[i], solver._carriers(group, congs, i))
            except solver._Decided:
                joint = None
            if joint != entry:
                differs.add(i)
    return differs


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_clashes_are_where_an_own_entry_is_not_the_pairs(seed):
    # two parts clash exactly where one part's own slot entry is not what
    # _slot gives over the congruences of both: pairs of random
    # conjunctions split at a literal boundary, and pairs of a merge pool,
    # whose parts are often live on one coordinate or conflict on their own
    rng = random.Random(seed)
    pairs = [
        (Conjunction(c.group, c.literals[:cut], c.params),
         Conjunction(c.group, c.literals[cut:], c.params))
        for c in random_conjunctions(seed, 10)
        for cut in range(1, len(c.literals))
    ]
    pool = _merge_pool(rng, rng.choice(_MERGE_SPECS))
    pairs += [rng.sample(pool, 2) for _ in range(10)]
    for conjs in pairs:
        a, b = map(_own_part, conjs)
        if a is not None and b is not None:
            assert set(solver._clashes(a, b)) == _pair_clashes(a, b)


def test_carrier_rule_matches_block_modulus():
    # phase 3 counts a block as carrying residues for a prime q exactly when
    # block_modulus(block, q) != 1, both where it finds the live slots and
    # where it picks the congruences on a coordinate
    blocks = ["Z", "Q"] + [f"{k}({p})" for k in ("Zloc", "Gp") for p in (2, 3, 5, 7)]
    for text, q in itertools.product(blocks, (2, 3, 5, 7, 11, 13)):
        g = parse_spec(f"lex({text})")
        a0 = "(b0)" if text.startswith("Gp") else "(1)"
        conj = conj_of(g, f"cong[{q}, cut1](1x, 1*a0)", a0)
        prob = solver._normalize(solver.Part(conj))
        carries = block_modulus(g.blocks[0], q) != 1
        assert bool(solver._carriers(g, prob.congs, 0)) is carries, (text, q)
        assert bool(prob.congs[0].live) is carries, (text, q)
        assert len(solver._solve_slots(prob)) == carries, (text, q)


def test_solve_slot_matches_the_per_target_rule():
    # random congruence sets on one slot: a Z coordinate (one or two primes)
    # or a basis of a Gp(3) coordinate, zero and nonzero targets, often
    # conflicting; the same (modulus, residue) or the same certificate entry
    spec = parse_spec("lex(Z, Gp(3))")
    rng = random.Random(20)
    seen = {"conflict": 0, "solved": 0, "two primes": 0, "zero and nonzero": 0}
    for _ in range(3000):
        coord = rng.randrange(2)
        primes = [3] if coord else rng.choice(([2], [3], [2, 3], [2, 5]))
        basis = rng.choice((0, 1, 2)) if coord else None
        congs = []
        for src in range(rng.randint(1, 5)):
            p = rng.choice(primes)
            if rng.random() < 0.4:
                target = 0
            elif coord:
                target = Fraction(rng.randint(-30, 30), rng.choice((1, 2, 4, 5)))
            else:
                target = rng.randint(-30, 30)
            value = target
            if coord:
                value = {basis: target, rng.choice((0, 1, 2, 3)): rng.randint(-5, 5)}
                value[basis] = target  # the other basis may not overwrite it
            coords = (0, value) if coord else (value, 0)
            congs.append(solver._Cong(p, rng.randint(1, 3), 2, Element(spec, coords), src))
        expected = _solve_slot_reference(coord, basis, congs)
        try:
            got = solver._solve_slot(coord, basis, congs)
        except solver._Decided as decided:
            assert decided.result.status is SolveStatus.UNSAT
            (got,) = decided.result.certificate
        assert got == expected
        targets = [_slot_value(c, coord, basis) for c in congs]
        seen["conflict" if isinstance(got, solver.CertEntry) else "solved"] += 1
        seen["two primes"] += len({c.p for c in congs}) == 2
        seen["zero and nonzero"] += any(targets) and not all(targets)
    assert min(seen.values()) > 200, seen


def test_placement_reads_the_zero_slot_modulus():
    # coordinate 0 is not live (the congruence value is zero there), yet the
    # placement above the bound must land on a multiple of 4, not of 1
    c = conj_of(parse_spec("lex(Z, Q)"), "cong[4, cut1](1x, 0) & 1x > 1*a0", "(5 | 0)")
    prob = solver._normalize(solver.Part(c))
    assert solver._solve_slots(prob) == {}
    pins, _, free = solver._descend(prob, {})
    assert pins == {0: (8, None)} and free == 1
    res = solve(c)
    assert res.status is SolveStatus.SAT
    assert res.witness == parse_element(c.group, "(8 | 0)")


@pytest.mark.parametrize(
    "spec, formula, params, witness",
    [
        (
            "lex(Gp(2))",
            "cong[4, cut1](1x, 1*a0) & 1x > 1*a0",
            "(b1)",
            "(4*b0 + b1)",
        ),
        (
            "lex(Gp(3), Q, Gp(3))",
            "cong[9, cut2](2x, -3*a0) & 1x < 1*a1 & !-1x = 2*a0 + -2*a1",
            "(-3*b1 + 22/5*b3 | 4/7 | 22*b0 + 22/5*b2 + 3/5*b3) ; "
            "(-19/7*b1 - 10/7*b3 | 5 | 0)",
            "(-27*b0 + 6*b3 | 0 | 0)",
        ),
    ],
    ids=["gp2-top", "solve-mix-1009-item-1025"],
)
def test_placement_on_a_span_top_reads_the_basis_0_slot(
    spec, formula, params, witness
):
    # the term supports leave out b0, so (0, 0) is not a slot key; the b0
    # coefficient must still land on the congruences' residue
    c = conj_of(parse_spec(spec), formula, params)
    res = solve(c)
    assert res.status is SolveStatus.SAT
    assert res.witness == parse_element(c.group, witness)
    assert evaluate_conj(c, res.witness)


@pytest.mark.parametrize(
    "spec, params, witness",
    [
        ("lex(Z, Q)", "(1 | 0) ; (1 | 5)", "(1 | 5/2)"),
        ("lex(Q, Z)", "(1 | 0) ; (1 | 5)", "(1 | 1)"),
        ("lex(Gp(2), Z)", "(b1 | 0) ; (b1 | 5)", "(b1 | 1)"),
    ],
    ids=["z-top", "q-top", "gp2-top"],
)
def test_no_slack_at_coordinate_0_descends_to_the_next(
    monkeypatch, spec, params, witness
):
    # both bounds agree on coordinate 0, so the descent forces it to their
    # common value, encloses no span value there, and places coordinate 1
    # strictly inside the gap
    monkeypatch.setattr(solver, "span_enclosure", None)
    g = parse_spec(spec)
    c = conj_of(g, "1x > 1*a0 & 1x < 1*a1", params)
    prob = solver._normalize(solver.Part(c))
    pins, _, free = solver._descend(prob, solver._solve_slots(prob))
    want = parse_element(g, witness)
    assert {i: v for i, (v, _) in pins.items()} == dict(enumerate(want.coords))
    assert free == 2
    res = solve(c)
    assert res.status is SolveStatus.SAT
    assert res.witness == want


@pytest.mark.parametrize(
    "spec, formula, params, witness",
    [
        # the placement 1 is the excluded point; the escape point steps it
        # to 3/2, the next point of its gap
        ("lex(Q)", "1x > 0 & 1x < 2*a0 & !1x = 1*a0", "(1)", "(3/2)"),
        # random_conjunctions(5) item 1200: coordinate 0 is pinned to the
        # bound's value, and the descent places coordinate 1
        (
            "lex(Gp(5), Gp(3))",
            "1x > -1*a1 & ing[cut1](4x, -3*a1)",
            "(b1 + 22/3*b3 | 0) ; (0 | -24/7*b0 - 21/5*b1 + 3/2*b2)",
            "(0 | 7)",
        ),
        # a pin above the lower bound drops it; coordinate 1 stays free
        ("lex(Z, Z)", "ing[cut1](1x, 1*a0) & 1x > 1*a1", "(3 | 0) ; (2 | 9)", "(3 | 0)"),
        # a Z gap with no point strictly inside: x takes the lower bound's
        # value on coordinate 0 and descends against that bound alone
        ("lex(Z, Q)", "1x > 1*a0 & 1x < 1*a1", "(1 | 0) ; (2 | 0)", "(1 | 1)"),
    ],
    ids=["q-escape-step", "random-5-item-1200", "pin-drops-bound", "z-edge"],
)
def test_descent_regressions(spec, formula, params, witness):
    g = parse_spec(spec)
    c = conj_of(g, formula, params)
    res = solve(c)
    assert res.status is SolveStatus.SAT
    assert res.witness == parse_element(g, witness)
    assert evaluate_conj(c, res.witness)


def _meets_slots(x, slots) -> bool:
    """Whether x has every live coordinate's residues: on a span block the
    listed residue on each listed basis and residue 0 on every other."""
    for i, (m, v) in slots.items():
        if type(v) is int:
            if residue_mod(x.coords[i], m) != v:
                return False
            continue
        want = dict(v)
        for b in want.keys() | dict(x.coords[i]).keys():
            if residue_mod(span_coefficient(x.coords[i], b), m) != want.get(b, 0):
                return False
    return True


def _appends_a_fresh_basis(x, slots, prob) -> bool:
    """Whether x puts a basis above every term value's support on a live
    span coordinate whose residues it keeps below that basis."""
    for i, (m, v) in slots.items():
        if type(v) is tuple and v and x.coords[i][:-1] == v:
            support = (
                b for part in prob.parts
                for t in part.conj.term_values for b, _ in t.coords[i]
            )
            if x.coords[i][-1][0] > max(support, default=-1):
                return True
    return False


# escape points that append a fresh basis to a live span coordinate, which
# the random corpora do not reach: the package smoke input, and solve-mix
# items 10391 of seed 1009 and 855 of seed 11
_FRESH_BASIS_INPUTS = [
    (
        "lex(Gp(2))",
        "cong[4, cut1](1x, 1*a0) & !1x = 1*a0 & !1x = 1*a1",
        "(b1); (b1 + 4*b2)",
    ),
    (
        "lex(Z, Gp(3), Z)",
        "!cong[2, cut3](-3x, -2*a2) & cong[1, cut3](5x, -2*a0 + -3*a1) & "
        "cong[9, cut3](5x, -2*a1)",
        "(5 | 4/5*b1 | 5); (-1 | -24*b0 + 21/5*b3 | -6); (-2 | 0 | -1)",
    ),
    (
        "lex(Gp(5), Gp(2), Q)",
        "!ing[cut1](5x, 3*a0) & cong[4, cut2](-3x, 1*a0)",
        "(0 | -22/7*b0 - 6/7*b1 | 13/3)",
    ),
]


@pytest.mark.parametrize("seed", [11, 1009])
def test_every_candidate_meets_the_live_slots(monkeypatch, seed):
    # the candidates are built on the slot residues, so each one has every
    # live slot's residue and no congruence rules one out before evaluation;
    # each is canonical too, the escape points that append a fresh basis to
    # a live span coordinate among them
    seen = []
    real = solver._candidates

    def recording(prob, slots, *args):
        for x in real(prob, slots, *args):
            seen.append((x, slots, prob))
            yield x

    monkeypatch.setattr(solver, "_candidates", recording)
    fresh = [conj_of(parse_spec(g), f, a) for g, f, a in _FRESH_BASIS_INPUTS]
    for conj in random_conjunctions(seed, 1500) + fresh:
        solve(conj)
    assert len(seen) > 700 and sum(bool(slots) for _, slots, _ in seen) > 50
    assert all(_meets_slots(x, slots) for x, slots, _ in seen)
    for x, _, _ in seen:
        assert_canonical(x)
    assert any(_appends_a_fresh_basis(*item) for item in seen)


@pytest.mark.parametrize(
    "spec, key, value",
    [
        ("lex(Z)", (0, None), Fraction(1, 2)),
        ("lex(Q, Zloc(3))", (1, None), Fraction(1, 3)),
        ("lex(Gp(2))", (0, 1), Fraction(1, 2)),
    ],
)
def test_assemble_rejects_a_value_outside_its_block(spec, key, value):
    # pins are the one input _assemble normalizes; the value is pinned at
    # the (coordinate, basis) key, the basis None on a scalar block
    i, b = key
    pin = value if b is None else ((b, value),)
    assert solver._assemble(parse_spec(spec), {i: (pin, None)}, {}) is None


def _slot_values(rng, spec):
    """Random slot residues of every coordinate as _solve_slots keeps them:
    an int on a scalar block, sorted nonzero int pairs on a span block."""
    values = {}
    for i, block in enumerate(spec.blocks):
        if block.kind == "GP":
            pairs = {b: rng.randint(-9, 9) for b in rng.sample(range(6), 3)}
            values[i] = tuple((b, c) for b, c in sorted(pairs.items()) if c)
        else:
            values[i] = rng.randint(-9, 9)
    return values


def test_assemble_matches_the_element_constructor():
    # pins of any form, zero pins of either type and zero span coefficients
    # among them, are normalized and laid over the slot values; the
    # coordinates must still equal the constructor's in value and type
    rng = random.Random(5)
    for _ in range(300):
        spec = random_spec(rng)
        values = _slot_values(rng, spec)
        dense = list(values.values())
        pins = {}
        for i, block in enumerate(spec.blocks):
            if rng.random() < 0.5:
                continue
            v = random_block_value(rng, block)
            if block.kind == "GP":
                v = tuple({**dict(v), 4: Fraction(0)}.items())
            elif rng.random() < 0.4:
                v = rng.choice([0, Fraction(0)])
            pins[i] = (v, rng.choice([0, None]))
            dense[i] = v
            if rng.random() < 0.3:
                del values[i]
        got = solver._assemble(spec, pins, values)
        want = Element(spec, tuple(dense))
        assert got == want
        assert [type(v) for v in got.coords] == [type(v) for v in want.coords]


def test_assemble_places_int_slot_values_canonically():
    # the slot values skip normalization, and a pin laid over one is
    # normalized; the result must still be canonical and equal the
    # constructor's
    rng = random.Random(23)
    for _ in range(300):
        spec = random_spec(rng)
        values = _slot_values(rng, spec)
        dense = list(values.values())
        pins = {}
        if rng.random() < 0.5:
            i = rng.randrange(spec.K)
            pins[i] = (random_block_value(rng, spec.blocks[i]), None)
            dense[i] = pins[i][0]
        got = solver._assemble(spec, pins, values)
        assert_canonical(got)
        assert got == Element(spec, tuple(dense))


@pytest.mark.parametrize(
    "spec, formula, params, coordinate",
    [
        # the pin makes x0 = -4/3, below the bound's -1/3
        (
            "lex(Q, Z, Gp(3))",
            "ing[cut2](1x, -2*a0) & -2x <= 1*a0",
            "(2/3 | 13 | 0)",
            0,
        ),
        # the pin meets the low bound on coordinate 0 and drops the high
        # one, then crosses the low bound on coordinate 1
        (
            "lex(Q, Q, Q)",
            "ing[cut2](1x, 1*a0) & 1x > 1*a1 & 1x < 1*a2",
            "(1 | 0 | 0); (1 | 3 | 0); (2 | 0 | 0)",
            1,
        ),
    ],
    ids=["crosses-at-0", "drops-one-crosses-the-other"],
)
def test_pin_outside_bounds_is_unsat(spec, formula, params, coordinate):
    c = conj_of(parse_spec(spec), formula, params)
    res = solve(c)
    assert res.status is SolveStatus.UNSAT
    (entry,) = res.certificate
    assert entry.kind == "pin-outside-bounds"
    assert entry.coordinate == coordinate
    assert entry.literals == (0, 1)
    assert oracle_search(c, 2) is None


_BOUND_KS = [k for a in range(1, 7) for k in (a, -a)]


def _bound_of(spec, lit, t):
    """The order bound ``_normalize`` makes of one literal on its own."""
    prob = solver._normalize(solver.Part(Conjunction(spec, (lit,), (t,))))
    return prob.low or prob.high


def _cross_multiplied(k1, t1, k2, t2):
    """Reference order of the hull points t1/k1 and t2/k2: with each k made
    positive (negating its t), compare k2*t1 with k1*t2."""
    (k1, t1), (k2, t2) = (
        (abs(k), t if k > 0 else scale(-1, t)) for k, t in ((k1, t1), (k2, t2))
    )
    return compare(scale(k2, t1), scale(k1, t2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(_BOUND_KS),
    st.sampled_from(_BOUND_KS),
    st.integers(0, 3),
)
def test_hull_points_order_bounds_as_cross_multiplication(seed, k1, k2, cut):
    rng = random.Random(seed)
    spec = random_spec(rng, max_blocks=3)
    u, d = random_element(rng, spec), random_element(rng, spec)
    # the second term is k2*u off by d below the cut, so the hull points
    # tie on the coordinates above it (on all of them when cut >= K)
    d = Element(spec, spec.zero().coords[:cut] + d.coords[cut:])
    t1, t2 = scale(k1, u), scale(k2, u) + d
    b1 = _bound_of(spec, ord_lit(k1, ">", Term.of({0: 1})), t1)
    b2 = _bound_of(spec, ord_lit(k2, "<=", Term.of({0: 1})), t2)
    assert b1.strict and not b2.strict
    assert compare(b1.hull, b2.hull) is _cross_multiplied(k1, t1, k2, t2)
    assert compare(b2.hull, b1.hull) is _cross_multiplied(k2, t2, k1, t1)


def _reference_tightest(lows, highs):
    """The tightest low and high by hull point, a strict bound winning a tie
    and otherwise the first one staying, picked after the fact by a ``max``
    and a ``min`` over ``cmp_to_key``."""
    low = max(lows, default=None, key=functools.cmp_to_key(
        lambda a, b: compare(a.hull, b.hull) or a.strict - b.strict))
    high = min(highs, default=None, key=functools.cmp_to_key(
        lambda a, b: compare(a.hull, b.hull) or b.strict - a.strict))
    return low, high


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(
        st.tuples(
            st.sampled_from(_BOUND_KS),
            st.sampled_from(["<", "<=", ">", ">="]),
            st.integers(0, 2),
        ),
        min_size=2,
        max_size=8,
    ),
)
def test_normalize_keeps_the_tightest_bound_per_side(seed, shapes):
    rng = random.Random(seed)
    spec = random_spec(rng, max_blocks=3)
    # two base points, and a third that shares coordinate 0 with the first,
    # so that hull points tie often and the strict-tie rule decides
    u, v = random_element(rng, spec), random_element(rng, spec)
    w = Element(spec, u.coords[:1] + v.coords[1:])
    terms = tuple(scale(k, (u, v, w)[j]) for k, _, j in shapes)
    lows, highs = [], []
    for i, ((k, cmp, _), t) in enumerate(zip(shapes, terms)):
        b = _bound_of(spec, ord_lit(k, cmp, Term.of({0: 1})), t)._replace(src=i)
        # k*x > t bounds x from below exactly when k > 0
        (lows if (k > 0) == (cmp[0] == ">") else highs).append(b)
    lits = tuple(ord_lit(k, cmp, Term.of({i: 1})) for i, (k, cmp, _) in enumerate(shapes))
    prob = solver._normalize(solver.Part(Conjunction(spec, lits, terms)))
    assert (prob.low, prob.high) == _reference_tightest(lows, highs)


@pytest.mark.parametrize(
    "spec",
    ["lex(Z)", "lex(Q)", "lex(Zloc(2))", "lex(Zloc(3))", "lex(Gp(2))", "lex(Gp(3))", None],
)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from(_BOUND_KS), st.booleans())
def test_a_hull_point_is_in_the_group_exactly_when_t_divides(spec, seed, k, divisible):
    rng = random.Random(seed)
    spec = parse_spec(spec) if spec else random_spec(rng, max_blocks=3)
    u = random_element(rng, spec)
    t = scale(k, u) if divisible else u
    hull = _bound_of(spec, ord_lit(k, ">=", Term.of({0: 1})), t).hull
    q = _quotient(t if k > 0 else scale(-1, t), abs(k), spec.K)
    assert solver._in_group(spec, hull) is (q is not None)
    if q is not None:
        assert hull == q
    if divisible:
        assert hull == u


@pytest.mark.parametrize(
    "formula, literals",
    [
        # 2x > 2 and x >= 1 share the hull point 1; the strict low is tighter
        ("1x >= 1*a0 & 2x > 1*a1 & 1x <= 1*a0", (1, 2)),
        ("2x > 1*a1 & 1x >= 1*a0 & 1x <= 1*a0", (0, 2)),
        # and so is the strict high 2x < 2 against x <= 1
        ("1x >= 1*a0 & 1x <= 1*a0 & 2x < 1*a1", (0, 2)),
    ],
    ids=["strict-low-second", "strict-low-first", "strict-high"],
)
def test_a_strict_bound_wins_a_hull_tie(formula, literals):
    res = solve(conj_of(parse_spec("lex(Q)"), formula, "(1); (2)"))
    (entry,) = res.certificate
    assert (entry.kind, entry.literals) == ("order-bounds-empty", literals)


def test_the_first_of_equal_bounds_is_cited():
    # x >= 1 and 2x >= 2 tie; the equal high forces x = 1, which is odd
    c = conj_of(
        parse_spec("lex(Z)"),
        "1x >= 1*a0 & 2x >= 1*a1 & 1x <= 1*a0 & cong[2, cut1](1x, 1*a2)",
        "(1); (2); (0)",
    )
    (entry,) = solve(c).certificate
    assert (entry.kind, entry.literals) == ("pin-refuted", (0, 2))


_GAP_FORMULA = "cong[3, cut1](1x, 1*a0) & 1x > 1*a1 & 1x < 1*a2"


@pytest.mark.parametrize(
    "spec, formula, params, literals, modulus",
    [
        # no integer lies strictly between 1 and 2
        ("lex(Z)", "1x > 1*a0 & 1x < 1*a1", "(1); (2)", (0, 1), 1),
        # only x = 2 fits, and 2 is not 1 mod 3; the low endpoint 1 is on
        # the class but is the strict bound's own value
        ("lex(Z)", _GAP_FORMULA, "(1); (1); (3)", (0, 1, 2), 3),
        # x0 lies in [1, 2] and must be 0 mod 3
        ("lex(Z, Q)", _GAP_FORMULA, "(3|0); (1|0); (2|0)", (0, 1, 2), 3),
        # the bounds force x0 = 1, which is not 0 mod 3 in Zloc(3)
        ("lex(Zloc(3), Q)", _GAP_FORMULA, "(0|0); (1|0); (1|5)", (0, 1, 2), 3),
        # the bounds force x0 = b0, which is not in 2*Gp(2)
        (
            "lex(Gp(2), Q)",
            "cong[2, cut1](1x, 1*a0) & 1x > 1*a1 & 1x < 1*a2",
            "(0|0); (b0|0); (b0|5)",
            (0, 1, 2),
            2,
        ),
        # the bounds force x0 = 1/2, which is not 2-local
        ("lex(Zloc(2), Q)", "2x > 1*a0 & 2x < 1*a1", "(1|0); (1|5)", (0, 1), 1),
    ],
    ids=[
        "no-integer",
        "strict-endpoint",
        "endpoints-off-class",
        "forced-zloc-off-class",
        "forced-gp-off-class",
        "forced-off-block",
    ],
)
def test_order_gap_off_class_is_unsat(spec, formula, params, literals, modulus):
    c = conj_of(parse_spec(spec), formula, params)
    res = solve(c)
    assert res.status is SolveStatus.UNSAT
    (entry,) = res.certificate
    assert entry.kind == "order-gap-off-class"
    assert (entry.coordinate, entry.modulus) == (0, modulus)
    assert entry.literals == literals
    assert oracle_search(c, 3) is None


def test_bounds_over_local_tops_are_decided():
    # two bounds that force coordinate 0 of a Zloc or Gp block off its
    # block or its class refute; no such conjunction is left UNKNOWN
    refuted = 0
    for c in order_gap_conjunctions(4242, 1200):
        res = solve(c)
        assert res.status is not SolveStatus.UNKNOWN
        if res.status is SolveStatus.UNSAT:
            (entry,) = res.certificate
            if entry.kind == "order-gap-off-class":
                refuted += 1
                assert oracle_search(c, 2, max_support=2) is None
    assert refuted >= 10


_Z = parse_spec("lex(Z)")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(-6, 6), min_size=4, max_size=4),
    st.tuples(st.sampled_from([1, 2, 3]), st.sampled_from([">", ">="])),
    st.tuples(st.sampled_from([1, 2, 3]), st.sampled_from(["<", "<="])),
    st.lists(
        st.tuples(
            st.sampled_from([1, 2, 3, -1]),
            st.sampled_from([2, 3, 4, 6, 9]),
            st.integers(0, 1),
            st.integers(2, 3),
        ),
        max_size=2,
    ),
)
def test_two_bounds_over_z_match_enumeration(values, low, high, congs):
    # over lex(Z) the two bounds confine x to a finite interval, so
    # enumerating it decides the conjunction exactly
    lits = [ord_lit(low[0], low[1], Term.of({0: 1})),
            ord_lit(high[0], high[1], Term.of({1: 1}))]
    lits += [cong(k, m, ConvexCut(s), Term.of({i: 1})) for k, m, s, i in congs]
    c = Conjunction(_Z, tuple(lits), tuple(Element(_Z, (v,)) for v in values))
    reach = max(abs(v) for v in values) + 1
    sat = any(evaluate_conj(c, Element(_Z, (x,))) for x in range(-reach, reach + 1))
    res = solve(c)
    assert res.status is (SolveStatus.SAT if sat else SolveStatus.UNSAT)


def test_gap_descent_takes_the_high_endpoint():
    # x0 lies in [1, 3] and must be 0 mod 3: the low endpoint 1 is off the
    # class, so x0 takes the high one and x1 goes below its bound 0
    c = conj_of(parse_spec("lex(Z, Q)"), _GAP_FORMULA, "(0|0); (1|0); (3|0)")
    res = solve(c)
    assert res.status is SolveStatus.SAT
    assert str(res.witness) == "(3 | -1)"


@pytest.mark.parametrize("seed", [11, 1009])
def test_coordinate_pins_form_a_prefix(seed):
    # pin-outside-bounds relies on it: ing[cutS] pins every coordinate below
    # S, so the pinned coordinates are 0..S-1 for the largest such S
    pinned = 0
    for conj in random_conjunctions(seed, 1500):
        try:
            prob = solver._normalize(solver.Part(conj))
        except solver._Decided:
            continue
        cuts = [lit.alpha.s for lit in conj.literals if lit.kind is LitKind.INGRP]
        assert sorted(prob.coord_pins) == list(range(max(cuts, default=0)))
        pinned += bool(prob.coord_pins)
    assert pinned > 50
