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
    SolveResult,
    SolveStatus,
    Term,
    check_k_inconsistent,
    compare,
    cong,
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
from oag.groups import span_coefficient
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
            dict(coordinate=1, basis=0, modulus=2, excluded=(0, 1)),
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
            dict(coordinate=0, basis=None, modulus=4, excluded=(0, 1, 2, 3)),
            id="z-prime-power",
        ),
        pytest.param(
            "lex(Zloc(2))", _PAIR.format(2, 2, 1), "(1) ; (0)", None,
            dict(coordinate=0, basis=None, modulus=2, excluded=(0, 1)),
            id="zloc-own-prime",
        ),
        # Zloc(p) at a foreign prime and Q are divisible: vacuous slots
        pytest.param(
            "lex(Zloc(3))", _PAIR.format(2, 2, 1), "(1) ; (0)", "(1)", None,
            id="zloc-foreign-prime",
        ),
        pytest.param(
            "lex(Q)", _PAIR.format(2, 2, 1), "(1) ; (0)", "(1)", None,
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
    # 0 and the parameter 2 fail the disequalities and the congruence pins
    # the residue 0 mod 2; the T = 2 live negated literals give the escape
    # points n = 1, 2, 3, which add n slot moduli to the free coordinate,
    # and each disequality rules out at most one of them
    g = parse_spec("lex(Z)")
    c = conj_of(g, "!1x = 0 & !1x = 1*a0 & cong[2, cut1](1x, 0)", "(2)")
    prob = solver._normalize(c)
    assert prob.negs == [0, 1]
    slots = solver._solve_slots(prob)
    got = list(solver._candidates(prob, slots, solver._descend(prob, slots)))
    assert got == [parse_element(g, v) for v in ("(2)", "(0)", "(4)", "(6)")]
    res = solve(c)
    assert res.status is SolveStatus.SAT
    assert res.witness == parse_element(g, "(4)")


def test_escape_point_takes_a_fresh_basis_symbol():
    # coordinate 0 is pinned to 3; the parameters and the assembled (3 | 0)
    # each fail a disequality, and the first escape point puts one slot
    # modulus on b3, the first basis symbol above the term supports
    g = parse_spec("lex(Z, Gp(2))")
    c = conj_of(
        g, "ing[cut1](1x, 1*a0) & !1x = 1*a0 & !1x = 1*a1", "(3 | b2) ; (3 | 0)"
    )
    res = solve(c)
    assert res.status is SolveStatus.SAT
    assert res.witness == parse_element(g, "(3 | b3)")


@pytest.mark.parametrize(
    "spec, param", [("lex(Z)", "(1)"), ("lex(Q, Gp(2))", "(0 | b1)")]
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
    undecided = cols[0].params + cols[2].params

    def solve_but_one(conj):
        # the subset of columns 0 and 2 is left undecided
        return unknown if conj.params == undecided else real_solve(conj)

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
    group = prob.conj.group
    terms = prob.conj.term_values + tuple(c.value for c in prob.congs)
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
    through _solve_slot.  Pinned coordinates are skipped without checking
    the pins."""
    blocks = prob.conj.group.blocks
    slots = {}
    for i, b in _every_slot_key(prob):
        here = [
            c for c in prob.congs
            if c.alpha_s > i and (blocks[i].kind == "Z" or c.p == blocks[i].p)
        ]
        slots[i, b] = solver._solve_slot(i, b, here)
    return slots


def _slots_or_verdict(fn, prob):
    try:
        return list(fn(prob).items())
    except solver._Decided as decided:
        return decided.result


def _every_slot_expanded(prob):
    """The live slots of phase 3, and every other slot as solver._slot
    reads it for the placement and the escape points."""
    live = solver._solve_slots(prob)
    return {key: solver._slot(prob, live, *key) for key in _every_slot_key(prob)}


def _slot_value(c, i, b):
    v = c.value.coords[i]
    return v if b is None else span_coefficient(v, b)


@pytest.mark.parametrize("seed", [11, 1009])
def test_solve_slots_match_solving_every_slot(seed):
    compared = zero_slots = 0
    for conj in random_conjunctions(seed, 300):
        try:
            prob = solver._normalize(conj)
        except solver._Decided:
            continue
        got = _slots_or_verdict(_every_slot_expanded, prob)
        if isinstance(got, SolveResult) and any(
            e.kind == "pin-congruence-conflict" for e in got.certificate
        ):
            continue  # the reference does not check coordinate pins
        assert got == _slots_or_verdict(_every_slot_solved, prob)
        compared += 1
        if isinstance(got, list):
            # phase 3 keeps exactly the slots where a congruence carrying a
            # residue on the block has a nonzero value
            blocks = conj.group.blocks
            live = [
                ((i, b), slot) for (i, b), slot in got
                if any(
                    _slot_value(c, i, b) for c in prob.congs
                    if c.alpha_s > i
                    and (blocks[i].kind == "Z" or c.p == blocks[i].p)
                )
            ]
            assert list(solver._solve_slots(prob).items()) == live
            zero_slots += sum(
                1 for (i, b), (m, r) in got
                if m > 1 and not any(
                    _slot_value(c, i, b) for c in prob.congs if c.alpha_s > i
                )
            )
    assert compared > 200 and zero_slots > 0


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
                excluded=tuple(range(mp)) if mp <= solver._CERT_ENUM_CAP else None,
                literals=tuple(sorted({src for _, _, src in targets})),
                note="no residue satisfies all congruences on this slot",
            )
        r = crt_pair(r, m, rp, mp)
        m *= mp
    return m, r


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
    prob = solver._normalize(c)
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
    prob = solver._normalize(c)
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


@pytest.mark.parametrize("seed", [11, 1009])
def test_pre_rejection_is_only_a_necessary_condition(monkeypatch, seed):
    # every candidate the evaluator accepts meets the live slot residues,
    # and pre-rejection changes no verdict or witness
    seen = []
    real = solver._candidates

    def recording(prob, slots, *args):
        for x in real(prob, slots, *args):
            seen.append((x, slots))
            yield x

    monkeypatch.setattr(solver, "_candidates", recording)
    corpus = random_conjunctions(seed, 1500)
    accepted = rejected = 0
    for conj in corpus:
        seen.clear()
        solve(conj)
        for x, slots in seen:
            if evaluate_conj(conj, x):
                assert solver._meets_slots(x, slots)
                accepted += 1
            elif not solver._meets_slots(x, slots):
                rejected += 1
    assert accepted > 700 and rejected > 50
    got = [solve(c) for c in corpus]
    monkeypatch.setattr(solver, "_meets_slots", lambda x, slots: True)
    assert got == [solve(c) for c in corpus]


@pytest.mark.parametrize(
    "spec, key, value",
    [
        ("lex(Z)", (0, None), Fraction(1, 2)),
        ("lex(Q, Zloc(3))", (1, None), Fraction(1, 3)),
        ("lex(Gp(2))", (0, 1), Fraction(1, 2)),
    ],
)
def test_assemble_rejects_a_value_outside_its_block(spec, key, value):
    assert solver._assemble(parse_spec(spec), {}, {key: value}) is None


def test_assemble_matches_the_element_constructor():
    # zero values of either type and zero span coefficients are skipped, and
    # only the given coordinates are normalized; the coordinates must still
    # equal the constructor's in value and type
    rng = random.Random(5)
    for _ in range(300):
        spec = random_spec(rng)
        values, dense = {}, []
        for i, block in enumerate(spec.blocks):
            v = random_block_value(rng, block)
            if block.kind == "GP":
                pairs = {**dict(v), 4: Fraction(0)}
                values.update(((i, b), c) for b, c in pairs.items())
            else:
                if rng.random() < 0.4:
                    v = rng.choice([0, Fraction(0)])
                values[i, None] = v
            dense.append(v)
        pins = {}
        if rng.random() < 0.5:
            i = rng.randrange(spec.K)
            pins[i] = (random_block_value(rng, spec.blocks[i]), 0)
            dense[i] = pins[i][0]
        got = solver._assemble(spec, pins, values)
        want = Element(spec, tuple(dense))
        assert got == want
        assert [type(v) for v in got.coords] == [type(v) for v in want.coords]


def test_assemble_places_int_slot_values_canonically():
    # int scalars and int span coefficients skip normalization; the result
    # must still be canonical and equal the constructor's
    rng = random.Random(23)
    for _ in range(300):
        spec = random_spec(rng)
        values, dense = {}, []
        for i, block in enumerate(spec.blocks):
            if block.kind == "GP":
                pairs = {b: rng.randint(-9, 9) for b in rng.sample(range(6), 3)}
                values.update(((i, b), c) for b, c in pairs.items())
                dense.append(tuple(pairs.items()))
            else:
                values[i, None] = rng.randint(-9, 9)
                dense.append(values[i, None])
        got = solver._assemble(spec, {}, values)
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


def _cross_multiplied(b1, b2):
    """Reference order of two bounds' hull points t1/k1 and t2/k2."""
    return compare(scale(b2.k, b1.t), scale(b1.k, b2.t))


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
    lits = (ord_lit(k1, ">", Term.of({0: 1})), ord_lit(k2, "<=", Term.of({1: 1})))
    c = Conjunction(spec, lits, (scale(k1, u), scale(k2, u) + d))
    prob = solver._normalize(c)
    b1, b2 = sorted(prob.lows + prob.highs, key=lambda b: b.src)
    assert compare(b1.hull, b2.hull) is _cross_multiplied(b1, b2)
    assert compare(b2.hull, b1.hull) is _cross_multiplied(b2, b1)


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
            prob = solver._normalize(conj)
        except solver._Decided:
            continue
        cuts = [lit.alpha.s for lit in conj.literals if lit.kind is LitKind.INGRP]
        assert sorted(prob.coord_pins) == list(range(max(cuts, default=0)))
        pinned += bool(prob.coord_pins)
    assert pinned > 50
