import itertools
import random
from fractions import Fraction

import pytest

from oag import (
    ConvexCut,
    Conjunction,
    Element,
    SolveResult,
    SolveStatus,
    Term,
    check_k_inconsistent,
    cong,
    divide_exact,
    evaluate_conj,
    is_divisible,
    oracle_search,
    parse_element,
    parse_formula,
    parse_params,
    parse_spec,
    scale,
    solve,
    unit_element,
)
from oag import solver
from oag.groups import span_coefficient
from oag.numutil import factorize
from helpers import (
    random_block_value,
    random_conjunctions,
    random_cong_literal,
    random_element,
    random_spec,
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


def test_candidate_budget_bounds_the_enumeration():
    # 0 and the parameter 2 fail the disequalities and the congruence pins
    # the residue, so the witness 4 is the third distinct candidate
    c = conj_of(
        parse_spec("lex(Z)"), "!1x = 0 & !1x = 1*a0 & cong[2, cut1](1x, 0)", "(2)"
    )
    res = solve(c, candidate_budget=2)
    assert res.status is SolveStatus.UNKNOWN
    assert res.reason.startswith("negated literals present")
    res = solve(c, candidate_budget=3)
    assert res.status is SolveStatus.SAT
    assert res.witness == parse_element(c.group, "(4)")


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


def test_oracle_matches_reference_search():
    found = 0
    for conj in random_conjunctions(23, 60):
        x = oracle_search(conj, 2, candidate_budget=1000)
        assert x == _reference_oracle(conj, 2, candidate_budget=1000)
        found += x is not None
    assert 0 < found < 60
    # every witness needs a1, a2 and a3 with odd coefficients: support 3,
    # reached after the combos starting with a0 (other prefixes) are tried
    c = conj_of(
        parse_spec("lex(Gp(2)^3)"),
        "cong[2, cut3](1x, 1*a1 + 1*a2 + 1*a3)",
        "(b1 | 0 | 0) ; (b0 | 0 | 0) ; (0 | b0 | 0) ; (0 | 0 | b0)",
    )
    x = oracle_search(c, 2)
    assert x is not None and x == _reference_oracle(c, 2)


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


def _every_slot_solved(prob):
    """Reference for solver._solve_slots: every slot, live or not, goes
    through _solve_slot.  Pinned coordinates are skipped without checking
    the pins."""
    group = prob.conj.group
    terms = prob.conj.term_values + tuple(c.value for c in prob.congs)
    slots = {}
    for i, block in enumerate(group.blocks):
        if i in prob.coord_pins:
            continue
        here = [
            c for c in prob.congs
            if c.alpha_s > i and (block.kind == "Z" or c.p == block.p)
        ]
        bases = [None]
        if block.kind == "GP":
            support = {b for t in terms for b, _ in t.coords[i]}
            bases = sorted(support) + [max(support, default=-1) + 1]
        for b in bases:
            slots[i, b] = solver._solve_slot(i, b, here)
    return slots


def _slots_or_verdict(fn, prob):
    try:
        return list(fn(prob).items())
    except solver._Decided as decided:
        return decided.result


def _every_slot_expanded(prob):
    """The full slot map that moves() reads: the live slots of phase 3 with
    the zero slots filled in."""
    live = solver._solve_slots(prob)
    return solver._every_slot(prob, live, range(prob.conj.group.K))


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


def test_placement_reads_the_zero_slot_modulus():
    # coordinate 0 is not live (the congruence value is zero there), yet the
    # placement above the bound must land on a multiple of 4, not of 1
    c = conj_of(parse_spec("lex(Z, Q)"), "cong[4, cut1](1x, 0) & 1x > 1*a0", "(5 | 0)")
    prob = solver._normalize(c)
    assert solver._solve_slots(prob) == {}
    assert solver._place_coordinate0(prob, {}) == 8
    res = solve(c)
    assert res.status is SolveStatus.SAT
    assert res.witness == parse_element(c.group, "(8 | 0)")


@pytest.mark.parametrize("seed", [11, 1009])
def test_pre_rejection_is_only_a_necessary_condition(monkeypatch, seed):
    # every candidate the evaluator accepts meets the live slot residues,
    # and pre-rejection changes no verdict or witness under small budgets:
    # a rejected candidate still counts against the budget
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
    assert accepted > 800 and rejected > 50
    budgets = (1, 2, 3, 5)
    got = [solve(c, candidate_budget=b) for c in corpus for b in budgets]
    monkeypatch.setattr(solver, "_meets_slots", lambda x, slots: True)
    assert got == [solve(c, candidate_budget=b) for c in corpus for b in budgets]


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
