"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite is deterministic (fixed seeds throughout).
"""

import json
import random
import time
from fractions import Fraction
from functools import reduce

import pytest

from oag import (
    ConvexCut,
    Element,
    GroupSpec,
    PSPAN,
    RAT,
    SolveStatus,
    Term,
    check_sp_lemma,
    cong,
    conjoin,
    count_convex_rows,
    divide_exact,
    evaluate,
    evaluate_conj,
    gen_chain_pattern,
    gen_optimal_pattern,
    hsub,
    in_coset,
    normalize_type_I,
    oracle_search,
    ord_lit,
    scale,
    unit_element,
    verify,
)
from oag.cli import main
from oag.patterns import InpPattern, PatternRow
from helpers import random_element, random_spec

PASS = "ACCEPTANCE {n}: PASS - {msg}"


def run_cli_json(capsys, *argv):
    code = main([*argv, "--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# --- criterion 1: sorts and bound, single prime ------------------------------


def test_criterion_1_single_prime_bound(capsys):
    t0 = time.perf_counter()
    code, data = run_cli_json(capsys, "analyze", "--spec", "lex(Q, Gp(2)^2)")
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert data["singular_primes"] == [2]
    (s2,) = data["sorts"]
    assert s2["collapsed_count"] == 2
    assert data["dp_rank_bound"] == 3
    assert elapsed < 1.0
    print(PASS.format(n=1, msg=f"bound 3, |S_2|=2, {elapsed:.3f}s"))


# --- criterion 2: sorts and bound, multi prime -------------------------------


def test_criterion_2_multi_prime_bound(capsys):
    t0 = time.perf_counter()
    code, data = run_cli_json(capsys, "analyze", "--spec", "lex(Q, Gp(2), Gp(3))")
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert data["dp_rank_bound"] == 3
    assert [s["collapsed_count"] for s in data["sorts"]] == [1, 1]
    # raw counts are also part of the report (distinct convention documented)
    assert [s["raw_count"] for s in data["sorts"]] == [2, 1]
    assert elapsed < 1.0
    print(PASS.format(n=2, msg=f"bound 3, collapsed (1,1), raw (2,1), {elapsed:.3f}s"))


# --- criteria 3 and 4 share their verification runs with criterion 7 ---------


@pytest.fixture(scope="module")
def optimal_run():
    gen = gen_optimal_pattern([2], [2], 3)
    t0 = time.perf_counter()
    report = verify(gen.pattern, 1000)
    elapsed = time.perf_counter() - t0
    return gen, report, elapsed


@pytest.fixture(scope="module")
def chain_run():
    gen = gen_chain_pattern(2, 4, 3)
    t0 = time.perf_counter()
    report = verify(gen.pattern, 1000)
    elapsed = time.perf_counter() - t0
    return gen, report, elapsed


def test_criterion_3_optimal_pattern(optimal_run):
    gen, report, elapsed = optimal_run
    assert report.verified and report.depth == 3
    # every row 2-inconsistent, pairwise UNSAT with certificates
    for r in report.rows:
        assert r.verdict == "true" and r.k == 2
        for _cols, res in r.pair_results:
            assert res.status is SolveStatus.UNSAT
            assert res.certificate
    # congruence rows carry residue certificates
    for r in report.rows[:-1]:
        for _cols, res in r.pair_results:
            entry = res.certificate[0]
            assert entry.kind == "congruence-conflict"
            assert entry.modulus in (2, 4)
            assert entry.excluded == range(entry.modulus)
    # all 27 paths SAT with evaluator-confirmed closed-form witnesses
    assert len(report.paths) == 27 and not report.sampled
    for p in report.paths:
        assert p.status == "SAT" and p.confirmed
        assert p.witness == gen.witness_of(p.eta)
    assert elapsed < 10.0
    print(PASS.format(n=3, msg=f"depth 3 verified, 27/27 paths, {elapsed:.2f}s"))


def test_criterion_4_chain_pattern(chain_run):
    gen, report, elapsed = chain_run
    assert report.verified and report.depth == 4
    assert len(report.paths) == 81 and not report.sampled
    for p in report.paths:
        assert p.status == "SAT" and p.confirmed
        assert p.witness == gen.witness_of(p.eta)
    assert elapsed < 60.0

    # depth scales linearly with the requested length up to 6
    timings = []
    for n in range(1, 7):
        g_n = gen_chain_pattern(2, n, 3)
        t0 = time.perf_counter()
        rep_n = verify(g_n.pattern, 500, seed=0)
        dt = time.perf_counter() - t0
        timings.append(dt)
        assert rep_n.verified and rep_n.depth == n
    assert timings[-1] < 60.0
    print(
        PASS.format(
            n=4,
            msg=(
                f"depth 4: 81/81 paths in {elapsed:.2f}s; depths 1..6 verified, "
                f"depth 6 in {timings[-1]:.2f}s"
            ),
        )
    )


# --- criterion 5: hsub matches the definition-scan oracle --------------------


def hsub_oracle(a, n):
    failing = [
        s for s in range(a.spec.K + 1) if not in_coset(a, ConvexCut(s), n)
    ]
    return ConvexCut(min(failing)) if failing else ConvexCut(a.spec.K)


def test_criterion_5_hsub_oracle_equivalence():
    rng = random.Random(2024)
    mismatches = 0
    total = 0
    for _ in range(5):
        spec = random_spec(rng)
        for _ in range(100):
            a = random_element(rng, spec)
            n = rng.randint(1, 16)
            total += 1
            if hsub(a, n) != hsub_oracle(a, n):
                mismatches += 1
    assert total == 500 and mismatches == 0
    print(PASS.format(n=5, msg="500/500 hsub values match the scan oracle"))


# --- criterion 6: rewrite soundness ------------------------------------------


def test_criterion_6_rewrite_soundness():
    rng = random.Random(4096)
    mismatches = 0
    pairs = 0
    while pairs < 1000:
        spec = random_spec(rng)
        u = random_element(rng, spec)
        k = rng.choice([1, 2, 3, 4, 5, 6, 9, 10, 12, -2, -6])
        m = rng.choice([1, 2, 3, 4, 6, 8, 9, 12, 18, 20])
        alpha = ConvexCut(rng.randint(0, spec.K))
        t_elem = scale(abs(k), u)  # divisible enough for every reduction step
        lit = cong(k, m, alpha, Term.of({0: 1}))
        if rng.random() < 0.5:
            hints = None  # derived decompositions
        else:
            hints = []
            from oag.numutil import factorize

            for p, e in sorted(factorize(m).items()):
                steps = 0
                kk = abs(k)
                while e - steps >= 1 and kk % p == 0:
                    steps += 1
                    kk //= p
                for j in range(1, steps + 1):
                    hints.append(divide_exact(t_elem, p**j))
        res = normalize_type_I(lit, (t_elem,), spec, hints=hints)
        pairs += 1
        for _ in range(2):
            x = random_element(rng, spec)
            lhs = evaluate(lit, x, (t_elem,))
            rhs = all(evaluate(l, x, res.params) for l in res.literals)
            if lhs != rhs:
                mismatches += 1
    assert pairs == 1000 and mismatches == 0
    print(PASS.format(n=6, msg="1000/1000 rewrite pairs agree on random points"))


# --- criterion 7: solver cross-checks ----------------------------------------


def test_criterion_7_solver_cross_check(optimal_run, chain_run):
    checked_unsat = 0
    for gen, report, _ in (optimal_run, chain_run):
        for r in report.rows:
            for cols, res in r.pair_results:
                assert res.status is SolveStatus.UNSAT
                merged = reduce(
                    conjoin, (gen.pattern.instantiate(r.index, j) for j in cols)
                )
                assert (
                    oracle_search(merged, 4, max_support=2, candidate_budget=40000)
                    is None
                )
                checked_unsat += 1
        for p in report.paths:
            conj = gen.pattern.path_conjunction(p.eta)
            assert evaluate_conj(conj, p.witness)
    print(
        PASS.format(
            n=7,
            msg=(
                f"{checked_unsat} UNSAT row pairs corroborated at radius 4; "
                "all SAT witnesses re-evaluated"
            ),
        )
    )


# --- criterion 8: structural checks over generated + fuzzed patterns ---------


def _fuzz_pattern(rng: random.Random):
    """One random pattern; most are verifiable by construction, some carry
    two convex rows on purpose (those must fail verification)."""
    roll = rng.randrange(10)
    if roll < 3:
        gen = gen_chain_pattern(rng.choice((2, 3, 5)), rng.randint(1, 2), rng.randint(2, 3))
        pattern = gen.pattern
        if rng.random() < 0.5:
            # drop or permute columns; both preserve verifiability
            rows = []
            for row in pattern.rows:
                cols = list(row.columns)
                rng.shuffle(cols)
                rows.append(PatternRow(row.template, tuple(cols[:2]), row.k))
            pattern = InpPattern(pattern.group, tuple(rows))
        return pattern, True
    if roll < 6:
        primes = rng.sample((2, 3, 5), rng.randint(1, 2))
        mults = [rng.randint(1, 2) for _ in primes]
        return gen_optimal_pattern(primes, mults, 2).pattern, True
    if roll < 8:
        # single convex row of disjoint rational intervals
        g = GroupSpec((RAT, PSPAN(2)))
        template = (ord_lit(1, ">", Term.of({0: 1})), ord_lit(1, "<", Term.of({1: 1})))
        start = rng.randint(-5, 5)
        cols = []
        for j in range(3):
            a = Fraction(start + 2 * j)
            b = a + Fraction(rng.randint(1, 3), 4)
            cols.append(
                (Element(g, (a, ())), Element(g, (b, ())))
            )
        row = PatternRow(template, tuple(cols), 2)
        cong_row = PatternRow(
            (cong(1, 2, ConvexCut(2), Term.of({0: 1})),),
            tuple((unit_element(g, 1, basis=j),) for j in range(3)),
            2,
        )
        rows = (row, cong_row) if rng.random() < 0.5 else (cong_row, row)
        return InpPattern(g, rows), True
    # two convex rows: cross pairs overlap, so some path must fail
    g = GroupSpec((RAT,))
    template = (ord_lit(1, ">", Term.of({0: 1})), ord_lit(1, "<", Term.of({1: 1})))

    def interval_row(points):
        return PatternRow(
            template,
            tuple(
                (Element(g, (Fraction(a),)), Element(g, (Fraction(b),)))
                for a, b in points
            ),
            2,
        )

    row_a = interval_row([(0, 1), (2, 3)])
    row_b = interval_row([(Fraction(1, 2), Fraction(5, 2)), (Fraction(3, 5), Fraction(13, 5))])
    return InpPattern(g, (row_a, row_b)), False


def test_criterion_8_structural_checks():
    for gen in (
        gen_optimal_pattern([2], [2], 3),
        gen_optimal_pattern([2, 3], [1, 1], 3),
        gen_chain_pattern(2, 4, 3),
        gen_chain_pattern(3, 2, 2),
    ):
        rep = verify(gen.pattern, 200)
        assert rep.verified
        assert check_sp_lemma(gen.pattern)
        assert count_convex_rows(gen.pattern) <= 1

    rng = random.Random(777)
    verified_count = 0
    double_convex_attempts = 0
    while verified_count < 200:
        pattern, expect_verifiable = _fuzz_pattern(rng)
        rep = verify(pattern, 16, seed=rng.randrange(1 << 16))
        if not expect_verifiable:
            double_convex_attempts += 1
            assert not rep.verified  # two convex rows can never verify
            continue
        assert rep.verified
        verified_count += 1
        assert check_sp_lemma(pattern)
        assert count_convex_rows(pattern) <= 1
    assert double_convex_attempts > 0
    print(
        PASS.format(
            n=8,
            msg=(
                f"200 fuzzed verified patterns satisfy both structural checks "
                f"({double_convex_attempts} two-convex-row attempts all failed "
                "verification)"
            ),
        )
    )
