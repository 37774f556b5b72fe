import json
from fractions import Fraction

import pytest

from oag import (
    ConvexCut,
    GroupSpec,
    InpPattern,
    PSPAN,
    PatternRow,
    SolveResult,
    SolveStatus,
    Term,
    check_sp_lemma,
    check_k_inconsistent,
    cong,
    count_convex_rows,
    dp_rank_bound,
    evaluate_conj,
    gen_chain_pattern,
    gen_optimal_pattern,
    hsub,
    in_coset,
    parse_spec,
    sub,
    unit_element,
    verify,
)


def test_depth_one_incongruent_columns_verifies():
    g = GroupSpec((PSPAN(2),))
    template = (cong(1, 2, ConvexCut(1), Term.of({0: 1})),)
    columns = tuple((unit_element(g, 0, basis=j),) for j in range(4))
    pattern = InpPattern(g, (PatternRow(template, columns, 2),))
    rep = verify(pattern, 100)
    assert rep.verified and rep.depth == 1
    assert all(p.status == "SAT" for p in rep.paths)


def test_repeated_column_fails_row_check():
    g = GroupSpec((PSPAN(2),))
    template = (cong(1, 2, ConvexCut(1), Term.of({0: 1})),)
    col = (unit_element(g, 0),)
    pattern = InpPattern(g, (PatternRow(template, (col, col), 2),))
    rep = verify(pattern, 100)
    assert rep.rows[0].verdict == "false"
    assert not rep.verified


def test_optimal_pattern_single_prime():
    gen = gen_optimal_pattern([2], [2], 3)
    assert str(gen.pattern.group) == "lex(Q, Gp(2)^2)"
    rep = verify(gen.pattern, 100)
    assert rep.verified
    assert rep.depth == 3 == dp_rank_bound(gen.pattern.group)
    assert len(rep.paths) == 27
    for p in rep.paths:
        assert p.status == "SAT" and p.confirmed
        assert p.witness == gen.witness_of(p.eta)


def test_optimal_pattern_two_primes():
    gen = gen_optimal_pattern([2, 3], [1, 1], 3)
    assert str(gen.pattern.group) == "lex(Q, Gp(2), Gp(3))"
    rep = verify(gen.pattern, 100)
    assert rep.verified and rep.depth == 3 == dp_rank_bound(gen.pattern.group)
    assert len(rep.paths) == 27
    for p in rep.paths:
        assert p.witness == gen.witness_of(p.eta)


def test_optimal_depth_meets_bound_various_shapes():
    for primes, mults in ([2], [3]), ([2, 3], [2, 1]), ([2, 3, 5], [1, 1, 1]):
        gen = gen_optimal_pattern(primes, mults, 2)
        rep = verify(gen.pattern, 64)
        assert rep.verified
        assert rep.depth == 1 + sum(mults) == dp_rank_bound(gen.pattern.group)


def test_optimal_interval_row_alone_two_inconsistent():
    gen = gen_optimal_pattern([2], [1], 3)
    interval = gen.pattern.rows[-1]
    pattern = InpPattern(gen.pattern.group, (interval,))
    rep = verify(pattern, 100)
    assert rep.rows[0].verdict == "true"
    assert all(p.status == "SAT" for p in rep.paths)


def test_optimal_columns_pairwise_incongruent():
    gen = gen_optimal_pattern([2, 3], [2, 1], 3)
    for row in gen.pattern.rows[:-1]:
        lit = row.template[0]
        for i in range(len(row.columns)):
            for j in range(i + 1, len(row.columns)):
                d = sub(row.columns[i][0], row.columns[j][0])
                assert not in_coset(d, lit.alpha, lit.m)


def test_chain_pattern_rows_and_paths():
    gen = gen_chain_pattern(2, 3, 2)
    rep = verify(gen.pattern, 100)
    assert rep.verified and rep.depth == 3
    assert len(rep.paths) == 8
    for p in rep.paths:
        assert p.status == "SAT" and p.confirmed
        assert p.witness == gen.witness_of(p.eta)


def test_chain_pattern_carries_int_coefficients():
    # every chain value is integral, so the columns, the path term values
    # and the witnesses keep int coefficients and the element kernel does no
    # Fraction arithmetic on them
    gen = gen_chain_pattern(2, 3, 2)
    rep = verify(gen.pattern, 100)
    elements = [x for row in gen.pattern.rows for col in row.columns for x in col]
    for p in rep.paths:
        elements.append(p.witness)
        elements.extend(gen.pattern.path_conjunction(p.eta).term_values)
    assert len(rep.paths) == 8 and all(p.witness for p in rep.paths)
    for x in elements:
        assert all(type(c) is int for v in x.coords for _, c in v)


def test_chain_pattern_row_inconsistency_small():
    gen = gen_chain_pattern(2, 1, 2)
    rep = verify(gen.pattern, 10)
    assert rep.rows[0].verdict == "true"


def test_chain_witness_satisfies_path():
    gen = gen_chain_pattern(3, 3, 2)
    for eta in [(0, 0, 0), (1, 0, 1), (0, 1, 1)]:
        conj = gen.pattern.path_conjunction(eta)
        assert evaluate_conj(conj, gen.witness_of(eta))


def test_chain_hsub_strictly_interleaves():
    p, depth, width = 2, 3, 3
    gen = gen_chain_pattern(p, depth, width)
    g = gen.pattern.group
    K = g.K

    def coord_e(i):
        return K - 1 - (i - 1) * (width + 1)

    def coord_f(i, j):
        return K - 1 - ((i - 1) * (width + 1) + j)

    for i in range(1, depth + 1):
        e_i = hsub(unit_element(g, coord_e(i)), p)
        e_next = hsub(unit_element(g, coord_e(i + 1)), p)
        prev = e_i
        for j in range(1, width + 1):
            f_ij = hsub(unit_element(g, coord_f(i, j)), p)
            assert prev.s > f_ij.s  # strictly larger subgroup
            prev = f_ij
        assert prev.s > e_next.s


def test_chain_depth_scales():
    for n in (1, 2, 3, 4):
        gen = gen_chain_pattern(2, n, 2)
        rep = verify(gen.pattern, 40, seed=1)
        assert rep.verified
        assert rep.depth == n


def test_cross_check_records_oracle_agreement():
    gen = gen_chain_pattern(2, 2, 2)
    rep = verify(gen.pattern, 20, cross_check_radius=2)
    assert rep.verified
    assert all(r.cross_checked for r in rep.rows)


def test_sp_lemma_on_generated_patterns():
    assert check_sp_lemma(gen_optimal_pattern([2], [2], 2).pattern)
    assert check_sp_lemma(gen_optimal_pattern([2, 3], [2, 2], 2).pattern)
    assert check_sp_lemma(gen_chain_pattern(2, 4, 2).pattern)


def test_sp_lemma_single_row_vacuous():
    g = GroupSpec((PSPAN(2),))
    template = (cong(1, 2, ConvexCut(1), Term.of({0: 1})),)
    columns = tuple((unit_element(g, 0, basis=j),) for j in range(2))
    assert check_sp_lemma(InpPattern(g, (PatternRow(template, columns, 2),)))


def test_sp_lemma_rejects_equal_sorts():
    g = GroupSpec((PSPAN(2), PSPAN(2)))
    rows = []
    for m in (2, 4):
        template = (cong(1, m, ConvexCut(2), Term.of({0: 1})),)
        columns = tuple((unit_element(g, 1, basis=j),) for j in range(2))
        rows.append(PatternRow(template, columns, 2))
    assert not check_sp_lemma(InpPattern(g, tuple(rows)))


def _cong_rows(g, congs):
    """Single-congruence rows cong[m, cut s](1x, 1*a0), one per (m, s)."""
    columns = tuple((unit_element(g, 0, basis=j),) for j in range(2))
    return tuple(
        PatternRow((cong(1, m, ConvexCut(s), Term.of({0: 1})),), columns, 2)
        for m, s in congs
    )


@pytest.mark.parametrize(
    "spec, congs, holds",
    [
        # the smaller subgroup (cut 2) has the smaller exponent and the sort
        # cut 2 lies between; either row order
        ("lex(Gp(2), Gp(2))", [(4, 1), (2, 2)], True),
        ("lex(Gp(2), Gp(2))", [(2, 2), (4, 1)], True),
        # the smaller subgroup has the larger exponent
        ("lex(Gp(2), Gp(2))", [(2, 1), (4, 2)], False),
        # no sort of 2 lies in (1, 2]: block 1 is Q
        ("lex(Gp(2), Q, Gp(2))", [(4, 1), (2, 2)], False),
        # a composite modulus is not a single prime-power row, so only one
        # row of prime 2 is left
        ("lex(Gp(2), Gp(2))", [(6, 1), (2, 1)], True),
    ],
    ids=["smaller-second", "smaller-first", "not-increasing", "no-sort-between",
         "composite-modulus"],
)
def test_sp_lemma_on_row_pairs(spec, congs, holds):
    g = parse_spec(spec)
    assert check_sp_lemma(InpPattern(g, _cong_rows(g, congs))) is holds


def test_count_convex_rows():
    assert count_convex_rows(gen_optimal_pattern([2], [2], 2).pattern) == 1
    assert count_convex_rows(gen_chain_pattern(2, 3, 2).pattern) == 0


def test_verification_report_json_schema():
    gen = gen_chain_pattern(2, 2, 2)
    rep = verify(gen.pattern, 10, seed=5)
    data = rep.to_json_dict()
    assert set(data) == {
        "depth", "rows", "paths", "structural", "seed",
        "total_paths", "sampled", "unknowns", "verified",
    }
    assert data["seed"] == 5
    assert data["total_paths"] == 4 and data["sampled"] is False
    assert data["unknowns"] == [] and data["verified"] is True
    assert set(data["structural"]) == {"sp_lemma", "convex_rows"}
    for row in data["rows"]:
        assert {"index", "k", "verdict"} <= set(row)
    for path in data["paths"]:
        assert set(path) == {"eta", "status", "witness", "confirmed"}
        assert path["confirmed"] is True


def test_verification_report_json_shows_failed_verdict():
    g = GroupSpec((PSPAN(2),))
    template = (cong(1, 2, ConvexCut(1), Term.of({0: 1})),)
    col = (unit_element(g, 0),)
    pattern = InpPattern(g, (PatternRow(template, (col, col), 2),))
    data = verify(pattern, 100).to_json_dict()
    assert data["verified"] is False
    assert data["rows"][0]["verdict"] == "false"


def test_path_sampling_is_seeded_and_deterministic():
    gen = gen_chain_pattern(2, 4, 3)  # 81 paths
    r1 = verify(gen.pattern, 20, seed=42)
    r2 = verify(gen.pattern, 20, seed=42)
    assert r1.sampled and len(r1.paths) == 20
    assert [p.eta for p in r1.paths] == [p.eta for p in r2.paths]
    r3 = verify(gen.pattern, 20, seed=43)
    assert [p.eta for p in r3.paths] != [p.eta for p in r1.paths]


def test_generator_input_validation():
    with pytest.raises(ValueError):
        gen_chain_pattern(4, 2, 2)
    with pytest.raises(ValueError):
        gen_chain_pattern(2, 0, 2)
    with pytest.raises(ValueError):
        gen_optimal_pattern([2, 2], [1, 1], 3)
    with pytest.raises(ValueError):
        gen_optimal_pattern([2], [1], 1)
    with pytest.raises(ValueError):
        gen_optimal_pattern([9], [1], 3)


@pytest.mark.parametrize("bad", [2.5, 2.0, Fraction(2)])
def test_verify_rejects_a_non_integer_budget_or_radius(bad):
    # a path budget of 2.5 sampled 3 paths
    pattern = gen_chain_pattern(2, 2, 2).pattern
    with pytest.raises(TypeError):
        verify(pattern, bad)
    with pytest.raises(TypeError):
        verify(pattern, 4, cross_check_radius=bad)


@pytest.mark.parametrize("bad", [2.0, Fraction(2)], ids=["float", "Fraction"])
def test_pattern_row_rejects_a_non_integer_arity(bad):
    # PatternRow(template, columns, 2.0) was built, and verify then failed
    # inside itertools.combinations
    g = GroupSpec((PSPAN(2),))
    template = (cong(1, 2, ConvexCut(1), Term.of({0: 1})),)
    columns = tuple((unit_element(g, 0, basis=j),) for j in range(3))
    with pytest.raises(TypeError):
        PatternRow(template, columns, bad)
    instances = InpPattern(g, (PatternRow(template, columns, 2),)).instantiate
    with pytest.raises(TypeError):
        check_k_inconsistent([instances(0, j) for j in range(3)], bad)


def test_verify_builds_a_conjunction_only_for_the_cross_check(monkeypatch):
    # verify passes each path to solve as its instances; conjoin builds the
    # conjunction the oracle searches, once per UNSAT row subset, and only
    # with a cross-check radius
    import oag.patterns

    merged = []
    real = oag.patterns.conjoin
    monkeypatch.setattr(
        oag.patterns, "conjoin", lambda *c: merged.append(c) or real(*c)
    )
    patterns = [
        gen_chain_pattern(2, 3, 2).pattern,
        gen_optimal_pattern([2, 3], [1, 1], 2).pattern,
    ]
    for pattern in patterns:
        assert verify(pattern, 100).verified
    assert not merged
    for pattern in patterns:
        rep = verify(pattern, 100, cross_check_radius=1)
        assert rep.verified and all(r.cross_checked for r in rep.rows)
    assert len(merged) == sum(
        len(r.pair_results) for pattern in patterns
        for r in verify(pattern, 100).rows
    )


def test_verify_computes_each_instance_term_once(monkeypatch):
    # every (row, column) instance is built once per verify call, and the
    # row checks and all paths reuse its term values
    import oag.formulas
    import oag.solver

    pattern = gen_chain_pattern(2, 3, 2).pattern
    calls = []

    def counting(term, params, group, _real=oag.formulas.term_value):
        calls.append(term)
        return _real(term, params, group)

    monkeypatch.setattr(oag.formulas, "term_value", counting)
    monkeypatch.setattr(oag.solver, "term_value", counting)
    report = verify(pattern, 8)
    assert report.verified and len(report.paths) == 8
    assert len(calls) == pattern.depth * 2


def _path_work(monkeypatch, width):
    """verify chain(2, 3, width) over every path, counting the _solve_slot
    calls of all path solves, the instance records derived and the pairs of
    records compared over the whole call, every literal evaluation by
    _holds, and every instance check by the reference evaluator, which is
    how solve accepts a witness."""
    import oag.checker
    import oag.formulas
    import oag.patterns
    import oag.solver

    slot_calls, evals, checks, per_path = [0], [0], [0], []
    derived, compared = [], []
    real_slot, real_solve = oag.solver._solve_slot, oag.patterns.solve
    real_derive, real_clashes = oag.solver._derive_slots, oag.solver._clashes
    real_check = oag.checker.InstanceCheck.holds

    def counting_slot(*args):
        slot_calls[0] += 1
        return real_slot(*args)

    def counting_derive(part):
        derived.append(part)
        return real_derive(part)

    def counting_clashes(a, b):
        compared.append((a, b))
        return real_clashes(a, b)

    def counting_holds(lit, x, t, _real=oag.formulas._holds):
        evals[0] += 1
        return _real(lit, x, t)

    def counting_check(self, x, nonzero):
        checks[0] += 1
        return real_check(self, x, nonzero)

    def path_solve(*parts):
        # row pairs reach solve here too; a row pair has 2 parts, a path 3
        if len(parts) != 3:
            return real_solve(*parts)
        before = slot_calls[0]
        res = real_solve(*parts)
        per_path.append(slot_calls[0] - before)
        return res

    monkeypatch.setattr(oag.solver, "_solve_slot", counting_slot)
    monkeypatch.setattr(oag.solver, "_derive_slots", counting_derive)
    monkeypatch.setattr(oag.solver, "_clashes", counting_clashes)
    monkeypatch.setattr(oag.solver, "_holds", counting_holds)
    monkeypatch.setattr(oag.formulas, "_holds", counting_holds)
    monkeypatch.setattr(oag.checker.InstanceCheck, "holds", counting_check)
    monkeypatch.setattr(oag.patterns, "solve", path_solve)
    report = verify(gen_chain_pattern(2, 3, width).pattern, width**3)
    assert report.verified and len(report.paths) == width**3
    sat = sum(p.status == "SAT" for p in report.paths)
    assert len(set(map(id, derived))) == len(derived)
    assert len(set((id(a), id(b)) for a, b in compared)) == len(compared)
    return sum(per_path), len(derived), len(compared), evals[0], checks[0], sat


def test_path_work_does_not_grow_with_K(monkeypatch):
    # K = 12 and K = 20: each of the 3*width (row, column) instances is live
    # on one coordinate; its record is derived once per verify, and each
    # pair of records is compared once: the width*(width-1)/2 row pairs of
    # each row and the width^2 pairs of each two rows on the paths.  No
    # path solves a slot: each path merges its instances' records.  _holds
    # evaluates no literal, and each of a SAT path's 3 instances is checked
    # once by the reference evaluator, in the solver's accept check, the
    # only evaluation of the witness
    for width in (2, 4):
        with monkeypatch.context() as mp:
            slot_calls, derived, compared, evals, checks, sat = _path_work(mp, width)
        assert slot_calls == 0
        assert derived == 3 * width
        assert compared == 3 * width * (width - 1) // 2 + 3 * width**2
        assert evals == 0
        assert checks == 3 * sat


def _reject_second_path(monkeypatch):
    """Make the reference check reject every x on the instance of path (1,)
    of chain(2, 1, 2), the one whose term value is column 1's."""
    import oag.checker

    rejected = gen_chain_pattern(2, 1, 2).pattern.instantiate(0, 1).term_values[0]
    real = oag.checker.InstanceCheck.holds

    def stub(self, x, nonzero):
        return self.checks[0].t != rejected and real(self, x, nonzero)

    monkeypatch.setattr(oag.checker.InstanceCheck, "holds", stub)


def test_an_unconfirmed_witness_fails_the_path_and_the_report(monkeypatch):
    # solve accepts a witness only through the reference check, so a path
    # whose check rejects every candidate is not SAT, and not confirmed
    _reject_second_path(monkeypatch)
    rep = verify(gen_chain_pattern(2, 1, 2).pattern, 100)
    assert [(p.eta, p.status, p.confirmed) for p in rep.paths] == [
        ((0,), "SAT", True),
        ((1,), "UNKNOWN", False),
    ]
    assert rep.paths[1].witness is None
    assert all(r.verdict == "true" for r in rep.rows)
    assert rep.unknowns == (
        "path (1,) undecided: witness assembly failed outside the complete fragment",
    )
    assert not rep.verified


def test_an_unconfirmed_witness_exits_3_and_names_the_path(monkeypatch, capsys):
    # the rejected path is UNKNOWN, not SAT, and an unknown outranks a
    # failed check in the exit code
    from oag.cli import main

    argv = ["pattern", "chain", "--p", "2", "--depth", "1", "--width", "2", "--verify"]
    assert main(argv) == 0
    assert "paths: 2/2 SAT, 2/2 confirmed" in capsys.readouterr().out.splitlines()
    _reject_second_path(monkeypatch)
    assert main(argv) == 3
    lines = capsys.readouterr().out.splitlines()
    assert "verified: False" in lines
    assert "paths: 1/2 SAT, 1/2 confirmed" in lines
    assert (
        "unknown: path (1,) undecided: witness assembly failed outside the complete fragment"
        in lines
    )
    assert main(argv + ["--json"]) == 3
    report = json.loads(capsys.readouterr().out)["report"]
    assert [p["confirmed"] for p in report["paths"]] == [True, False]
    assert [p["status"] for p in report["paths"]] == ["SAT", "UNKNOWN"]
    assert report["verified"] is False


def test_unknown_verdicts_reach_the_report_and_exit_code(monkeypatch, capsys):
    import oag.patterns
    from oag.cli import main

    unknown = SolveResult(SolveStatus.UNKNOWN, reason="stubbed")
    monkeypatch.setattr(oag.patterns, "solve", lambda *parts: unknown)
    g = GroupSpec((PSPAN(2),))
    template = (cong(1, 2, ConvexCut(1), Term.of({0: 1})),)
    columns = tuple((unit_element(g, 0, basis=j),) for j in range(2))
    rep = verify(InpPattern(g, (PatternRow(template, columns, 2),)), 100)
    assert rep.rows[0].verdict == "unknown"
    assert rep.unknowns == (
        "row 0 inconsistency undecided",
        "path (0,) undecided: stubbed",
        "path (1,) undecided: stubbed",
    )
    assert not rep.verified
    argv = ["pattern", "chain", "--p", "2", "--depth", "1", "--width", "2"]
    assert main(argv + ["--verify"]) == 3
    capsys.readouterr()
