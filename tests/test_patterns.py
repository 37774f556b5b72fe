
import pytest

from oag import (
    ConvexCut,
    GroupSpec,
    InpPattern,
    PSPAN,
    PatternRow,
    Term,
    check_sp_lemma,
    cong,
    count_convex_rows,
    dp_rank_bound,
    evaluate_conj,
    gen_chain_pattern,
    gen_optimal_pattern,
    hsub,
    in_coset,
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
    calls of each path solve and every evaluate_conj call."""
    import oag.patterns
    import oag.solver

    slot_calls, evals, per_path = [0], [0], []
    real_slot, real_solve = oag.solver._solve_slot, oag.patterns.solve

    def counting_slot(*args):
        slot_calls[0] += 1
        return real_slot(*args)

    def counting_eval(conj, x, _real=evaluate_conj):
        evals[0] += 1
        return _real(conj, x)

    def path_solve(conj):
        before = slot_calls[0]
        res = real_solve(conj)
        per_path.append(slot_calls[0] - before)
        return res

    monkeypatch.setattr(oag.solver, "_solve_slot", counting_slot)
    monkeypatch.setattr(oag.solver, "evaluate_conj", counting_eval)
    monkeypatch.setattr(oag.patterns, "evaluate_conj", counting_eval)
    monkeypatch.setattr(oag.patterns, "solve", path_solve)
    report = verify(gen_chain_pattern(2, 3, width).pattern, width**3)
    assert report.verified and len(report.paths) == width**3
    sat = sum(p.status == "SAT" for p in report.paths)
    return set(per_path), evals[0], sat


def test_path_work_does_not_grow_with_K(monkeypatch):
    # K = 12 and K = 20: a path solves the same live slots, and a SAT path
    # costs two evaluations, the solver's accept and verify's confirmation
    with monkeypatch.context() as mp:
        narrow = _path_work(mp, 2)
    with monkeypatch.context() as mp:
        wide = _path_work(mp, 4)
    assert narrow[0] == wide[0] and len(narrow[0]) == 1
    for _, evals, sat in (narrow, wide):
        assert evals == 2 * sat
