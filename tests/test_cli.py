import json
import re
import shlex
from pathlib import Path

import pytest

from oag import SolveResult, SolveStatus
from oag.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_analyze_single_int_block(capsys):
    code, data = run_json(capsys, "analyze", "--spec", "lex(Z)")
    assert code == 0
    assert data["dp_rank_bound"] == 1
    assert data["singular_primes"] == []
    assert data["strongly_dependent"] is True


def test_analyze_example_group(capsys):
    code, data = run_json(capsys, "analyze", "--spec", "lex(Q, Gp(2)^2)")
    assert code == 0
    assert data["singular_primes"] == [2]
    assert data["dp_rank_bound"] == 3
    (s2,) = data["sorts"]
    assert s2["collapsed_count"] == 2 and s2["raw_count"] == 2
    assert s2["raw"][0] == {"p": 2, "cut": 3, "subgroup": "coords>=3"}


def test_analyze_parse_error_exit_2(capsys):
    code, out, err = run(capsys, "analyze", "--spec", "lex(Gp(4))")
    assert code == 2
    assert "parse error" in err


def test_block_prime_above_the_primality_bound_exit_2(capsys):
    code, out, err = run(capsys, "analyze", "--spec", "lex(Gp(3317044064679887385962123))")
    assert code == 2
    assert "primality is decided only below" in err


def test_hsub_command(capsys):
    code, data = run_json(
        capsys,
        "hsub", "--spec", "lex(Q, Gp(2)^2)", "--n", "2", "--elem", "(0 | b0 | 0)",
    )
    assert code == 0
    assert data == {"n": 2, "cut": 2, "subgroup": "coords>=2"}


def test_solve_sat_exit_0(capsys):
    code, data = run_json(
        capsys,
        "solve",
        "--spec", "lex(Q, Gp(2))",
        "--formula", "cong[2, cut2](1x, 1*a0)",
        "--params", "(0 | b0)",
    )
    assert code == 0
    assert data["status"] == "SAT"
    assert data["witness"] == "(0 | b0)"


def test_solve_unsat_exit_1(capsys):
    code, data = run_json(
        capsys,
        "solve",
        "--spec", "lex(Q, Gp(2))",
        "--formula", "1x < 1*a0 & 1x > 1*a1",
        "--params", "(0 | 0) ; (1 | 0)",
        "--oracle-radius", "3",
    )
    assert code == 1
    assert data["status"] == "UNSAT"
    assert data["certificate"]
    assert data["oracle_witness"] is None


def test_solve_unknown_exit_3(capsys):
    code, data = run_json(
        capsys,
        "solve",
        "--spec", "lex(Q, Gp(2))",
        "--formula", "cong[2, cut2](1x, 1*a0) & !cong[2, cut2](1x, 1*a0)",
        "--params", "(0 | b0)",
    )
    assert code == 3
    assert data["status"] == "UNKNOWN"
    assert data["reason"]


@pytest.mark.parametrize(
    "formula, params, extra, code, lines",
    [
        ("cong[2, cut2](1x, 1*a0)", "(0 | b0)", (), 0,
         ["status: SAT", "witness: (0 | b0)"]),
        ("1x < 1*a0 & 1x > 1*a1", "(0 | 0) ; (1 | 0)", ("--oracle-radius", "2"), 1,
         ["status: UNSAT",
          "certificate: {'kind': 'order-bounds-empty', 'literals': [1, 0], "
          "'note': 'the lower bound exceeds the upper bound'}",
          "oracle witness: None"]),
        ("cong[2, cut2](1x, 1*a0) & !cong[2, cut2](1x, 1*a0)", "(0 | b0)", (), 3,
         ["status: UNKNOWN",
          "reason: the negated literals exclude every escape point; outside "
          "the complete fragment"]),
    ],
    ids=["sat", "unsat-with-oracle", "unknown"],
)
def test_solve_text_output(capsys, formula, params, extra, code, lines):
    got, out, _ = run(
        capsys, "solve", "--spec", "lex(Q, Gp(2))", "--formula", formula,
        "--params", params, *extra,
    )
    assert got == code
    assert out.splitlines() == lines


def test_solve_formula_cut_out_of_range(capsys):
    code, out, err = run(
        capsys,
        "solve",
        "--spec", "lex(Q)",
        "--formula", "cong[2, cut5](1x, 0)",
    )
    assert code == 2


def test_normalize_chain(capsys):
    code, data = run_json(
        capsys,
        "normalize",
        "--spec", "lex(Q, Gp(2))",
        "--formula", "cong[12, cut1](6x, 2*a0)",
        "--params", "(0 | 2*b1)",
    )
    assert code == 0
    (entry,) = data["literals"]
    ops = [s["op"] for s in entry["steps"]]
    assert ops[0] == "crt_split"
    assert "reduce_k_prime" in ops and "unit_normalize" in ops
    assert all("1x" in o for o in entry["output"])


def test_normalize_unreducible_exit_3(capsys):
    code, data = run_json(
        capsys,
        "normalize",
        "--spec", "lex(Gp(2))",
        "--formula", "cong[4, cut1](2x, 1*a0)",
        "--params", "b0",
    )
    assert code == 3
    assert "error" in data["literals"][0]


def test_normalize_passes_other_literals_through(capsys):
    argv = (
        "normalize", "--spec", "lex(Z)",
        "--formula", "1x > 1*a0 & cong[4, cut1](2x, 1*a0)", "--params", "(1)",
    )
    code, data = run_json(capsys, *argv)
    assert code == 3
    assert data["literals"][0] == {
        "input": "1x > 1*a0", "steps": [], "output": ["1x > 1*a0"]
    }
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert out.splitlines() == [
        "input:  1x > 1*a0",
        "output: 1x > 1*a0",
        "input:  cong[4, cut1](2x, 1*a0)",
        "  unreducible: " + data["literals"][1]["error"],
    ]


def test_pattern_chain_verify(capsys):
    code, data = run_json(
        capsys,
        "pattern", "chain", "--p", "2", "--depth", "2", "--width", "2",
        "--verify",
    )
    assert code == 0
    assert data["report"]["depth"] == 2
    assert all(r["verdict"] == "true" for r in data["report"]["rows"])
    assert all(p["status"] == "SAT" for p in data["report"]["paths"])


def test_pattern_optimal_verify(capsys):
    code, data = run_json(
        capsys,
        "pattern", "optimal", "--spec", "lex(Q, Gp(2), Gp(3))", "--grid", "2",
        "--verify",
    )
    assert code == 0
    assert data["group"] == "lex(Q, Gp(2), Gp(3))"
    assert data["report"]["depth"] == 3
    assert data["report"]["structural"] == {"sp_lemma": True, "convex_rows": 1}


@pytest.mark.parametrize(
    "argv",
    [
        ("pattern", "optimal", "--spec", "lex(Q, Gp(2)^2)", "--grid", "2"),
        ("pattern", "chain", "--p", "3", "--depth", "3", "--width", "2",
         "--path-budget", "5"),
    ],
)
def test_pattern_json_reports_verdict(capsys, argv):
    code, data = run_json(capsys, *argv, "--verify")
    report = data["report"]
    assert report["verified"] is (code == 0)
    assert report["unknowns"] == []
    assert report["sampled"] is (report["total_paths"] > len(report["paths"]))
    assert all(p["confirmed"] for p in report["paths"])


def test_pattern_optimal_rejects_bad_spec(capsys):
    for spec, message in [
        ("lex(Z, Gp(2))", "needs lex(Q, Gp(p0)^k0, ...)"),
        ("lex(Q, Z)", "blocks after Q must all be Gp(p)"),
        ("lex(Q, Gp(2), Gp(3), Gp(2))", "Gp segments must have distinct primes"),
    ]:
        code, out, err = run(capsys, "pattern", "optimal", "--spec", spec, "--verify")
        assert code == 2
        assert message in err


def test_pattern_with_a_sat_row_pair_exits_1(capsys, monkeypatch):
    import oag.patterns

    # a row pair of chain(2, 1, 2) has 2 instances, a path 1
    real = oag.patterns.solve
    monkeypatch.setattr(
        oag.patterns,
        "solve",
        lambda *parts: SolveResult(SolveStatus.SAT, witness=parts[0].conj.group.zero())
        if len(parts) == 2 else real(*parts),
    )
    code, out, _ = run(
        capsys, "pattern", "chain", "--p", "2", "--depth", "1", "--width", "2",
        "--verify",
    )
    assert code == 1
    assert "verified: False" in out.splitlines()
    assert "row 0: 2-inconsistent: false" in out.splitlines()


@pytest.mark.parametrize(
    "argv",
    [
        ("pattern", "optimal", "--spec", "lex(Q, Gp(2))", "--grid", "2",
         "--verify", "--cross-check", "0"),
        ("solve", "--spec", "lex(Q, Gp(2))", "--formula", "cong[2, cut2](1x, 1*a0)",
         "--params", "(0 | b0)", "--oracle-radius", "0"),
    ],
)
def test_radius_zero_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "radius" in err


def test_json_output_deterministic(capsys):
    args = (
        "pattern", "chain", "--p", "2", "--depth", "4", "--width", "3",
        "--verify", "--path-budget", "10", "--seed", "7", "--json",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv("OAG_SEED", "9")
    from oag import cli

    parser = cli.build_parser()
    args = parser.parse_args(
        ["pattern", "chain", "--p", "2", "--depth", "1", "--width", "1"]
    )
    assert args.seed == 9


def test_seed_env_var_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("OAG_SEED", "abc")
    from oag import cli

    parser = cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(
            ["pattern", "chain", "--p", "2", "--depth", "1", "--width", "1"]
        )
    assert exc.value.code == 2


def _readme_cli_lines():
    """The `oag ...` lines of the README's `## CLI` block, continuations
    joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    return [
        line for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("oag ")
    ]


def test_readme_cli_examples_exit_0(capsys):
    lines = _readme_cli_lines()
    assert lines
    for line in lines:
        bare = re.sub(r"\s*\[(--[^\]]*)\]", "", line)
        full = re.sub(r"\[(--[^\]]*)\]", r"\1", line)
        for example in (bare, full):
            argv = shlex.split(example)[1:]
            code, _, err = run(capsys, *argv)
            assert code == 0, (example, err)
