import re
import shlex
from pathlib import Path

import pytest

from cli_cases import check, load_rows, run_in_process, timed
from oag import SolveResult, SolveStatus


def _table_test(entries):
    """One test over the (bracketed id, row) entries that share a name: a
    parametrized one when every row has an id, else one that runs them all."""
    ids = [i for i, _ in entries]
    rows = [r for _, r in entries]
    assert all(ids) or not any(ids), rows[0]["test"]

    def run_row(row):
        assert check(row, *timed(run_in_process, row["argv"])) == []

    if all(ids):
        return pytest.mark.parametrize("row", rows, ids=ids)(run_row)

    def run_rows():
        for row in rows:
            run_row(row)

    return run_rows


# each row of tests/cli_cases.json runs as the test its "test" key names;
# the rows that replaced hand-written tests keep those tests' ids
_groups: dict[str, list] = {}
for _row in load_rows():
    _name, _, _id = _row["test"].partition("[")
    _groups.setdefault(_name, []).append((_id.rstrip("]"), _row))
for _name, _entries in _groups.items():
    assert _name.startswith("test_") and _name not in globals(), _name
    globals()[_name] = _table_test(_entries)


@pytest.mark.parametrize(
    "bad, problem",
    [
        ({"jsn": {"a": 1}}, "unknown key 'jsn'"),
        ({"json": {"b": 1}}, "b: the output has no 'b' there"),
        ({"json": {"c.2": 2}}, "c.2: the output has no '2' there"),
        ({"json": {"c.*": 1}}, "c.*: 2, expected 1"),
        ({"json": {"d": 1}}, "d: true, expected 1"),
        ({"seconds": 0.5}, "took 0.75 s, bound 0.5 s"),
    ],
    ids=[
        "unknown-key", "absent-key", "absent-index", "every-element", "true-is-not-1",
        "over-time",
    ],
)
def test_cli_case_runner_fails_a_bad_row(bad, problem):
    out = '{"a": 1, "c": [1, 2], "d": true}'
    good = {"test": "t", "argv": [], "code": 0, "json": {"a": 1, "c.#": 2, "c.1": 2, "d": True}}
    assert check(good, 0, out, "", 0.75) == []
    assert check({**good, **bad}, 0, out, "", 0.75) == [problem]


def test_pattern_with_a_sat_row_pair_exits_1(monkeypatch):
    import oag.patterns

    # a row pair of chain(2, 1, 2) has 2 instances, a path 1
    real = oag.patterns.solve
    monkeypatch.setattr(
        oag.patterns,
        "solve",
        lambda *parts: SolveResult(SolveStatus.SAT, witness=parts[0].conj.group.zero())
        if len(parts) == 2 else real(*parts),
    )
    code, out, _ = run_in_process(
        ["pattern", "chain", "--p", "2", "--depth", "1", "--width", "2", "--verify"]
    )
    assert code == 1
    assert "verified: False" in out.splitlines()
    assert "row 0: 2-inconsistent: false" in out.splitlines()


def test_json_output_deterministic():
    args = (
        "pattern", "chain", "--p", "2", "--depth", "4", "--width", "3",
        "--verify", "--path-budget", "10", "--seed", "7", "--json",
    )
    code1, out1, _ = run_in_process(args)
    code2, out2, _ = run_in_process(args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_env_var(monkeypatch):
    monkeypatch.setenv("OAG_SEED", "9")
    from oag import cli

    parser = cli.build_parser()
    args = parser.parse_args(
        ["pattern", "chain", "--p", "2", "--depth", "1", "--width", "1"]
    )
    assert args.seed == 9


def test_seed_env_var_not_an_integer(monkeypatch):
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


def test_readme_cli_examples_exit_0():
    lines = _readme_cli_lines()
    assert lines
    for line in lines:
        bare = re.sub(r"\s*\[(--[^\]]*)\]", "", line)
        full = re.sub(r"\[(--[^\]]*)\]", r"\1", line)
        for example in (bare, full):
            argv = shlex.split(example)[1:]
            code, _, err = run_in_process(argv)
            assert code == 0, (example, err)
