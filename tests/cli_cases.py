"""The runner of tests/cli_cases.json, the table of `oag` command cases.

The table holds one JSON object per line, one row per case:

- ``test``: the test id the row runs as in tests/test_cli.py, for example
  ``test_cli_case[solve-crt]``.  Rows that share an id without brackets run
  as one test.
- ``argv``: the arguments after ``oag``.
- ``code``: the expected exit code.
- ``json`` (optional): ``{path: value}`` checks on the JSON printed to stdout.
  A path is dot-separated keys and list indices.  A ``*`` segment takes every
  element of a list, and a ``#`` segment its length.  Values compare as JSON
  text, so ``true`` does not match ``1``.
- ``stdout`` (optional): the exact lines of stdout.
- ``stderr`` (optional): a substring of stderr.

A row with any other key, or a path that the output lacks, fails.

tests/test_cli.py runs every row in-process through ``oag.cli.main``.  Given
a command prefix, this script runs every row as a subprocess, prints the rows
that fail, and exits 1 if any did::

    python tests/cli_cases.py oag
    PYTHONPATH=src python tests/cli_cases.py python -m oag.cli
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

TABLE = Path(__file__).with_name("cli_cases.json")
KEYS = {"test", "argv", "code", "json", "stdout", "stderr"}


def load_rows() -> list[dict]:
    return json.loads(TABLE.read_text())


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    from oag.cli import main  # here, so the subprocess mode needs no importable oag

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_command(prefix: list[str], argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run([*prefix, *argv], capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def _values(data, path: str) -> list:
    values = [data]
    for seg in path.split("."):
        step = []
        for v in values:
            if isinstance(v, list) and seg == "*":
                step.extend(v)
            elif isinstance(v, list) and seg == "#":
                step.append(len(v))
            elif isinstance(v, list) and seg.isdigit() and int(seg) < len(v):
                step.append(v[int(seg)])
            elif isinstance(v, dict) and seg in v:
                step.append(v[seg])
            else:
                raise LookupError(f"{path}: the output has no {seg!r} there")
        values = step
    return values


def _text(value) -> str:
    return json.dumps(value, sort_keys=True)


def check(row: dict, code: int, out: str, err: str) -> list[str]:
    """What the output (code, stdout, stderr) misses of the row; empty when
    the row passes."""
    problems = [f"unknown key {k!r}" for k in sorted(row.keys() - KEYS)]
    if problems:
        return problems
    if code != row["code"]:
        problems.append(f"exit code {code}, expected {row['code']}")
    if "json" in row:
        try:
            data = json.loads(out)
        except ValueError:
            return problems + [f"stdout is not JSON: {out[:200]!r}"]
        for path, want in row["json"].items():
            try:
                got = _values(data, path)
            except LookupError as exc:
                problems.append(str(exc))
                continue
            bad = [g for g in got if _text(g) != _text(want)]
            if bad:
                problems.append(f"{path}: {_text(bad[0])[:200]}, expected {_text(want)}")
    if "stdout" in row and out.splitlines() != row["stdout"]:
        problems.append(f"stdout lines {out.splitlines()!r}, expected {row['stdout']!r}")
    if "stderr" in row and row["stderr"] not in err:
        problems.append(f"stderr {err!r} lacks {row['stderr']!r}")
    return problems


def main(prefix: list[str]) -> int:
    rows = load_rows()
    failed = 0
    for row in rows:
        problems = check(row, *run_command(prefix, row["argv"]))
        if problems:
            failed += 1
            print(f"FAIL {row['test']} {row['argv']}: " + "; ".join(problems))
    print(f"{len(rows) - failed} of {len(rows)} rows passed")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python tests/cli_cases.py COMMAND [ARG ...]")
    sys.exit(main(sys.argv[1:]))
