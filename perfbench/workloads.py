"""The benchmark's workloads: input generation, the timed op, output checks.

Each workload is split in three so that set-up time measures only the
program's side:

* ``make_inputs(seed, quick)`` builds the inputs from the seed on the
  benchmark's side (plain data and text, no ``oag`` call);
* the constructor is the program-side set-up: ``import oag`` and whatever
  the program builds from the inputs before the first op (pattern
  generation for ``chain-verify``);
* ``op(i)`` is one timed operation and ``check(i, result)`` returns the
  list of problems found in its output (empty when correct).  Checks run
  outside the timed region.

``quick`` selects tiny sizes so the benchmark's own tests finish in seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

# --- chain-verify ---------------------------------------------------------


class ChainVerify:
    """op = verify(gen_chain_pattern(2, 6, 3).pattern, 729): all 729 paths
    and all 18 row pairs solved over K = 28 Gp(2) coordinates."""

    @staticmethod
    def make_inputs(seed: int, quick: bool) -> dict:
        depth, width = (2, 2) if quick else (6, 3)
        return {"p": 2, "depth": depth, "width": width,
                "budget": width**depth, "seed": seed}

    def __init__(self, inputs: dict):
        import oag.patterns

        self.patterns = oag.patterns
        self.inputs = inputs
        self.gen = oag.patterns.gen_chain_pattern(
            inputs["p"], inputs["depth"], inputs["width"]
        )
        self.first_digest: str | None = None
        self.decided = self.solves = 0

    def op(self, i: int):
        return self.patterns.verify(
            self.gen.pattern, self.inputs["budget"], seed=self.inputs["seed"]
        )

    def check(self, i: int, report) -> list[str]:
        digest = _digest(report.to_json_dict())
        if self.first_digest is not None:
            return [] if digest == self.first_digest else ["report differs from op 0"]
        self.first_digest = digest
        from oag.formulas import evaluate_conj

        problems = []
        if not report.verified:
            problems.append("report is not verified")
        if report.sampled or len(report.paths) != report.total_paths:
            problems.append("not every path was checked")
        for path in report.paths:
            conj = self.gen.pattern.path_conjunction(path.eta)
            if path.witness is None or not evaluate_conj(conj, path.witness):
                problems.append(f"path {path.eta}: witness fails evaluate_conj")
        statuses = [res.status.value for row in report.rows
                    for _, res in row.pair_results]
        statuses += [path.status for path in report.paths]
        self.solves = len(statuses)
        self.decided = sum(s != "UNKNOWN" for s in statuses)
        return problems


# --- solve-mix --------------------------------------------------------------

_PRIMES = (2, 3, 5)
_KS = (1, 2, 3, 5, 6, -1, -3, 4)
_MODULI = (1, 2, 3, 4, 6, 8, 9, 12, 18)
_CMPS = ("<", "<=", "=", ">=", ">")
_LIT_KINDS = ("cong", "ncong", "ord", "ingrp", "neq", "notingrp")


def _frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _local_fraction(rng: random.Random, p: int) -> Fraction:
    den = rng.choice([d for d in (1, 2, 3, 5, 7, 9) if d % p])
    return Fraction(rng.randint(-24, 24), den)


def _coord_text(rng: random.Random, kind: str, p: int | None) -> str:
    if kind == "Z":
        return str(rng.randint(-20, 20))
    if kind == "Q":
        return _frac_text(Fraction(rng.randint(-24, 24), rng.randint(1, 9)))
    if kind == "Zloc":
        return _frac_text(_local_fraction(rng, p))
    pairs: dict[int, Fraction] = {}
    for _ in range(rng.randint(0, 3)):
        pairs[rng.randrange(4)] = _local_fraction(rng, p)
    parts = []
    for idx, c in sorted((i, c) for i, c in pairs.items() if c):
        body = f"b{idx}" if abs(c) == 1 else f"{_frac_text(abs(c))}*b{idx}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts) or "0"


def _spec_text(blocks: list[tuple[str, int | None]]) -> str:
    names = [kind if p is None else f"{kind}({p})" for kind, p in blocks]
    runs: list[list] = []
    for name in names:
        if runs and runs[-1][0] == name:
            runs[-1][1] += 1
        else:
            runs.append([name, 1])
    return "lex(" + ", ".join(n + (f"^{c}" if c > 1 else "") for n, c in runs) + ")"


def _literal_text(rng: random.Random, K: int, n_params: int) -> str:
    kind = rng.choice(_LIT_KINDS)
    k = rng.choice(_KS)
    coeffs: dict[int, int] = {}
    for _ in range(rng.randint(1, min(3, n_params))):
        coeffs[rng.randrange(n_params)] = rng.randint(-3, 3) or 1
    term = " + ".join(f"{c}*a{i}" for i, c in sorted(coeffs.items()))
    cut = rng.randint(0, K)
    if kind in ("cong", "ncong"):
        text = f"cong[{rng.choice(_MODULI)}, cut{cut}]({k}x, {term})"
        return text if kind == "cong" else "!" + text
    if kind == "ord":
        return f"{k}x {rng.choice(_CMPS)} {term}"
    if kind == "neq":
        return f"!{k}x = {term}"
    text = f"ing[cut{cut}]({k}x, {term})"
    return text if kind == "ingrp" else "!" + text


def make_corpus(seed: int, size: int) -> list[tuple[str, str, str]]:
    """Seeded (spec, params, formula) texts in the library's canonical
    formatting: up to 3 blocks of all four kinds, 1-3 parameters and 1-3
    literals of all six kinds."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(size):
        blocks = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(("Z", "Q", "Zloc", "Gp"))
            blocks.append((kind, rng.choice(_PRIMES) if kind in ("Zloc", "Gp") else None))
        n_params = rng.randint(1, 3)
        params = "; ".join(
            "(" + " | ".join(_coord_text(rng, kind, p) for kind, p in blocks) + ")"
            for _ in range(n_params)
        )
        formula = " & ".join(
            _literal_text(rng, len(blocks), n_params)
            for _ in range(rng.randint(1, 3))
        )
        corpus.append((_spec_text(blocks), params, formula))
    return corpus


class SolveMix:
    """op = parse one conjunction's text and solve it; the ops cycle through
    a seeded corpus.  The first pass over the corpus is checked in full,
    later passes must reproduce its verdicts and witnesses."""

    SIZE, QUICK_SIZE = 12000, 20
    ORACLE_RADIUS, ORACLE_BUDGET = 1, 300
    DIGEST_ITEMS = 4000

    @staticmethod
    def make_inputs(seed: int, quick: bool) -> list[tuple[str, str, str]]:
        return make_corpus(seed, SolveMix.QUICK_SIZE if quick else SolveMix.SIZE)

    def __init__(self, corpus: list[tuple[str, str, str]]):
        import oag.formulas
        import oag.parsing
        import oag.solver
        from oag.groups import format_element

        self.formulas, self.parsing, self.solver = oag.formulas, oag.parsing, oag.solver
        self.format_element = format_element
        self.corpus = corpus
        self.verdicts: list[tuple[str, str | None]] = []

    def op(self, i: int):
        spec_text, params_text, formula_text = self.corpus[i % len(self.corpus)]
        spec = self.parsing.parse_spec(spec_text)
        params = self.parsing.parse_params(spec, params_text)
        literals = self.parsing.parse_formula(formula_text)
        conj = self.formulas.Conjunction(spec, literals, params)
        return conj, self.solver.solve(conj)

    def check(self, i: int, result) -> list[str]:
        conj, res = result
        verdict = (res.status.value, None if res.witness is None else str(res.witness))
        j = i % len(self.corpus)
        if j < len(self.verdicts):
            return [] if verdict == self.verdicts[j] else [f"item {j}: verdict changed"]
        self.verdicts.append(verdict)
        problems = []
        # parsing then formatting gives the corpus text back
        back = (str(conj.group), "; ".join(map(self.format_element, conj.params)),
                self.formulas.format_conjunction(conj))
        if back != self.corpus[j]:
            problems.append(f"item {j}: text does not round-trip")
        if res.status.value == "SAT" and not self.formulas.evaluate_conj(conj, res.witness):
            problems.append(f"item {j}: SAT witness fails evaluate_conj")
        if res.status.value == "UNSAT":
            found = self.solver.oracle_search(
                conj, self.ORACLE_RADIUS, candidate_budget=self.ORACLE_BUDGET
            )
            if found is not None:
                problems.append(f"item {j}: oracle found a witness to an UNSAT verdict")
        return problems

    @property
    def solves(self) -> int:
        return len(self.verdicts)

    @property
    def decided(self) -> int:
        return sum(status != "UNKNOWN" for status, _ in self.verdicts)

    def verdict_digest(self) -> tuple[int, str]:
        """Digest of the first DIGEST_ITEMS verdicts, which every full run
        reaches, so runs of one seed can be compared."""
        head = self.verdicts[:self.DIGEST_ITEMS]
        return len(head), _digest(head)


# --- cli-crosscheck ---------------------------------------------------------


class CliCrosscheck:
    """op = in-process ``oag pattern optimal ... --verify --cross-check 1
    --json`` with stdout captured."""

    @staticmethod
    def make_inputs(seed: int, quick: bool) -> list[str]:
        grid = ["--grid", "2"] if quick else ["--grid", "3", "--cross-check", "1"]
        return ["pattern", "optimal", "--spec", "lex(Q, Gp(2)^2, Gp(3))",
                *grid, "--verify", "--json", "--seed", str(seed)]

    def __init__(self, argv: list[str]):
        import oag.cli

        self.cli = oag.cli
        self.argv = argv
        self.cross_check = "--cross-check" in argv
        self.first_output: str | None = None
        self.decided = self.solves = 0

    def op(self, i: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(self.argv)
        return code, out.getvalue()

    def check(self, i: int, result) -> list[str]:
        code, output = result
        problems = [] if code == 0 else [f"exit code {code}"]
        if self.first_output is not None:
            if output != self.first_output:
                problems.append("output differs from op 0")
            return problems
        self.first_output = output
        report = json.loads(output)["report"]
        if self.cross_check and not all(r.get("cross_checked") for r in report["rows"]):
            problems.append("a row is not cross-checked")
        verdicts = [r["verdict"] for r in report["rows"]]
        statuses = [p["status"] for p in report["paths"]]
        if any(v != "true" for v in verdicts) or any(s != "SAT" for s in statuses):
            problems.append("pattern not verified")
        self.solves = len(verdicts) + len(statuses)
        self.decided = sum(v != "unknown" for v in verdicts) + sum(
            s != "UNKNOWN" for s in statuses
        )
        return problems


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


WORKLOADS = {
    "chain-verify": ChainVerify,
    "solve-mix": SolveMix,
    "cli-crosscheck": CliCrosscheck,
}
