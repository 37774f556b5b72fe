"""Regression guard: pinned digests of solver verdicts, oracle results and
CLI pattern output on a seeded corpus.

A refactor that keeps the semantics keeps these digests.  A change that is
meant to alter verdicts, witnesses, certificates or oracle results must
update the pinned values and say why.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from oag import (
    SolveStatus,
    evaluate_conj,
    gen_chain_pattern,
    oracle_search,
    solve,
    verify,
)
from oag.cli import main

from helpers import assert_canonical, random_conjunctions

CORPUS_SEED = 11
CORPUS_SIZE = 600
ORACLE_STRIDE = 10
ORACLE_BUDGET = 300

SOLVE_DIGEST = "24b6beb5c52b1739f58ab9ae2c41b982459b753031721b64aff7c059bb44b850"
ORACLE_DIGEST = "699e0b6ea92455949b0e339798fdb8950c1e02f19438e5abc32d67087a784689"
CLI_DIGEST = "a185b0fe8760a2295cc86f9879571aaa7bf72ff931af6e7b8152c24f06083f0c"
CHAIN_VERIFY_DIGEST = (
    "082f6d8e5b99dc6e810b0df5d6e30cbd7fc60c8a2f8d700462a942672bfc7eb8"
)
SOLVE_MIX_SEEDS = (11, 1009, 5, 77)
SOLVE_MIX_DIGEST = (
    "f955a98d9a9c91c6a34e2cd3ff5e14eaf261132799e24ae1b56566d993fa48aa"
)
# every path of chain(2, 6, 3), the benchmark's chain-verify op
CHAIN_BENCH_OP_DIGEST = (
    "53b1a771f1974d933a719fca9f57267d8ddd3ae97db94a42c9d848872b4a10ca"
)
# The 6000 results of test_solve_mix_digest as the solver gave them before
# its residue-move search was retired (commit 691399b), one line each: the
# status; for a decided result the first 12 hex digits of the sha256 of its
# sorted-key JSON; and "moved" where the SAT witness came from the move
# enumeration or from a candidate that left coordinate 0 unplaced, or where
# it was a parameter, zero or a bound point before the candidates became the
# descent and escape points only.
PARENT_RESULTS = Path(__file__).with_name("solve_mix_parent.txt")
NEW_UNSAT_ORACLE_STRIDE = 10

# report fields added after the digest was pinned; dropped before hashing so
# the digest covers exactly the fields every version emits
_LATER_REPORT_KEYS = ("verified", "total_paths", "sampled", "unknowns")


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_solver_and_oracle_digests():
    corpus = random_conjunctions(CORPUS_SEED, CORPUS_SIZE)
    solved = [solve(conj).to_json_dict() for conj in corpus]
    found = [
        oracle_search(conj, 1, candidate_budget=ORACLE_BUDGET)
        for conj in corpus[::ORACLE_STRIDE]
    ]
    oracle = [None if x is None else str(x) for x in found]
    assert _digest(solved) == SOLVE_DIGEST
    assert _digest(oracle) == ORACLE_DIGEST


def test_cli_pattern_digest():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([
            "pattern", "optimal", "--spec", "lex(Q, Gp(2)^2)", "--grid", "2",
            "--verify", "--cross-check", "1", "--json", "--details",
        ])
    assert code == 0
    data = json.loads(buf.getvalue())
    report = data["report"]
    for key in _LATER_REPORT_KEYS:
        report.pop(key, None)
    for path in report["paths"]:
        path.pop("confirmed", None)
    assert _digest(data) == CLI_DIGEST


def test_chain_verify_digest():
    # every path of chain(2,4,3) (81) and a seeded sample of 30, with the
    # per-pair row verdicts and certificates
    g = gen_chain_pattern(2, 4, 3).pattern
    reports = [
        verify(g, 81).to_json_dict(include_pairs=True),
        verify(g, 30, seed=5).to_json_dict(include_pairs=True),
    ]
    assert _digest(reports) == CHAIN_VERIFY_DIGEST


def test_chain_benchmark_op_digest():
    # its 729 paths read the slots of each (row, column) instance from the
    # instance's memo, so a key that reuses a slot wrongly shows here
    report = verify(gen_chain_pattern(2, 6, 3).pattern, 729)
    assert _digest(report.to_json_dict(include_pairs=True)) == CHAIN_BENCH_OP_DIGEST


def test_solve_mix_digest():
    # 1500 conjunctions per seed, 6000 results, hashed with json.dumps'
    # default separators.  Against the parent results: a decided verdict
    # never changes, an UNSAT certificate never changes, a SAT witness
    # changes only where it is marked "moved", and every SAT witness passes
    # the evaluator and is in canonical form.  A new verdict replaces an
    # UNKNOWN; every tenth new UNSAT is checked against the radius-2 oracle.
    # With no live negated literal the descent point is the one candidate,
    # and no item reaches the UNKNOWN reason left for its failure.
    corpus = [
        conj for seed in SOLVE_MIX_SEEDS for conj in random_conjunctions(seed, 1500)
    ]
    solved = [solve(conj) for conj in corpus]
    results = [res.to_json_dict() for res in solved]
    text = json.dumps(results, sort_keys=True)
    parent = PARENT_RESULTS.read_text().splitlines()
    assert len(parent) == len(corpus)
    new_unsat = 0
    for conj, res, out, line in zip(corpus, solved, results, parent):
        if res.status is SolveStatus.SAT:
            assert evaluate_conj(conj, res.witness)
            assert_canonical(res.witness)
        status, *rest = line.split()
        if status == "UNKNOWN":
            if res.status is SolveStatus.UNSAT:
                new_unsat += 1
                if new_unsat % NEW_UNSAT_ORACLE_STRIDE == 0:
                    assert oracle_search(conj, 2, max_support=2) is None
            continue
        assert res.status.value == status
        digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode())
        if digest.hexdigest()[:12] != rest[0]:
            assert rest[1:] == ["moved"]
    assert new_unsat > 1000
    unbuilt = "witness assembly failed outside the complete fragment"
    assert unbuilt not in {res.reason for res in solved}
    assert hashlib.sha256(text.encode()).hexdigest() == SOLVE_MIX_DIGEST
