"""The benchmark's own tests, on tiny inputs; they finish in seconds.

Run from the root of the repository::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_wrapped_binding_is_hit_and_restored():
    import oag.cli  # noqa: F401  (every traced module loaded before the snapshot)

    originals = {b: getattr(*tracer._resolve(b))
                 for _, bindings in tracer.BINDINGS.values() for b in bindings}
    t = tracer.Tracer()
    t.install()
    try:
        instances = [
            (workloads.ChainVerify, workloads.ChainVerify.make_inputs(1, quick=True)),
            (workloads.SolveMix, workloads.make_corpus(1, 300)),
            # the cross-check reaches oracle_search, which quick mode leaves out
            (workloads.CliCrosscheck, workloads.CliCrosscheck.make_inputs(1, quick=True)
             + ["--cross-check", "1"]),
        ]
        for cls, inputs in instances:
            w = t.run("setup", lambda: cls(inputs))
            for i in range(len(inputs) if cls is workloads.SolveMix else 2):
                assert w.check(i, t.run(i, lambda: w.op(i))) == []
    finally:
        t.restore()
    assert [b for b in originals if not t.hits[b]] == []
    assert [b for b, obj in originals.items() if getattr(*tracer._resolve(b)) is not obj] == []
    assert t.unrestored() == []


def test_totals_split_self_time_from_children():
    t = tracer.Tracer()
    t.spans[:] = [
        ("bench", 0.0, 10.0, -1, 0, None),
        ("solver.solve", 1.0, 9.0, 0, 0, "sat"),
        ("formulas.evaluate_conj", 2.0, 5.0, 1, 0, True),
        ("formulas.evaluate_conj", 5.0, 6.0, 1, 0, False),
        ("formulas.evaluate_conj", 20.0, 21.0, -1, None, True),  # outside ops
    ]
    ops = t.totals(setup=False)
    assert ops.ops == 1 and ops.wall == 10.0
    assert ops.self_s["solver.solve"] == 4.0 and ops.self_s["solver.solve.sat"] == 4.0
    assert ops.calls["formulas.evaluate_conj"] == 2
    assert ops.calls["solver.candidates"] == 2 and ops.calls["solver.candidates.accepted"] == 1
    assert ops.share(ops.layer_s["bench"]) == pytest.approx(20.0)


def test_corpus_is_seeded():
    assert workloads.make_corpus(5, 30) == workloads.make_corpus(5, 30)
    assert workloads.make_corpus(5, 30) != workloads.make_corpus(6, 30)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_reports_every_metric(name, trace):
    done = _run("--workload", name, "--seed", "3", "--seconds", "0.5",
                "--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert done.stdout.startswith("machine: nproc=")


def test_solve_mix_verdict_digest_repeats():
    digests = []
    for _ in range(2):
        done = _run("--workload", "solve-mix", "--seed", "4", "--seconds", "0.3",
                    "--trace", "0", "--quick")
        digests.append([l for l in done.stdout.splitlines() if "verdict digest" in l])
    assert digests[0] and digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "solve-mix", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
