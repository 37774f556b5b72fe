"""Checks that the tools outside the test suite, the benchmark under
perfbench/ and the CI workflow, can still reach what they name."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
CI = ROOT / ".github" / "workflows" / "ci.yml"


def _bindings() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BINDINGS


def test_every_tracer_binding_resolves():
    # a traced benchmark run patches each "module:attribute" or
    # "module:Class.attribute" binding in the owner's own namespace; one
    # that a module no longer holds, say after an unused import is dropped,
    # would break every --trace 1 run
    missing = []
    for _, bindings in _bindings().values():
        for binding in bindings:
            module, _, path = binding.partition(":")
            owner = importlib.import_module("oag." + module)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name, None)
            if owner is None or attr not in vars(owner):
                missing.append(binding)
    assert missing == []


def _node_exists(node: str) -> bool:
    """Whether a pytest node id, a file or a file's (class and) test
    function with an optional parameter id, names something in the tree."""
    path, *names = node.split("::")
    file = ROOT / path
    if not file.is_file():
        return False
    scope = ast.parse(file.read_text()).body
    for name in names:
        name = name.split("[")[0]
        found = [n for n in scope if getattr(n, "name", None) == name]
        if not found:
            return False
        scope = getattr(found[0], "body", [])
    return True


def test_every_test_the_hash_seed_step_names_exists():
    # CI reruns the pinned digests and the slot merge under two fixed hash
    # seeds, naming the tests by node id; a test renamed without the step
    # would fail that step on every interpreter
    text = CI.read_text()
    (nodes,) = re.findall(r'^\s*tests="([^"]*)"$', text, re.M)
    seeds = re.findall(r"^\s*PYTHONHASHSEED=(\d+) .*pytest.* \$tests$", text, re.M)
    assert sorted(seeds) == ["0", "12345"]
    assert len(nodes.split()) > 1
    assert [node for node in nodes.split() if not _node_exists(node)] == []
