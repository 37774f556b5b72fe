"""Checks that the benchmark under perfbench/ can still reach the program."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
