"""Tracing from the benchmark's side: spans and counters around the public
functions of each ``oag`` layer, installed by patching module bindings.

Modules import each other with ``from .x import y``, so a function is
reachable through several module attributes; ``BINDINGS`` lists, for every
traced name, each attribute the workloads reach it through, and all of them
are patched.  The hottest primitives get bare counters instead of spans.
``restore`` puts every original object back, so untraced runs measure
unwrapped code.

A span is ``(name, start, end, parent, op, tag)``: ``parent`` is the index
of the enclosing span (-1 for none), ``op`` the benchmark op it belongs to
(``"setup"`` while inputs are built, ``None`` outside ops, e.g. during
output checks) and ``tag`` an outcome: the solver's status or the
evaluator's verdict.  Spans stay in memory until ``write``.  Counters are
keyed by op, name and the name of the innermost open span.
"""

from __future__ import annotations

import gzip
import importlib
from collections import Counter, defaultdict
from time import perf_counter

SPAN, COUNT = "span", "count"

# traced name -> (kind, ["module:attribute" or "module:Class.attribute", ...])
BINDINGS = {
    "groups.Element.validate": (COUNT, ["groups:Element.__post_init__"]),
    "groups.arith": (COUNT, [
        "groups:add", "formulas:scale", "formulas:sub",
        "solver:neg", "solver:scale", "solver:sub", "patterns:scale",
    ]),
    "groups.compare": (SPAN, ["formulas:compare", "solver:compare"]),
    "groups.span_enclosure": (COUNT, ["groups:span_enclosure", "solver:span_enclosure"]),
    "numutil.factorize": (SPAN, ["formulas:factorize", "solver:factorize", "patterns:factorize"]),
    "numutil.nth_prime": (COUNT, ["groups:nth_prime"]),
    "numutil.sqrt_enclosure": (COUNT, ["groups:sqrt_enclosure"]),
    "convex.in_coset": (COUNT, ["formulas:in_coset"]),
    "convex.hsub": (COUNT, ["patterns:hsub"]),
    "formulas.evaluate_conj": (SPAN, ["solver:evaluate_conj", "patterns:evaluate_conj"]),
    "formulas.term_value": (SPAN, ["formulas:term_value", "solver:term_value"]),
    "formulas.conjoin": (SPAN, ["patterns:conjoin"]),
    "formulas.normalize_type_I": (SPAN, ["solver:normalize_type_I"]),
    "solver.solve": (SPAN, ["solver:solve", "patterns:solve"]),
    "solver.oracle_search": (SPAN, ["patterns:oracle_search"]),
    "patterns.verify": (SPAN, ["patterns:verify", "cli:verify"]),
    "patterns.path_conjunction": (SPAN, ["patterns:InpPattern.path_conjunction"]),
    "patterns.gen": (SPAN, ["patterns:gen_chain_pattern", "cli:gen_optimal_pattern"]),
    "parsing.parse": (SPAN, [
        "parsing:parse_spec", "parsing:parse_params", "parsing:parse_formula",
        "cli:parse_spec",
    ]),
    "cli.main": (SPAN, ["cli:main"]),
}

_TAGS = {
    "solver.solve": lambda res: res.status.value.lower(),
    "formulas.evaluate_conj": bool,
}

# the modules of src/oag (errors does no work) and the benchmark's own code
LAYERS = ("groups", "numutil", "convex", "formulas", "solver", "patterns",
          "parsing", "cli", "bench")

# per-op counts reported as per-layer metrics, in report order
COUNTED = (
    "groups.Element.validate", "groups.arith", "groups.compare",
    "groups.span_enclosure", "numutil.factorize", "numutil.nth_prime",
    "numutil.sqrt_enclosure", "convex.in_coset", "formulas.evaluate_conj",
    "formulas.term_value", "formulas.normalize_type_I", "solver.solve",
    "solver.solve.sat", "solver.solve.unsat", "solver.solve.unknown",
    "parsing.parse",
)
# spans whose self time is reported as a share of op wall time
TIMED = (
    "groups.compare", "numutil.factorize", "formulas.evaluate_conj",
    "formulas.term_value", "formulas.conjoin", "formulas.normalize_type_I",
    "solver.solve.sat", "solver.solve.unsat", "solver.solve.unknown",
    "solver.oracle_search", "patterns.verify", "patterns.path_conjunction",
    "patterns.gen", "parsing.parse", "cli.main",
)


def _resolve(binding: str):
    """(owner, attribute name) of a "module:attribute" binding."""
    module, _, path = binding.partition(":")
    owner = importlib.import_module("oag." + module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.hits: Counter = Counter()  # binding -> calls through it
        self.op = None
        self._stack: list[int] = []
        self._names: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}  # binding -> unwrapped object
        self._root = self._span("bench", "bench", lambda fn: fn())

    def install(self) -> None:
        # resolve (and so import) every module before patching any, so no
        # module binds a wrapper by importing it from a patched one
        targets = [(name, kind, b, *_resolve(b))
                   for name, (kind, bindings) in BINDINGS.items() for b in bindings]
        for name, kind, binding, owner, attr in targets:
            original = owner.__dict__[attr]
            self.originals.setdefault(binding, original)
            self._patched.append((owner, attr, original))
            make = self._span if kind == SPAN else self._counter
            setattr(owner, attr, make(name, binding, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Bindings that do not hold their original object."""
        return [b for b, original in self.originals.items()
                if getattr(*_resolve(b)) is not original]

    def run(self, op, fn):
        """fn() as benchmark op ``op``, under a root span named "bench"."""
        self.op = op
        try:
            return self._root(fn)
        finally:
            self.op = None

    def _span(self, name, binding, fn):
        spans, stack, names, hits = self.spans, self._stack, self._names, self.hits
        tag_of = _TAGS.get(name)

        def wrapper(*args, **kwargs):
            hits[binding] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            names.append(name)
            tag = "error"
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                tag = tag_of(result) if tag_of else None
                return result
            finally:
                end = perf_counter()
                stack.pop()
                names.pop()
                spans[idx] = (name, start, end, parent, self.op, tag)

        return wrapper

    def _counter(self, name, binding, fn):
        names, hits, counts = self._names, self.hits, self.counts

        def wrapper(*args, **kwargs):
            hits[binding] += 1
            counts[self.op, name, names[-1] if names else None] += 1
            return fn(*args, **kwargs)

        return wrapper

    def totals(self, setup: bool) -> "Totals":
        """Calls and self time per name over the set-up, or over the ops."""
        covered = defaultdict(float)  # span index -> time its children cover
        for name, start, end, parent, op, tag in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        t = Totals()
        for idx, (name, start, end, parent, op, tag) in enumerate(self.spans):
            if op is None or (op == "setup") != setup:
                continue
            self_s = end - start - covered[idx]
            keys = [name]
            if name == "solver.solve":
                keys.append(f"solver.solve.{tag}")
            elif name == "formulas.evaluate_conj" and parent >= 0 \
                    and self.spans[parent][0] == "solver.solve":
                t.calls["solver.candidates"] += 1
                t.calls["solver.candidates.accepted"] += tag is True
            for key in keys:
                t.calls[key] += 1
                t.self_s[key] += self_s
            t.layer_s[name.split(".")[0]] += self_s
            if parent < 0:
                t.ops += 1
                t.wall += end - start
        for (op, name, inner), n in self.counts.items():
            if op is None or (op == "setup") != setup:
                continue
            t.calls[name] += n
            if name == "groups.arith" and inner == "solver.oracle_search":
                t.calls["solver.oracle_search.arith"] += n
        return t

    def write(self, path) -> None:
        """Write every recorded span, one tab-separated line each."""
        with gzip.open(path, "wt") as out:
            out.write("name\tstart\tend\tparent\top\ttag\n")
            for span in self.spans:
                out.write("\t".join(map(str, span)) + "\n")


class Totals:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.layer_s: Counter = Counter()
        self.ops = 0
        self.wall = 0.0

    def share(self, seconds: float) -> float:
        return 100.0 * seconds / self.wall if self.wall else 0.0


def per_layer_metrics(ops: Totals, setup: Totals) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, per op, as {name: (value, unit)}."""
    n = ops.ops or 1
    out = {f"{name}.calls": (ops.calls[name] / n, "count") for name in COUNTED}
    out["convex.hsub.setup_calls"] = (float(setup.calls["convex.hsub"]), "count")
    solves, cands = ops.calls["solver.solve"], ops.calls["solver.candidates"]
    out["solver.candidates_per_solve"] = (cands / solves if solves else 0.0, "count")
    out["solver.sat_per_candidate"] = (
        ops.calls["solver.candidates.accepted"] / cands if cands else 0.0, "ratio")
    out["solver.oracle_search.arith_calls"] = (
        ops.calls["solver.oracle_search.arith"] / n, "count")
    for name in TIMED:
        out[f"{name}.self_pct"] = (ops.share(ops.self_s[name]), "%")
    out["patterns.gen.setup_pct"] = (setup.share(setup.self_s["patterns.gen"]), "%")
    return out


def print_table(ops: Totals, setup: Totals) -> None:
    """The per-layer table: calls, self time and share of op wall time."""
    n = ops.ops or 1
    print(f"per-layer table ({ops.ops} traced ops, {ops.wall / n * 1e3:.3f} ms wall/op;"
          " self time is span time minus child spans; counters have no time)")
    print(f"  {'name':40} {'calls/op':>12} {'self ms/op':>12} {'share %':>8}")
    names = sorted(k for k in ops.calls if not k.startswith("solver.candidates")
                   and k != "solver.oracle_search.arith")
    for name in names:
        timed = name in ops.self_s
        self_ms = f"{ops.self_s[name] / n * 1e3:12.3f}" if timed else f"{'-':>12}"
        share = f"{ops.share(ops.self_s[name]):8.2f}" if timed else f"{'-':>8}"
        print(f"  {name:40} {ops.calls[name] / n:12.1f} {self_ms} {share}")
    print("  layer self-time shares of op wall time: " + ", ".join(
        f"{layer} {ops.share(ops.layer_s[layer]):.1f}%" for layer in LAYERS))
    if setup.wall:
        print(f"  set-up: {setup.wall * 1e3:.3f} ms traced, patterns.gen self "
              f"{setup.self_s['patterns.gen'] * 1e3:.3f} ms")
