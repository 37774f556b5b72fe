"""The reference evaluator of oag.checker against the literal evaluator of
oag.formulas, and its independence from it."""

import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oag
import oag.checker
import oag.convex
import oag.formulas
import oag.groups
import oag.numutil
from oag import (
    INT,
    PLOCAL,
    PSPAN,
    RAT,
    Conjunction,
    ConvexCut,
    Element,
    GroupSpec,
    LitKind,
    Literal,
    SpecMismatchError,
    Term,
    evaluate_conj,
    gen_chain_pattern,
    gen_optimal_pattern,
    scale,
    sub,
)
from oag.checker import InstanceCheck, confirm, holds
from oag.formulas import _holds

from helpers import random_conjunctions, random_element

BLOCKS = (INT, RAT, PLOCAL(2), PLOCAL(3), PSPAN(2), PSPAN(3))
# k and m: negative k, m = 1, prime powers and composites
KS = (1, -1, 2, -2, 3, 4, -6, 9)
MODULI = (1, 2, 3, 4, 8, 9, 27, 5, 6, 12, 18, 36)
CMPS = ("<", "<=", "=", ">=", ">")
FORBIDDEN = (
    "_holds", "in_coset", "in_subgroup", "coset_key", "block_residues",
    "block_modulus", "sub", "residue_mod",
)


def _rational(draw, p=None):
    """A small rational, an int or a Fraction, whose denominator is prime
    to p."""
    dens = [d for d in (1, 1, 2, 3, 4, 5, 9) if p is None or d % p]
    return Fraction(draw(st.integers(-60, 60)), draw(st.sampled_from(dens)))


def _value(draw, block):
    if block.kind == "Z":
        return draw(st.integers(-60, 60))
    if block.kind == "Q":
        return _rational(draw)
    if block.kind == "ZLOC":
        return _rational(draw, block.p)
    bases = draw(st.lists(st.integers(0, 3), max_size=3, unique=True))
    return tuple((b, _rational(draw, block.p)) for b in bases)


def _element(draw, spec):
    return Element(spec, tuple(_value(draw, b) for b in spec.blocks))


@st.composite
def literal_cases(draw):
    """(literal, x, t, near): t is k*x minus an element of H_s + mG (of H_s
    for the subgroup literals, 0 for the order ones) when near is True, so
    the positive kinds hold there, and anything otherwise."""
    spec = GroupSpec(tuple(draw(st.lists(st.sampled_from(BLOCKS), min_size=1, max_size=4))))
    kind = draw(st.sampled_from(list(LitKind)))
    k, m = draw(st.sampled_from(KS)), draw(st.sampled_from(MODULI))
    s = draw(st.integers(0, spec.K))
    cut = ConvexCut(s)
    term = Term.of({0: 1})
    if kind in (LitKind.CONG, LitKind.NCONG):
        lit = Literal(kind, k, term, m=m, alpha=cut)
    elif kind in (LitKind.INGRP, LitKind.NOTINGRP):
        lit = Literal(kind, k, term, alpha=cut)
    elif kind is LitKind.ORD:
        lit = Literal(kind, k, term, cmp=draw(st.sampled_from(CMPS)))
    else:
        lit = Literal(kind, k, term)
    x = _element(draw, spec)
    near = draw(st.booleans())
    if not near:
        return lit, x, _element(draw, spec), near
    # an element of H_s: zero below the cut
    h = _element(draw, spec)
    h = Element(spec, spec.zero().coords[:s] + h.coords[s:])
    if kind in (LitKind.CONG, LitKind.NCONG):
        h = h + scale(m, _element(draw, spec))
    elif kind in (LitKind.ORD, LitKind.NEQ):
        h = spec.zero()
    return lit, x, sub(scale(k, x), h), near


@settings(max_examples=500, deadline=None, derandomize=True)
@given(literal_cases())
def test_reference_evaluator_agrees_with_holds(case):
    lit, x, t, near = case
    expected = _holds(lit, x, t)
    assert holds(lit, x, t) is expected
    if near and lit.kind in (LitKind.CONG, LitKind.INGRP):
        assert expected  # the strategy reaches the true side of each kind
    if near and lit.kind in (LitKind.NCONG, LitKind.NOTINGRP, LitKind.NEQ):
        assert not expected


def _corpus():
    """(literal, x, t) triples over the seeded conjunctions of every block
    kind and literal kind, with x at random points, at zero and at t."""
    out = []
    for n, conj in enumerate(random_conjunctions(27, 400)):
        rng = random.Random(n)
        xs = [random_element(rng, conj.group) for _ in range(2)]
        for lit, t in zip(conj.literals, conj.term_values):
            out += [(lit, x, t) for x in xs + [conj.group.zero(), t]]
    return out


def test_reference_evaluator_uses_none_of_the_shared_helpers(monkeypatch):
    corpus = _corpus()
    expected = [_holds(*case) for case in corpus]
    assert {True, False} <= set(expected)
    # congruence rows, and the order row of the optimal pattern
    gens = [
        gen_chain_pattern(2, 3, 2),
        gen_chain_pattern(3, 2, 2),
        gen_optimal_pattern([2, 3], [1, 1], 2),
    ]
    paths = []
    for gen in gens:
        for eta in itertools.product(range(2), repeat=gen.pattern.depth):
            conjs = [gen.pattern.instantiate(i, j) for i, j in enumerate(eta)]
            for conj in conjs:
                conj.term_values  # the evaluator's input, computed before the patch
            paths.append((conjs, gen.witness_of(eta)))

    def forbidden(*args, **kwargs):
        raise AssertionError("the reference evaluator called a shared helper")

    modules = (oag, oag.checker, oag.convex, oag.formulas, oag.groups, oag.numutil)
    for name in FORBIDDEN:
        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    assert [holds(*case) for case in corpus] == expected
    for conjs, x in paths:
        assert confirm([InstanceCheck(conj) for conj in conjs], x)


def test_checker_imports_neither_the_solver_nor_a_shared_helper():
    tree = ast.parse(Path(oag.checker.__file__).read_text())
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module)
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
    assert modules == {"__future__", "itertools", "typing", "errors", "formulas", "groups"}
    assert not names & set(FORBIDDEN)
    assert not any(isinstance(n, ast.Name) and n.id in FORBIDDEN for n in ast.walk(tree))


def test_confirm_agrees_with_evaluate_conj_on_pattern_paths():
    gens = [gen_chain_pattern(2, 3, 3), gen_optimal_pattern([2, 3], [2, 1], 2)]
    for gen in gens:
        pattern = gen.pattern
        checks = [
            [InstanceCheck(pattern.instantiate(i, j)) for j in range(len(row.columns))]
            for i, row in enumerate(pattern.rows)
        ]
        etas = list(itertools.product(*(range(len(r.columns)) for r in pattern.rows)))
        for eta in etas:
            path = [checks[i][j] for i, j in enumerate(eta)]
            assert confirm(path, gen.witness_of(eta))
            # another path's witness: the reference and evaluate_conj agree
            other = gen.witness_of(etas[(etas.index(eta) + 1) % len(etas)])
            expected = evaluate_conj(pattern.path_conjunction(eta), other)
            assert confirm(path, other) is expected
        assert not confirm(
            [checks[i][0] for i in range(pattern.depth)], gen.witness_of(etas[-1])
        )


def test_reference_evaluator_rejects_mixed_groups_and_deep_cuts():
    g, h = GroupSpec((INT,)), GroupSpec((RAT,))
    lit = Literal(LitKind.CONG, 1, Term.of({0: 1}), m=2, alpha=ConvexCut(1))
    with pytest.raises(SpecMismatchError):
        holds(lit, g.zero(), h.zero())
    with pytest.raises(SpecMismatchError):
        confirm([InstanceCheck(Conjunction(g, (lit,), (g.zero(),)))], h.zero())
    deep = Literal(LitKind.INGRP, 1, Term.of({0: 1}), alpha=ConvexCut(2))
    with pytest.raises(oag.PreconditionError):
        holds(deep, g.zero(), g.zero())
