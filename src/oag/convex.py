"""Definable convex subgroups of a lexicographic sum and derived invariants.

In a finite lexicographic sum of Archimedean blocks the convex subgroups are
exactly the K+1 suffix cuts: ``ConvexCut(s)`` names the subgroup of elements
supported on coordinates >= s (s = 0 is the whole group, s = K is {0}).
Everything here (largest convex subgroup avoiding a coset, the sorts of a
prime, the rank bound) is computed inside this finite lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

from .errors import PreconditionError
from .groups import Element, GroupSpec, block_modulus, coset_key


@dataclass(frozen=True, order=True)
class ConvexCut:
    """Index of a suffix convex subgroup; smaller s names a larger subgroup."""

    s: int

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("cut index must be >= 0")

    def subgroup_desc(self) -> str:
        return f"coords>={self.s}"


def _check_cut(spec: GroupSpec, cut: ConvexCut) -> None:
    if not 0 <= cut.s <= spec.K:
        raise PreconditionError(f"cut {cut.s} out of range for K={spec.K}")


def in_subgroup(x: Element, cut: ConvexCut) -> bool:
    """Membership in the convex subgroup itself: coordinates < s all zero."""
    _check_cut(x.spec, cut)
    return not any(x.coords[: cut.s])


def in_coset(x: Element, cut: ConvexCut, m: int) -> bool:
    """Membership in (subgroup of the cut) + mG: x's coset key below the cut
    is empty, i.e. every coordinate above the cut is m-divisible in its
    block, since the subgroup absorbs the coordinates >= s."""
    if m < 1:
        raise ValueError("modulus must be a positive integer")
    blocks, coords = x.spec.blocks, x.coords
    if cut.s > len(blocks):  # a cut index is never negative
        _check_cut(x.spec, cut)
    # coset_key's walk, stopped at the first residue (not coset_key was
    # slower): a residue is nonzero exactly when the modulus of the block
    # does not divide the numerator, as in numutil.residue_mod
    for i in compress(range(cut.s), coords):
        block = blocks[i]
        mod = block_modulus(block, m)
        if mod == 1:
            continue
        if block.kind == "GP":
            for _, c in coords[i]:
                if c.numerator % mod:
                    return False
        elif coords[i].numerator % mod:
            return False
    return True


def hsub(a: Element, n: int) -> ConvexCut:
    """The largest convex subgroup H with a not in H + nG: the cut just below
    the first coordinate of a's coset key; cut K when a is in nG (so the
    subgroup is {0})."""
    if n < 1:
        raise ValueError("modulus must be a positive integer")
    key = coset_key(a, a.spec.K, n)
    return ConvexCut(key[0][0] + 1 if key else a.spec.K)


def sorts(g: GroupSpec, n: int) -> list[ConvexCut]:
    """All values of hsub(., n) over the group, largest cut index first.

    Cut K always occurs (witnessed by any element of nG); cut i+1 occurs
    exactly when block i is not n-divisible as a block.
    """
    if n < 1:
        raise ValueError("modulus must be a positive integer")
    cuts = {g.K}
    for i, block in enumerate(g.blocks):
        if block_modulus(block, n) != 1:
            cuts.add(i + 1)
    return [ConvexCut(s) for s in sorted(cuts, reverse=True)]


def collapse_sorts(g: GroupSpec, p: int) -> list[tuple[ConvexCut, ...]]:
    """Group the raw sorts of p into classes naming the same coset data.

    Cuts s <= s' are identified when every block in [s, s') is p-divisible;
    then the two subgroups have equal sum with p^l G for every l, so no
    congruence relation can tell them apart.  Classes are returned smallest
    subgroup first, each class ordered the same way.
    """
    raw = sorts(g, p)  # descending cut index
    classes: list[list[ConvexCut]] = []
    for cut in raw:
        if classes:
            prev = classes[-1][-1]  # smallest cut index so far in this class
            # prev.s > cut.s; mergeable iff blocks[cut.s : prev.s] all p-divisible
            if all(block_modulus(b, p) == 1 for b in g.blocks[cut.s : prev.s]):
                classes[-1].append(cut)
                continue
        classes.append([cut])
    return [tuple(c) for c in classes]


def singular_primes(g: GroupSpec) -> set[int]:
    """Primes p for which the index of pG in G is infinite.

    Only the span blocks contribute: a span block of p has infinitely many
    residues mod p (one per basis symbol), while Z, Q and the p-local
    rationals have finite index quotients for every prime.
    """
    return {b.p for b in g.blocks if b.kind == "GP"}


@dataclass(frozen=True)
class SortSummary:
    p: int
    raw: tuple[ConvexCut, ...]
    collapsed: tuple[tuple[ConvexCut, ...], ...]

    @property
    def raw_count(self) -> int:
        return len(self.raw)

    @property
    def collapsed_count(self) -> int:
        return len(self.collapsed)


@dataclass(frozen=True)
class AnalysisReport:
    group: GroupSpec
    singular: tuple[int, ...]
    sorts: tuple[SortSummary, ...] = field(default=())

    @property
    def dp_rank_bound(self) -> int:
        return 1 + sum(s.collapsed_count for s in self.sorts)

    @property
    def strongly_dependent(self) -> bool:
        # Finite block lists always have finitely many singular primes and
        # finite sorts, so both structural conditions hold.
        return True

    def to_json_dict(self) -> dict:
        return {
            "spec": str(self.group),
            "singular_primes": list(self.singular),
            "sorts": [
                {
                    "p": s.p,
                    "raw": [_cut_json(s.p, c) for c in s.raw],
                    "raw_count": s.raw_count,
                    "collapsed": [
                        [_cut_json(s.p, c) for c in cls] for cls in s.collapsed
                    ],
                    "collapsed_count": s.collapsed_count,
                }
                for s in self.sorts
            ],
            "dp_rank_bound": self.dp_rank_bound,
            "strongly_dependent": self.strongly_dependent,
        }


def _cut_json(p: int, cut: ConvexCut) -> dict:
    return {"p": p, "cut": cut.s, "subgroup": cut.subgroup_desc()}


def analyze(g: GroupSpec) -> AnalysisReport:
    """Singular primes, raw and collapsed sorts per singular prime, and the
    rank bound 1 + sum of collapsed sort counts."""
    sing = tuple(sorted(singular_primes(g)))
    summaries = tuple(
        SortSummary(p, tuple(sorts(g, p)), tuple(collapse_sorts(g, p)))
        for p in sing
    )
    return AnalysisReport(g, sing, summaries)


def dp_rank_bound(g: GroupSpec) -> int:
    return analyze(g).dp_rank_bound


def strongly_dependent(g: GroupSpec) -> bool:
    return analyze(g).strongly_dependent
