"""The listing of hom-sets of rigid types: a reference for the counts.

symmetry counts the morphisms between rigid types, polarized or not,
without building one.  This module builds them: the morphism classes and
the listing of whole hom-sets (enumerate_homs_*), which takes factorial
time.  No query calls the listing.  It stays in the package because the
benchmark's tracer (perfbench/tracing.py) wraps collapse.enumerate_homs_ctx
and collapse.enumerate_homs_it, which collapse imports from here for it;
tests/test_imports.py checks that no module uses them.  The rest of the
listed groupoids, the morphisms' endpoints, composition, polarity and
factorization and the morphisms between derivations, are test oracles in
tests/reference.py, which compares each count with this listing.

A type morphism witnesses that two rigid types collapse to the same
multiset type, that is, have the same canonical representative.  The
grammar mirrors the types: the base type has only the identity, and an
arrow morphism pairs a sequence morphism with a codomain morphism.  A
sequence morphism is a permutation together with componentwise morphisms;
component i runs from source slot i to target slot sigma(i), so the target
sequence reads tgt[sigma(i)] = tgt(component_i).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product

from .interning import Record
from .syntax import SimpleType
from .rigidtypes import IArrow, IType, ResourceContext, SeqType, Star
from .symmetry import MorphismError


####################################################################
# type morphisms

class StarId(Record):
    __slots__ = ()

    def __repr__(self) -> str:
        return "*"


class SeqMorphism(Record):
    __slots__ = ("sigma", "components")

    def __init__(self, sigma: tuple[int, ...], components: tuple["ITMorphism", ...]):
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "components", components)
        self._check()

    def _check(self) -> None:
        if len(self.sigma) != len(self.components):
            raise MorphismError(
                f"permutation of arity {len(self.sigma)} over {len(self.components)} components")
        if sorted(self.sigma) != list(range(len(self.sigma))):
            raise MorphismError(f"not a permutation: {self.sigma}")

    def __repr__(self) -> str:
        return seqm_to_text(self)


class ArrowMorphism(Record):
    __slots__ = ("domain", "codomain")

    def __init__(self, domain: SeqMorphism, codomain: "ITMorphism"):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)

    def __repr__(self) -> str:
        return morph_to_text(self)


ITMorphism = StarId | ArrowMorphism

STAR_ID = StarId()


class CtxMorphism(Record):
    """Per-variable sequence morphisms over a fixed list of typed variables."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[str, SeqMorphism, SimpleType], ...]):
        object.__setattr__(self, "entries", entries)

    def __repr__(self) -> str:
        return ", ".join(f"{x}:{seqm_to_text(sm)}" for x, sm, _ in self.entries)


####################################################################
# hom-set listing

def _matchings(pools: list[list[tuple]]) -> list[tuple[tuple[int, ...], tuple]]:
    """(sigma, choice) for every permutation sigma of the n slots of an n x n
    matrix of pools and every choice of one element from each pool
    pools[i][sigma(i)]; a permutation meeting an empty pool gives none."""
    n = len(pools)
    return [(sigma, choice) for sigma in permutations(range(n))
            for choice in product(*(pools[i][sigma[i]] for i in range(n)))]


@lru_cache(maxsize=None)
def enumerate_homs_it(a: IType, b: IType) -> tuple[ITMorphism, ...]:
    match a, b:
        case Star(), Star():
            return (STAR_ID,)
        case IArrow(ad, ac), IArrow(bd, bc):
            return tuple(ArrowMorphism(d, c)
                         for d in enumerate_homs_seq(ad, bd)
                         for c in enumerate_homs_it(ac, bc))
        case _:
            return ()


@lru_cache(maxsize=None)
def enumerate_homs_seq(sa: SeqType, sb: SeqType) -> tuple[SeqMorphism, ...]:
    if len(sa) != len(sb):
        return ()
    pools = [[enumerate_homs_it(x, y) for y in sb] for x in sa]
    return tuple(SeqMorphism(sigma, comps) for sigma, comps in _matchings(pools))


def enumerate_homs_ctx(ca: ResourceContext, cb: ResourceContext) -> tuple[CtxMorphism, ...]:
    if ca.shape() != cb.shape():
        return ()
    pools = [[(x, sm, t) for sm in enumerate_homs_seq(sa, cb.lookup(x))]
             for (x, sa, t) in ca.entries]
    if any(not p for p in pools):
        return ()
    return tuple(CtxMorphism(tuple(choice)) for choice in product(*pools))


####################################################################
# printing

def morph_to_text(phi: ITMorphism) -> str:
    match phi:
        case StarId():
            return "*"
        case ArrowMorphism(d, c):
            return f"{seqm_to_text(d)} -o {morph_to_text(c)}"
    raise TypeError(f"not a morphism: {phi!r}")


def seqm_to_text(sm: SeqMorphism) -> str:
    perm = "[" + ",".join(str(i + 1) for i in sm.sigma) + "]"
    comps = "<" + ",".join(morph_to_text(f) for f in sm.components) + ">"
    return f"({perm};{comps})"
