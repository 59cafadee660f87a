"""Morphisms between rigid intersection types, and their polarities.

A morphism witnesses that two rigid types collapse to the same multiset
type, that is, have the same canonical representative.  The grammar mirrors the types: the base type has only the identity,
and an arrow morphism pairs a sequence morphism with a codomain morphism.
A sequence morphism is a permutation together with componentwise morphisms;
component i runs from source slot i to target slot sigma(i), so the target
sequence reads tgt[sigma(i)] = tgt(component_i).

Endpoints are not stored: src/tgt are computed structurally, which is
well-defined because a morphism determines both of its endpoints.

Composition is written compose(g, f) = g after f.  Permutations compose the
same way: (s2 . s1)(i) = s2(s1(i)).

Polarity is defined against the simple type being refined.  At the base
type the identity is both positive and negative.  At an arrow type a
morphism is positive when its domain permutation is unconstrained but the
domain components are negative and the codomain is positive; it is negative
when the domain permutation is the identity, the domain components are
positive and the codomain is negative.  For sequence morphisms used as
context entries the variance flips: positive means identity permutation
with positive components, negative means any permutation with negative
components.  Every morphism factors uniquely as a negative morphism after
a positive one.

Because of that factorization the symmetry degrees have a closed form.  For
a canonical a = <d_k^m_k> -o c, with the d_k distinct and m_k copies of
each, the endomorphisms permute equal elements and act componentwise:

  tot(a) = tot(c) * prod m_k! * tot(d_k)^m_k
  pos(a) = pos(c) * prod m_k! * neg(d_k)^m_k
  neg(a) = neg(c) * prod pos(d_k)^m_k

A context entry flips the variance, and a context's degrees are the
product of its entries'.  The explicit triple count gets the size of a
polarized hom-set, and the count of derivation morphisms that of a whole
hom-set, from the same rules (count_*): a permanent where the domain may
be permuted, a product where it may not.  No morphism is built on the
query path.  Listing whole hom-sets (enumerate_homs_*) takes factorial
time; it serves as the oracle in the tests, and for listing derivation
morphisms, not for counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain, combinations_with_replacement, groupby, permutations, product
from math import factorial, prod

from .interning import fact
from .syntax import Arrow, Base, SimpleType
from .rigidtypes import (
    IArrow, IType, ResourceContext, SeqType, Star, STAR,
    canonicalize_ctx, ctx_refines, ctx_to_text, is_canonical, it_to_text, key_it, refines,
)


class MorphismError(Exception):
    """Raised on non-composable pairs and malformed morphisms."""


####################################################################
# permutations (tuples, 0-based; sigma[i] is where slot i is sent)

def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def is_identity_perm(s: tuple[int, ...]) -> bool:
    return all(v == i for i, v in enumerate(s))


def compose_perm(s2: tuple[int, ...], s1: tuple[int, ...]) -> tuple[int, ...]:
    # (s2 . s1)(i) = s2(s1(i))
    if len(s1) != len(s2):
        raise MorphismError(f"permutation arity mismatch: {len(s1)} vs {len(s2)}")
    return tuple(s2[s1[i]] for i in range(len(s1)))


def inverse_perm(s: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(s)
    for i, v in enumerate(s):
        inv[v] = i
    return tuple(inv)


####################################################################
# morphism trees

@dataclass(frozen=True)
class StarId:
    def __repr__(self) -> str:
        return "*"


@dataclass(frozen=True)
class SeqMorphism:
    sigma: tuple[int, ...]
    components: tuple["ITMorphism", ...]

    def __post_init__(self):
        if len(self.sigma) != len(self.components):
            raise MorphismError(
                f"permutation of arity {len(self.sigma)} over {len(self.components)} components")
        if sorted(self.sigma) != list(range(len(self.sigma))):
            raise MorphismError(f"not a permutation: {self.sigma}")

    def __repr__(self) -> str:
        return seqm_to_text(self)


@dataclass(frozen=True)
class ArrowMorphism:
    domain: SeqMorphism
    codomain: "ITMorphism"

    def __repr__(self) -> str:
        return morph_to_text(self)


ITMorphism = StarId | ArrowMorphism

STAR_ID = StarId()


@dataclass(frozen=True)
class CtxMorphism:
    """Per-variable sequence morphisms over a fixed list of typed variables."""

    entries: tuple[tuple[str, SeqMorphism, SimpleType], ...]

    def lookup(self, name: str) -> SeqMorphism:
        for x, sm, _ in self.entries:
            if x == name:
                return sm
        raise KeyError(name)

    def __repr__(self) -> str:
        return ", ".join(f"{x}:{seqm_to_text(sm)}" for x, sm, _ in self.entries)


####################################################################
# endpoints

def src_it(phi: ITMorphism) -> IType:
    match phi:
        case StarId():
            return STAR
        case ArrowMorphism(d, c):
            return IArrow(src_seq(d), src_it(c))
    raise TypeError(f"not a morphism: {phi!r}")


def tgt_it(phi: ITMorphism) -> IType:
    match phi:
        case StarId():
            return STAR
        case ArrowMorphism(d, c):
            return IArrow(tgt_seq(d), tgt_it(c))
    raise TypeError(f"not a morphism: {phi!r}")


def src_seq(sm: SeqMorphism) -> SeqType:
    return tuple(src_it(f) for f in sm.components)


def tgt_seq(sm: SeqMorphism) -> SeqType:
    out: list[IType | None] = [None] * len(sm.components)
    for i, f in enumerate(sm.components):
        out[sm.sigma[i]] = tgt_it(f)
    return tuple(out)  # type: ignore[arg-type]


####################################################################
# groupoid operations

def compose_it(g: ITMorphism, f: ITMorphism) -> ITMorphism:
    """g after f."""
    if tgt_it(f) != src_it(g):
        raise MorphismError(
            f"cannot compose: target {it_to_text(tgt_it(f))} differs from source {it_to_text(src_it(g))}")
    return _compose_it(g, f)


def _compose_it(g: ITMorphism, f: ITMorphism) -> ITMorphism:
    match g, f:
        case StarId(), StarId():
            return STAR_ID
        case ArrowMorphism(gd, gc), ArrowMorphism(fd, fc):
            return ArrowMorphism(_compose_seq(gd, fd), _compose_it(gc, fc))
    raise MorphismError(f"cannot compose {f!r} then {g!r}")


def compose_seq(g: SeqMorphism, f: SeqMorphism) -> SeqMorphism:
    if tgt_seq(f) != src_seq(g):
        raise MorphismError("cannot compose sequence morphisms: endpoint mismatch")
    return _compose_seq(g, f)


def _compose_seq(g: SeqMorphism, f: SeqMorphism) -> SeqMorphism:
    sigma = compose_perm(g.sigma, f.sigma)
    comps = tuple(_compose_it(g.components[f.sigma[i]], f.components[i])
                  for i in range(len(f.components)))
    return SeqMorphism(sigma, comps)



def identity_it(a: IType) -> ITMorphism:
    match a:
        case Star():
            return STAR_ID
        case IArrow(d, c):
            return ArrowMorphism(identity_seq(d), identity_it(c))
    raise TypeError(f"not a rigid type: {a!r}")


def identity_seq(seq: SeqType) -> SeqMorphism:
    return SeqMorphism(identity_perm(len(seq)), tuple(identity_it(a) for a in seq))



def invert_it(phi: ITMorphism) -> ITMorphism:
    match phi:
        case StarId():
            return STAR_ID
        case ArrowMorphism(d, c):
            return ArrowMorphism(invert_seq(d), invert_it(c))
    raise TypeError(f"not a morphism: {phi!r}")


def invert_seq(sm: SeqMorphism) -> SeqMorphism:
    inv = inverse_perm(sm.sigma)
    comps = tuple(invert_it(sm.components[inv[j]]) for j in range(len(sm.components)))
    return SeqMorphism(inv, comps)



####################################################################
# sequence concatenation and the permutation action
#
# Concatenating sequence morphisms block-sums the permutations.  More
# generally, a permutation rho of m blocks acts on a family of sequence
# morphisms by concatenating the components in their original order while
# the target blocks are laid out in rho-permuted order.

def concat_seqm(a: SeqMorphism, b: SeqMorphism) -> SeqMorphism:
    return sigma_action(identity_perm(2), [a, b])


def sigma_action(rho: tuple[int, ...], parts: list[SeqMorphism]) -> SeqMorphism:
    if len(rho) != len(parts):
        raise MorphismError(f"permutation of arity {len(rho)} over {len(parts)} blocks")
    lens = [len(p.components) for p in parts]
    inv = inverse_perm(rho)
    # offset of target block t is the total length of target blocks before it
    tgt_off = [0] * len(parts)
    acc = 0
    for t in range(len(parts)):
        tgt_off[t] = acc
        acc += lens[inv[t]]
    sigma: list[int] = []
    comps: list[ITMorphism] = []
    for j, p in enumerate(parts):
        base = tgt_off[rho[j]]
        for l in range(lens[j]):
            sigma.append(base + p.sigma[l])
        comps.extend(p.components)
    return SeqMorphism(tuple(sigma), tuple(comps))


####################################################################
# hom-set enumeration

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
    n = len(sa)
    if n != len(sb):
        return ()
    out = []
    for sigma in permutations(range(n)):
        pools = [enumerate_homs_it(sa[i], sb[sigma[i]]) for i in range(n)]
        if any(not p for p in pools):
            continue
        for comps in product(*pools):
            out.append(SeqMorphism(sigma, comps))
    return tuple(out)


def enumerate_homs_ctx(ca: ResourceContext, cb: ResourceContext) -> tuple[CtxMorphism, ...]:
    if ca.shape() != cb.shape():
        return ()
    pools = [[(x, sm, t) for sm in enumerate_homs_seq(sa, cb.lookup(x))]
             for (x, sa, t) in ca.entries]
    if any(not p for p in pools):
        return ()
    return tuple(CtxMorphism(tuple(choice)) for choice in product(*pools))


####################################################################
# polarity

class Polarity(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    BOTH = "both"
    NEITHER = "neither"


def is_positive_it(phi: ITMorphism, t: SimpleType) -> bool:
    match phi, t:
        case StarId(), Base():
            return True
        case ArrowMorphism(d, c), Arrow(td, tc):
            return (all(is_negative_it(f, td) for f in d.components)
                    and is_positive_it(c, tc))
    raise MorphismError(f"morphism {phi!r} does not refine {t!r}")


def is_negative_it(phi: ITMorphism, t: SimpleType) -> bool:
    match phi, t:
        case StarId(), Base():
            return True
        case ArrowMorphism(d, c), Arrow(td, tc):
            return (is_identity_perm(d.sigma)
                    and all(is_positive_it(f, td) for f in d.components)
                    and is_negative_it(c, tc))
    raise MorphismError(f"morphism {phi!r} does not refine {t!r}")


def is_positive_seq(sm: SeqMorphism, t: SimpleType) -> bool:
    # context entries flip variance: positive keeps the order
    return is_identity_perm(sm.sigma) and all(is_positive_it(f, t) for f in sm.components)


def is_negative_seq(sm: SeqMorphism, t: SimpleType) -> bool:
    return all(is_negative_it(f, t) for f in sm.components)


def is_positive_ctx(cm: CtxMorphism) -> bool:
    return all(is_positive_seq(sm, t) for _, sm, t in cm.entries)


def is_negative_ctx(cm: CtxMorphism) -> bool:
    return all(is_negative_seq(sm, t) for _, sm, t in cm.entries)


def _classify(pos: bool, neg: bool) -> Polarity:
    if pos and neg:
        return Polarity.BOTH
    if pos:
        return Polarity.POSITIVE
    if neg:
        return Polarity.NEGATIVE
    return Polarity.NEITHER


def polarity_it(phi: ITMorphism, t: SimpleType) -> Polarity:
    if not refines(src_it(phi), t):
        raise MorphismError(f"morphism source {it_to_text(src_it(phi))} does not refine {t!r}")
    return _classify(is_positive_it(phi, t), is_negative_it(phi, t))



####################################################################
# polar factorization: phi = negative after positive, uniquely

def polar_factorize_it(phi: ITMorphism, t: SimpleType) -> tuple[ITMorphism, ITMorphism]:
    """Return (pos, neg) with compose(neg, pos) == phi."""
    match phi, t:
        case StarId(), Base():
            return STAR_ID, STAR_ID
        case ArrowMorphism(d, c), Arrow(td, tc):
            cp, cn = polar_factorize_it(c, tc)
            n = len(d.components)
            ps: list[ITMorphism] = []
            ns: list[ITMorphism | None] = [None] * n
            for i, f in enumerate(d.components):
                # the domain factors in the opposite order; factor the inverse
                q, r = polar_factorize_it(invert_it(f), td)
                ps.append(invert_it(r))
                ns[d.sigma[i]] = invert_it(q)
            pos = ArrowMorphism(SeqMorphism(d.sigma, tuple(ps)), cp)
            neg = ArrowMorphism(SeqMorphism(identity_perm(n), tuple(ns)), cn)  # type: ignore[arg-type]
            return pos, neg
    raise MorphismError(f"morphism {phi!r} does not refine {t!r}")


####################################################################
# hom-set counts
#
# The size of a hom-set, polarized or not, counted from the rules above
# without listing it.  A positive arrow morphism permutes the domain with
# negative components, so its domain contributes the permanent of the
# matrix of negative counts; a negative one keeps the order with positive
# components, so its domain contributes their product.  A context entry
# flips the variance.  Without a polarity the domain is permuted freely
# with any components (count_homs_it).  The caller owns the memo, keyed on
# (positive, a, b) for polarized types, on (a, b) for unpolarized ones and
# on (sa, sb) for context entries.

def count_homs_it(a: IType, b: IType, memo: dict | None = None) -> int:
    """The number of morphisms a -> b of any polarity: the domain may be
    permuted, with any components."""
    memo = {} if memo is None else memo
    key = (a, b)
    if key not in memo:
        match a, b:
            case Star(), Star():
                memo[key] = 1
            case IArrow(ad, ac), IArrow(bd, bc) if len(ad) == len(bd):
                n = count_homs_it(ac, bc, memo)
                memo[key] = n and n * permanent(
                    [[count_homs_it(x, y, memo) for y in bd] for x in ad])
            case _:
                memo[key] = 0
    return memo[key]


def count_positive_it(a: IType, b: IType, memo: dict | None = None) -> int:
    return _count_it(True, a, b, {} if memo is None else memo)


def count_negative_it(a: IType, b: IType, memo: dict | None = None) -> int:
    return _count_it(False, a, b, {} if memo is None else memo)


def count_negative_seq(sa: SeqType, sb: SeqType, memo: dict | None = None) -> int:
    """Any permutation, negative components (a context entry's variance)."""
    if len(sa) != len(sb):
        return 0
    memo = {} if memo is None else memo
    if (sa, sb) not in memo:
        memo[sa, sb] = permanent([[_count_it(False, x, y, memo) for y in sb] for x in sa])
    return memo[sa, sb]


def _count_it(positive: bool, a: IType, b: IType, memo: dict) -> int:
    key = (positive, a, b)
    if key not in memo:
        match a, b:
            case Star(), Star():
                memo[key] = 1
            case IArrow(ad, ac), IArrow(bd, bc) if len(ad) == len(bd):
                n = _count_it(positive, ac, bc, memo)
                if n and positive:
                    n *= count_negative_seq(ad, bd, memo)
                elif n:
                    n *= prod(_count_it(True, x, y, memo) for x, y in zip(ad, bd))
                memo[key] = n
            case _:
                memo[key] = 0
    return memo[key]


def permanent(m: list[list[int]]) -> int:
    """Ryser's formula, visiting the column subsets in Gray-code order so
    that each step adds or removes one column: O(2^n * n)."""
    n = len(m)
    if any(not any(row) for row in m):
        return 0
    sums = [0] * n
    total = 0 if n else 1
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        gray = k ^ (k >> 1)
        step = 1 if gray >> j & 1 else -1
        for i, row in enumerate(m):
            sums[i] += step * row[j]
        term = prod(sums)
        total += -term if (n - gray.bit_count()) & 1 else term
    return total


####################################################################
# symmetry degrees

@dataclass(frozen=True)
class Degrees:
    total: int
    positive: int
    negative: int


def sym_degrees_it(a: IType, t: SimpleType) -> Degrees:
    if not is_canonical(a):
        raise MorphismError(f"symmetry degrees need a canonical representative, got {it_to_text(a)}")
    if not refines(a, t):
        raise MorphismError(f"type {it_to_text(a)} does not refine {t!r}")
    return _degrees_it(a)


def sym_degrees_ctx(theta: ResourceContext) -> Degrees:
    if canonicalize_ctx(theta) != theta:
        raise MorphismError("symmetry degrees need a canonical representative context")
    if not ctx_refines(theta):
        raise MorphismError(f"context {ctx_to_text(theta)} does not refine its simple types")
    entries = [_degrees_seq(seq) for _, seq, _ in theta.entries]
    return Degrees(prod(d.total for d in entries), prod(d.positive for d in entries),
                   prod(d.negative for d in entries))


@fact
def _degrees_it(a: IType) -> Degrees:
    match a:
        case Star():
            return Degrees(1, 1, 1)
        case IArrow(d, c):
            # the domain is read as a context entry, with the variance flipped
            dom, cod = _degrees_seq(d), _degrees_it(c)
            return Degrees(dom.total * cod.total, dom.negative * cod.positive,
                           dom.positive * cod.negative)
    raise TypeError(f"not a rigid type: {a!r}")


def _degrees_seq(seq: SeqType) -> Degrees:
    """Degrees of a canonical sequence as a context entry: equal elements sit
    next to each other, and only they may be permuted."""
    total = positive = negative = 1
    for x, group in groupby(seq):
        m = len(list(group))
        d = _degrees_it(x)
        total *= factorial(m) * d.total ** m
        positive *= d.positive ** m
        negative *= factorial(m) * d.negative ** m
    return Degrees(total, positive, negative)


####################################################################
# polarized reachability
#
# neg_targets(a) collects every a' admitting a negative morphism a -> a';
# pos_sources(a) collects every a' admitting a positive morphism a' -> a.
# Positivity and negativity are closed under inverse, so positive sources
# coincide with positive targets.

@lru_cache(maxsize=None)
def neg_targets_it(a: IType, t: SimpleType) -> tuple[IType, ...]:
    match a, t:
        case Star(), Base():
            return (STAR,)
        case IArrow(d, c), Arrow(td, tc):
            pools = [pos_targets_it(x, td) for x in d]
            return tuple(sorted((IArrow(tuple(doms), c2)
                                 for doms in product(*pools)
                                 for c2 in neg_targets_it(c, tc)), key=key_it))
    raise MorphismError(f"type {it_to_text(a)} does not refine {t!r}")


@lru_cache(maxsize=None)
def pos_targets_it(a: IType, t: SimpleType) -> tuple[IType, ...]:
    match a, t:
        case Star(), Base():
            return (STAR,)
        case IArrow(d, c), Arrow(td, tc):
            # a positive morphism reorders the domain freely and moves each
            # element negatively: the domain's negative targets as an entry
            return tuple(sorted((IArrow(doms, c2)
                                 for doms in neg_targets_seq(d, td)
                                 for c2 in pos_targets_it(c, tc)), key=key_it))
    raise MorphismError(f"type {it_to_text(a)} does not refine {t!r}")


pos_sources_it = pos_targets_it


@lru_cache(maxsize=None)
def neg_targets_seq(seq: SeqType, t: SimpleType) -> tuple[SeqType, ...]:
    """Every distinct arrangement of a choice of negative targets per element.

    Equal elements have equal targets, so each group of m equal elements
    chooses a bag of m targets; each distinct bag is then laid out in each
    of its distinct orders.
    """
    groups = [(x, len(list(g))) for x, g in groupby(seq)]
    per_group = [combinations_with_replacement(neg_targets_it(x, t), m) for x, m in groups]
    bags = dict.fromkeys(tuple(sorted(chain.from_iterable(choice), key=key_it))
                         for choice in product(*per_group))
    return tuple(sorted((arr for bag in bags for arr in _arrangements(bag)),
                        key=lambda s: tuple(key_it(a) for a in s)))


def neg_targets_ctx(theta: ResourceContext) -> tuple[ResourceContext, ...]:
    pools = [[(x, s, t) for s in neg_targets_seq(seq, t)] for x, seq, t in theta.entries]
    return tuple(ResourceContext(tuple(choice)) for choice in product(*pools))


def _arrangements(bag: SeqType) -> list[SeqType]:
    """The distinct orderings of a bag whose equal elements are adjacent, in
    lexicographic order of the slots' group ranks."""
    values = [x for x, _ in groupby(bag)]
    ranks = [r for r, (_, group) in enumerate(groupby(bag)) for _ in group]
    out: list[SeqType] = []
    while True:
        out.append(tuple(values[r] for r in ranks))
        i = len(ranks) - 2
        while i >= 0 and ranks[i] >= ranks[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(ranks) - 1
        while ranks[j] <= ranks[i]:
            j -= 1
        ranks[i], ranks[j] = ranks[j], ranks[i]
        ranks[i + 1:] = reversed(ranks[i + 1:])


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
