"""Counting the symmetries of rigid types, without building a morphism.

Every morphism between rigid types factors uniquely as a negative morphism
after a positive one, so the symmetries split into a positive and a
negative sub-groupoid.  This module counts them on the query path:

  * the symmetry degrees (Degrees, sym_degrees_*) in closed form.  For a
    canonical a = <d_k^m_k> -o c, with the d_k distinct and m_k copies of
    each, the endomorphisms permute equal elements and act componentwise:

      tot(a) = tot(c) * prod m_k! * tot(d_k)^m_k
      pos(a) = pos(c) * prod m_k! * neg(d_k)^m_k
      neg(a) = neg(c) * prod pos(d_k)^m_k

    A context entry flips the variance, and a context's degrees are the
    product of its entries';
  * the size of a hom-set, polarized or not (count_*): a permanent where
    the domain may be permuted, a product where it may not.  Permanents are
    block products over isomorphism classes.  The explicit triple count and
    the count of derivation morphisms use them;
  * polarized reachability, off the rigid type alone and kept nowhere: the
    types a negative morphism reaches label a bag's values (neg_targets_it),
    and polar_class keys them; neg_targets_ctx and pos_sources_it list
    contexts and positive sources for the tracer and the oracles.

The counts follow the grammar of the morphism classes in groupoid, which
lists whole hom-sets.  The morphisms' polarity and factorization are test
oracles in tests/reference.py.  Listing takes factorial time, so no query
calls it; the tests check each count here against that listing.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, combinations_with_replacement, groupby, product
from math import factorial, prod

from .interning import Record, fact
from .syntax import SimpleType
from .rigidtypes import (
    IArrow, IType, ResourceContext, SeqType, Star, STAR,
    ctx_refines, ctx_to_text, is_canonical, is_canonical_seq, it_to_text, key_it, refines,
)


class MorphismError(Exception):
    """Raised on inputs the degrees refuse, on malformed morphisms
    (groupoid), and by the test oracles in tests/reference.py on pairs
    that do not compose."""


####################################################################
# hom-set counts
#
# The size of a hom-set, polarized or not, counted from the morphisms'
# rules (groupoid) and their polarity (tests/reference.py) without listing
# it.  A positive arrow morphism permutes the domain with negative
# components, so its domain contributes the permanent of the matrix of
# negative counts; a negative one keeps the order with positive
# components, so its domain contributes their product.  A context entry
# flips the variance.  Without a polarity (None) the domain is permuted
# freely with components of any polarity.  The caller owns the memo, keyed
# on (polarity, a, b) for types and on (sa, sb) for context entries.

def count_homs_it(a: IType, b: IType, memo: dict | None = None) -> int:
    return _count_it(None, a, b, {} if memo is None else memo)


def count_positive_it(a: IType, b: IType, memo: dict | None = None) -> int:
    return _count_it(True, a, b, {} if memo is None else memo)


def count_negative_seq(sa: SeqType, sb: SeqType, memo: dict | None = None) -> int:
    """Any permutation, negative components (a context entry's variance).
    Each pair of distinct elements is counted once, and equal elements of
    sa share one row of the matrix."""
    if len(sa) != len(sb):
        return 0
    memo = {} if memo is None else memo
    if (sa, sb) not in memo:
        cols = dict.fromkeys(sb)
        rows: dict[IType, tuple[int, ...]] = {}
        for x in sa:
            if x not in rows:
                counts = {}
                for y in cols:
                    counts[y] = _count_it(False, x, y, memo)
                rows[x] = tuple(map(counts.__getitem__, sb))
        memo[sa, sb] = permanent(list(map(rows.__getitem__, sa)))
    return memo[sa, sb]


def _count_it(positive: bool | None, a: IType, b: IType, memo: dict) -> int:
    key = (positive, a, b)
    if key not in memo:
        match a, b:
            case Star(), Star():
                memo[key] = 1
            case IArrow(ad, ac), IArrow(bd, bc) if len(ad) == len(bd):
                n = _count_it(positive, ac, bc, memo)
                if n and positive is None:
                    n *= permanent([[_count_it(None, x, y, memo) for y in bd] for x in ad])
                elif n and positive:
                    n *= count_negative_seq(ad, bd, memo)
                elif n:
                    n *= prod(_count_it(True, x, y, memo) for x, y in zip(ad, bd))
                memo[key] = n
            case _:
                memo[key] = 0
    return memo[key]


def permanent(m: list[list[int]]) -> int:
    """The permanent of #Hom(x, y) over objects x, y of a groupoid, as a block
    product: isomorphic objects have equal rows, others share no non-zero
    column.  So a distinct row met k times gives k! times its k non-zero
    entries, or 0 without k of them; two sharing a column are refused."""
    blocks: dict[tuple[int, ...], int] = {}
    for row in map(tuple, m):
        blocks[row] = blocks.get(row, 0) + 1
    total, seen = 1, set()
    for row, k in blocks.items():
        cols = {j for j, w in enumerate(row) if w}
        if cols & seen:
            raise ValueError("not a matrix of hom-set sizes: distinct rows share a column")
        seen |= cols
        total *= factorial(k) * prod(filter(None, row)) if len(cols) == k else 0
    return total


####################################################################
# symmetry degrees

class Degrees(Record):
    __slots__ = ("total", "positive", "negative")

    def __init__(self, total: int, positive: int, negative: int):
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "negative", negative)


def sym_degrees_it(a: IType, t: SimpleType) -> Degrees:
    if not is_canonical(a):
        raise MorphismError(f"symmetry degrees need a canonical representative, got {it_to_text(a)}")
    if not refines(a, t):
        raise MorphismError(f"type {it_to_text(a)} does not refine {t!r}")
    return _degrees_it(a)


def sym_degrees_ctx(theta: ResourceContext) -> Degrees:
    if not all(is_canonical_seq(seq) for _, seq, _ in theta.entries):
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
# _targets(positive, a) lists, in key_it order, the types a polarized
# morphism reaches from a, which depend on a alone: a positive one permutes
# an arrow's domain moving each element negatively, a negative one keeps it
# moving each positively, as _count_it reads them.  Both are closed under
# inverse, so positive sources are positive targets.  Nothing is kept.

def _targets(positive: bool, a: IType) -> tuple[IType, ...]:
    if isinstance(a, Star):
        return (STAR,)
    doms = (neg_targets_seq(a.domain) if positive
            else product(*(_targets(True, x) for x in a.domain)))
    cods = _targets(positive, a.codomain)
    return tuple(sorted((IArrow(tuple(d), c) for d in doms for c in cods), key=key_it))


# every a' admitting a negative morphism a -> a', and every a' admitting a
# positive one a' -> a; partials, so a listing adds no frame to the caller's
neg_targets_it = partial(_targets, False)
pos_sources_it = partial(_targets, True)


def polar_class(a: IType, positive: bool):
    """a's key under polarized morphisms: b is in _targets(positive, a)
    exactly when polar_class(b, positive) == polar_class(a, positive)."""
    if isinstance(a, Star):
        return ()
    dom = [polar_class(b, not positive) for b in a.domain]
    return tuple(sorted(dom)) if positive else tuple(dom), polar_class(a.codomain, positive)


def neg_targets_seq(seq: SeqType) -> tuple[SeqType, ...]:
    """Every distinct arrangement of a choice of negative targets per element.

    Equal elements have equal targets, so each group of m equal elements
    chooses a bag of m targets; each distinct bag is then laid out in each
    of its distinct orders.
    """
    groups = [(x, len(list(g))) for x, g in groupby(seq)]
    per_group = [combinations_with_replacement(neg_targets_it(x), m) for x, m in groups]
    bags = dict.fromkeys(tuple(sorted(chain.from_iterable(choice), key=key_it))
                         for choice in product(*per_group))
    return tuple(sorted((arr for bag in bags for arr in _arrangements(bag)),
                        key=lambda s: tuple(key_it(a) for a in s)))


def neg_targets_ctx(theta: ResourceContext) -> tuple[ResourceContext, ...]:
    pools = [[(x, s, t) for s in neg_targets_seq(seq)] for x, seq, t in theta.entries]
    return tuple(ResourceContext(tuple(choice)) for choice in product(*pools))


def _arrangements(bag: SeqType) -> list[SeqType]:
    """The distinct orderings of a bag whose equal elements are adjacent:
    each distinct value first, then every arrangement of the rest."""
    if not bag:
        return [()]
    return [(v,) + rest for i, v in enumerate(bag) if not i or bag[i - 1] != v
            for rest in _arrangements(bag[:i] + bag[i + 1:])]
