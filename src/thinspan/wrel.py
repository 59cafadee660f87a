"""Weighted-relational coefficients.

The coefficient of a term at a point (a multiset context together with a
multiset result type) is a natural number, computed by structural recursion
on the beta-normal form.  A multiset type is its canonical rigid type, so
the environment and the targets are plain ITypes with sorted sequences.

At a variable-headed spine the head consumes one element of the variable's
multiset; the sum ranges over the distinct element values, since consuming
either of two equal copies leaves the same residual.  The residual context
is then distributed over the argument positions: each element of each
argument multiset receives a sub-multiset, summed over all ordered
decompositions against the fixed sorted presentation of the argument
multisets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .syntax import (
    Lam, Term, TypingContext, Var,
    annotate, beta_normalize, ensure_distinct_binders, spine,
)
from .rigidtypes import (
    IArrow, IType, PointSpec, RefinementError, SeqType, mit_to_text, refines,
)


@dataclass(frozen=True)
class NatInf:
    """A coefficient of the weighted-relational model."""
    value: int = 0

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("negative coefficient")

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return str(self.value)


# environment: per-variable multisets, keyed by name, sorted for memoization
Env = tuple[tuple[str, SeqType], ...]


def wrel_coefficient(ctx: TypingContext, term: Term, point: PointSpec) -> NatInf:
    """Coefficient of the term's interpretation at the given point."""
    term, ty = annotate(ctx, term)
    if not refines(point.result, ty):
        raise RefinementError(
            f"point result {mit_to_text(point.result)} does not refine the term's type")
    for name, _ in ctx.bindings:
        for m in point.ctx_lookup(name):
            if not refines(m, ctx.lookup(name)):
                raise RefinementError(f"point entry for {name!r} fails refinement")
    extra = set(n for n, _ in point.ctx) - set(ctx.names())
    if extra:
        raise RefinementError(f"point mentions variables not in context: {sorted(extra)}")
    # renaming keeps binders clear of context names after reduction
    nf = ensure_distinct_binders(beta_normalize(term), set(ctx.names()))
    env: Env = tuple(sorted(((n, point.ctx_lookup(n)) for n in ctx.names()),
                            key=lambda e: e[0]))
    return NatInf(_coeff(env, nf, point.result))


def rel_inhabited(ctx: TypingContext, term: Term, point: PointSpec) -> bool:
    return bool(wrel_coefficient(ctx, term, point))


def _env_set(env: Env, name: str, mset: SeqType) -> Env:
    return tuple(sorted(((n, ms) for n, ms in env if n != name), key=lambda e: e[0])
                 + [(name, mset)])


def _lookup(env: Env, name: str) -> SeqType:
    for n, ms in env:
        if n == name:
            return ms
    return ()


_memo: dict = {}


def _coeff(env: Env, term: Term, target: IType) -> int:
    key = (env, term, target)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    out = _coeff_raw(env, term, target)
    _memo[key] = out
    return out


def _coeff_raw(env: Env, term: Term, target: IType) -> int:
    if isinstance(term, Lam):
        if not isinstance(target, IArrow):
            return 0
        assert term.annot is not None
        inner = tuple(sorted(env + ((term.binder, target.domain),), key=lambda e: e[0]))
        return _coeff(inner, term.body, target.codomain)

    head, args = spine(term)
    assert isinstance(head, Var), "coefficient recursion expects a beta-normal term"
    total = 0
    for b in dict.fromkeys(_lookup(env, head.name)):
        doms: list[SeqType] = []
        cur: IType = b
        fits = True
        for _ in args:
            if not isinstance(cur, IArrow):
                fits = False
                break
            doms.append(cur.domain)
            cur = cur.codomain
        if not fits or cur != target:
            continue
        residual = _remove_one(env, head.name, b)
        targets = [(args[j], d) for j in range(len(args)) for d in doms[j]]
        total += _distribute(residual, targets)
    return total


def _remove_one(env: Env, name: str, b: IType) -> Env:
    ms = list(_lookup(env, name))
    ms.remove(b)
    return _env_set(env, name, tuple(ms))


def _distribute(env: Env, targets: list[tuple[Term, IType]]) -> int:
    """Sum over ordered decompositions of env across the targets of the
    product of the recursive coefficients."""
    if not targets:
        return 1 if all(not ms for _, ms in env) else 0
    k = len(targets)
    per_var: list[tuple[str, list[list[SeqType]]]] = []
    for name, ms in env:
        per_var.append((name, [list(d) for d in _mset_decompositions(ms, k)]))
    total = 0
    for choice in product(*(decs for _, decs in per_var)):
        prod = 1
        for j, (sub, tgt) in enumerate(targets):
            part: Env = tuple(sorted(
                ((per_var[v][0], tuple(choice[v][j]))
                 for v in range(len(per_var))), key=lambda e: e[0]))
            c = _coeff(part, sub, tgt)
            if c == 0:
                prod = 0
                break
            prod *= c
        total += prod
    return total


@lru_cache(maxsize=None)
def _mset_decompositions(ms: SeqType, k: int):
    """All ways to split a multiset into an ordered tuple of k sub-multisets.

    Equal elements are interchangeable, so each distinct value contributes
    the compositions of its multiplicity.
    """
    groups: list[tuple[IType, int]] = []
    for v in ms:
        if groups and groups[-1][0] == v:
            groups[-1] = (v, groups[-1][1] + 1)
        else:
            groups.append((v, 1))
    out = []
    for counts in product(*(_ncompositions(mult, k) for _, mult in groups)):
        parts = []
        for j in range(k):
            part: list[IType] = []
            for g, (v, _) in enumerate(groups):
                part.extend([v] * counts[g][j])
            parts.append(tuple(part))
        out.append(tuple(parts))
    return tuple(out)


@lru_cache(maxsize=None)
def _ncompositions(total: int, k: int) -> tuple[tuple[int, ...], ...]:
    if k == 0:
        return ((),) if total == 0 else ()
    if k == 1:
        return ((total,),)
    out = []
    for first in range(total + 1):
        for rest in _ncompositions(total - first, k - 1):
            out.append((first,) + rest)
    return tuple(out)
