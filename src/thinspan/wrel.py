"""Weighted-relational coefficients.

The coefficient of a term at a point (a multiset context together with a
multiset result type) is a natural number, computed by structural recursion
on the beta-normal form.  A multiset type is its canonical rigid type, so
each bag of the environment is a sorted sequence of ITypes and each target
a plain IType.

The recursion threads the context instead of guessing how to split it: for
a term, a target and the bags of the term's free variables, it returns the
leftovers, a map from each choice of sub-bags the term may leave unconsumed
to the number of ways it consumes the rest.  At a variable-headed spine the
head consumes one element of its variable's bag; the sum ranges over the
distinct element values, since consuming either of two equal copies leaves
the same residual.  Each argument then gets one copy per element of its
domain bag, and the copies thread the leftovers left to right, each taking
what it uses from what the copies before it left.  A lambda adds its
binder's bag, which the body must use up: only leftovers where the binder's
bag is empty survive, so a binder not free in its body gives 0 at any
non-empty domain.  The coefficient is the count of the leftovers where
every bag is empty.

Each bag stays sorted, since entries and domains are canonical and removing
an element keeps the order; the head skips an element equal to the one
before it.

The inputs are checked before the recursion starts: wrel_coefficient takes
a Subject from collapse.prepare, which annotated the term and checked the
point once for every path a query takes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import Lam, Term, Var, beta_normalize, free_vars, spine
# not called here: the tracer in perfbench/tracing.py wraps this name in this module
from .syntax import annotate  # noqa: F401
from .rigidtypes import IArrow, IType, SeqType, Subject


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


def wrel_coefficient(subject: Subject) -> NatInf:
    """Coefficient of the subject's term at its point."""
    # renaming keeps binders clear of context names after reduction
    nf = beta_normalize(subject.term, set(subject.ctx.names()))
    env = {x: seq for x, seq, _ in subject.gamma.entries}
    fvs = _term_info(nf)[0]
    if any(seq for x, seq in env.items() if x not in fvs):
        return NatInf(0)
    return NatInf(_leftovers(env, nf, subject.result).get(((),) * len(fvs), 0))


# leftovers: the bags of a term's free variables, in sorted name order, that
# the term leaves unconsumed -> the number of ways it consumes the rest
Leftovers = dict[tuple[SeqType, ...], int]

# term -> (its free variables, sorted; {(their bags, target): leftovers})
_cache: dict = {}


def _term_info(term: Term) -> tuple[tuple[str, ...], dict]:
    info = _cache.get(term)
    if info is None:
        info = _cache[term] = (tuple(sorted(free_vars(term))), {})
    return info


def _leftovers(env: dict[str, SeqType], term: Term, target: IType) -> Leftovers:
    fvs, memo = _term_info(term)
    key = (tuple(env[x] for x in fvs), target)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = _leftovers_raw(dict(zip(fvs, key[0])), term, target)
    return hit


def _leftovers_raw(env: dict[str, SeqType], term: Term, target: IType) -> Leftovers:
    fvs = _term_info(term)[0]
    if isinstance(term, Lam):
        if not isinstance(target, IArrow):
            return {}
        x = term.binder
        inner = _leftovers({**env, x: target.domain}, term.body, target.codomain)
        body_fvs = _term_info(term.body)[0]
        out: Leftovers = {}
        for left, n in inner.items():
            rest = dict(zip(body_fvs, left))
            if not rest.get(x, target.domain):
                out[tuple(rest[y] for y in fvs)] = n
        return out

    head, args = spine(term)
    assert isinstance(head, Var), "coefficient recursion expects a beta-normal term"
    bag = env[head.name]
    at = fvs.index(head.name)
    start = tuple(env[y] for y in fvs)
    out = {}
    for i, b in enumerate(bag):
        if i and bag[i - 1] == b:
            continue
        doms: list[SeqType] = []
        cur: IType = b
        for _ in args:
            if not isinstance(cur, IArrow):
                break
            doms.append(cur.domain)
            cur = cur.codomain
        if len(doms) < len(args) or cur != target:
            continue
        states: Leftovers = {start[:at] + (bag[:i] + bag[i + 1:],) + start[at + 1:]: 1}
        for arg, dom in zip(args, doms):
            where = [fvs.index(y) for y in _term_info(arg)[0]]
            for d in dom:
                after: Leftovers = {}
                for state, n in states.items():
                    for left, m in _leftovers(dict(zip(fvs, state)), arg, d).items():
                        new = list(state)
                        for j, seq in zip(where, left):
                            new[j] = seq
                        key = tuple(new)
                        after[key] = after.get(key, 0) + n * m
                states = after
        for state, n in states.items():
            out[state] = out.get(state, 0) + n
    return out
