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
point once for every path a query takes.  The recursion reads facts kept
on the terms (syntax): a term's free variables, sorted, fix the order of
its bags in the table keys and the leftovers, so a call takes and gives
back the bags of its term's free variables alone, as a tuple, and a spine
finds once where each argument's free variables sit among its own; and
the normal form of a
redex term is kept on it, so a repeated query normalizes nothing, and
re-freshening a normal form whose binders are already distinct is no walk.
Leftovers are kept in a table of the call's, which dies with it.  Of what
the call derives a later query reads only the coefficient, so that count
alone is kept in the normal form's memo (interning.memo), under a key of
its own, and dies with the normal form.
"""

from __future__ import annotations

from .interning import Record, memo
from .syntax import Lam, Term, Var, beta_normalize, free_vars, is_beta_normal, spine
# not called here: the tracer in perfbench/tracing.py wraps this name in this module
from .syntax import annotate  # noqa: F401
from .rigidtypes import IArrow, IType, SeqType, Subject


class NatInf(Record):
    """A coefficient of the weighted-relational model."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        if value < 0:
            raise ValueError("negative coefficient")
        object.__setattr__(self, "value", value)

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return str(self.value)


def wrel_coefficient(subject: Subject) -> NatInf:
    """Coefficient of the subject's term at its point."""
    # prepare freshened the binders; only reduction may need them renamed
    term = subject.term
    nf = term if is_beta_normal(term) else beta_normalize(term, set(subject.ctx.names()))
    env = {x: seq for x, seq, _ in subject.gamma.entries}
    fvs = free_vars(nf)
    if any(seq for x, seq in env.items() if x not in fvs):
        return NatInf(0)
    # the answer is kept in nf's memo, and the subproblems in a table
    # that dies with this call
    kept = memo(nf)
    bags = tuple(env[x] for x in fvs)
    key = ("coefficient", bags, subject.result)
    n = kept.get(key)
    if n is None:
        left = _leftovers(bags, nf, subject.result, {})
        n = kept[key] = left.get(((),) * len(fvs), 0)
    return NatInf(n)


# leftovers: the bags of a term's free variables, in sorted name order, that
# the term leaves unconsumed -> the number of ways it consumes the rest
Leftovers = dict[tuple[SeqType, ...], int]


def _leftovers(bags: tuple[SeqType, ...], term: Term, target: IType,
               solved: dict) -> Leftovers:
    """The leftovers of term at target from bags, the bags of its free
    variables in sorted name order, kept in solved under (term, bags,
    target)."""
    key = (term, bags, target)
    hit = solved.get(key)
    if hit is None:
        hit = solved[key] = _leftovers_raw(bags, term, target, solved)
    return hit


def _leftovers_raw(bags: tuple[SeqType, ...], term: Term, target: IType,
                   solved: dict) -> Leftovers:
    if isinstance(term, Lam):
        if not isinstance(target, IArrow):
            return {}
        x, body_fvs = term.binder, free_vars(term.body)
        if x not in body_fvs:
            # the body's free variables are the lambda's, and the binder's
            # bag, left whole, must be empty
            return {} if target.domain else _leftovers(bags, term.body, target.codomain, solved)
        i = body_fvs.index(x)
        out: Leftovers = {}
        for left, n in _leftovers(bags[:i] + (target.domain,) + bags[i:], term.body,
                                  target.codomain, solved).items():
            if not left[i]:
                out[left[:i] + left[i + 1:]] = n
        return out

    head, args = spine(term)
    assert isinstance(head, Var), "coefficient recursion expects a beta-normal term"
    fvs = free_vars(term)
    at = fvs.index(head.name)
    bag = bags[at]
    # where each argument's free variables sit among the spine's, or None
    # where they are the spine's, the same tuple
    wheres = []
    for arg in args:
        arg_fvs = free_vars(arg)
        wheres.append(None if arg_fvs is fvs else tuple(map(fvs.index, arg_fvs)))
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
        states: Leftovers = {bags[:at] + (bag[:i] + bag[i + 1:],) + bags[at + 1:]: 1}
        for arg, where, dom in zip(args, wheres, doms):
            for d in dom:
                after: Leftovers = {}
                for state, n in states.items():
                    if where is None:
                        for left, m in _leftovers(state, arg, d, solved).items():
                            after[left] = after.get(left, 0) + n * m
                        continue
                    for left, m in _leftovers(tuple(map(state.__getitem__, where)), arg, d,
                                              solved).items():
                        new = list(state)
                        for j, seq in zip(where, left):
                            new[j] = seq
                        key = tuple(new)
                        after[key] = after.get(key, 0) + n * m
                states = after
        for state, n in states.items():
            out[state] = out.get(state, 0) + n
    return out
