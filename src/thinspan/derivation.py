"""Rigid derivations as rigid resource terms, witness enumeration, and
the count of morphisms between derivations.

A derivation assigns a rigid point (resource context, rigid type) to a
simply-typed term.  The rules, one per node kind:

  var:    x picks a single label; every other variable gets the empty
          sequence.
  app:    the function part concludes <a1,...,an> -o b, the argument part
          is a multi node concluding exactly <a1,...,an>; contexts
          concatenate, function part first.
  multi:  n independent derivations of the same term, one per sequence
          element, contexts concatenated left to right.
  lam:    the binder's entry (last in the body context) moves into the
          arrow domain.

Derivations of a fixed term biject with rigid resource terms, so a
derivation is represented by its resource term: a var node is an RVar
carrying its label, an app node an RApp whose argument tuple is the multi
node, a lam node an RLam.  The conclusion is computed from the tree: the
context entry of a variable lists the labels of its occurrences left to
right (rt_context), and the result is rt_type.  Resource terms are interned
(interning.Node), like the terms and labels they are built from: equal
derivations are one object, and equality is identity.  rt_type, contract
and endo_count are facts (interning.fact), computed once and kept on the
resource term.

Contexts are linear: each element is consumed by exactly one occurrence,
and the occurrences of a variable consume its sequence in order, left to
right.  So the witness enumerator never guesses how a context splits among
subterms: it threads the context through the term, and each subterm
returns, with each of its derivations, what it left of every entry for the
subterms to its right.  At a rigid point every entry is a sequence and
what is left of it a suffix.  Started from a canonical context instead,
each context variable's entry is a bag: an occurrence takes any one of its
values, labelled by any negative target of that value, so one enumeration
finds the derivations at every rigid context a negative morphism reaches
from it, and each derivation's context is read off its labels.  Binders
stay sequences.

At a redex whose argument is not a variable, the cut, the sequence of
types the argument's copies conclude, is guessed within the budget: the
sequences of length at most the budget over the argument's refinements of
width at most the budget.  Only the refinements that one copy of the
argument concludes are tried (_cut_pool), so no derivation the budget
admits is lost, and the candidates are the budget's length over that pool,
not over every refinement.

A symmetry class's degree, the number of endomorphisms of one of its
derivations, is counted without listing them: under a variable head the
argument multis fix the head's label morphism on every domain, so a spine
counts the morphisms between the head's codomains times a permanent per
multi, a block product over the copies' isomorphism classes.  The
morphisms themselves, of derivations and of their labels, and their
listing are test oracles in tests/reference.py, beside groupoid's listing
of type hom-sets; listing takes factorial time, so no query calls it.  Two
derivations are symmetric (some morphism joins them) iff their contracta
have the same multiset collapse, the paper's quotient to multiset resource
terms, because
  - a label hom-set is non-empty iff both labels have one canonical form;
  - a permanent of counts is non-zero iff the copies match in some order;
  - a redex counts as its contractum.
So that collapse keys the classes.  Contracting comes first: a redex's
collapse forgets which copy meets which occurrence of its binder, so
(\\y. x <y> <y>) <z, w> and (\\y. x <y> <y>) <w, z> collapse alike but
admit no morphism.

Inputs are checked where they arrive.  enumerate_witnesses checks the
term against the point, then runs witness_set, which checks only the
budget.  A query's subject is checked once, by collapse.prepare, and
collapse.positive_witnesses calls witness_set directly.

The enumerator keeps its subproblems in each subterm's memo
(interning.memo), and witness_set the sorted derivations at each start
context in the term's, beside collapse's witness reports and triple
counts; all of it dies with the term.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .interning import Node, fact, memo
from .syntax import (
    App, Arrow, Base, Lam, SimpleType, Term, TypingContext, Var,
    annotate, binder_names, free_vars, is_beta_normal, spine, term_to_text, type_to_text,
    typecheck,
)
from .rigidtypes import (
    IArrow, IType, ResourceContext, SeqType, Star,
    canonicalize_it, ctx_refines, ctx_to_text, it_to_text, key_it, refines,
)
from .symmetry import count_homs_it, neg_targets_it, permanent


class DerivationError(Exception):
    """Raised when a resource term does not fit a rule."""


class BudgetRequiredError(Exception):
    """Raised when enumerating witnesses of a non-normal term without a budget."""


Shape = tuple[tuple[str, SimpleType], ...]


####################################################################
# resource terms

class _RTNode(Node):
    """A resource term, with slots for its facts rt_type, contract, endo_count."""

    __slots__ = ("rt_type", "contract", "endo_count")


class RVar(_RTNode):
    name: str
    label: IType


class RLam(_RTNode):
    binder: str
    body: "ResourceTerm"
    annot: SimpleType


class RApp(_RTNode):
    fn: "ResourceTerm"
    args: tuple["ResourceTerm", ...]


ResourceTerm = RVar | RLam | RApp


def resource_to_text(r: ResourceTerm) -> str:
    match r:
        case RVar(x, a):
            return f"{x}^{{{it_to_text(a)}}}"
        case RLam(x, b, _):
            return f"\\{x}. {resource_to_text(b)}"
        case RApp(f, args):
            fs = resource_to_text(f)
            if isinstance(f, RLam):
                fs = f"({fs})"
            return f"{fs} <" + ",".join(resource_to_text(a) for a in args) + ">"
    raise TypeError(f"not a resource term: {r!r}")


def rt_occurrence_labels(r: ResourceTerm, x: str) -> list[IType]:
    """Labels of the free occurrences of x, left to right."""
    labels: dict[str, list[IType]] = {x: []}
    _gather_labels(r, labels, frozenset())
    return labels[x]


def rt_context(shape: Shape, r: ResourceTerm) -> ResourceContext:
    """The resource context a resource term concludes, over the variables of
    shape: each entry lists the labels of the variable's free occurrences,
    left to right, all gathered in one walk."""
    labels: dict[str, list[IType]] = {x: [] for x, _ in shape}
    _gather_labels(r, labels, frozenset())
    return ResourceContext(tuple((x, tuple(labels[x]), t) for x, t in shape))


def _gather_labels(r: ResourceTerm, labels: dict[str, list[IType]],
                   bound: frozenset[str]) -> None:
    """Append to labels[x] the label of each occurrence of x in r, left to
    right, but not under a binder of x."""
    match r:
        case RVar(y, a):
            if y in labels and y not in bound:
                labels[y].append(a)
        case RLam(y, b, _):
            _gather_labels(b, labels, bound | {y} if y in labels else bound)
        case RApp(f, args):
            _gather_labels(f, labels, bound)
            for a in args:
                _gather_labels(a, labels, bound)
        case _:
            raise TypeError(f"not a resource term: {r!r}")


@fact
def rt_type(r: ResourceTerm) -> IType:
    """The rigid type a resource term concludes; determined bottom-up."""
    match r:
        case RVar(_, a):
            return a
        case RLam(x, b, _):
            return IArrow(tuple(rt_occurrence_labels(b, x)), rt_type(b))
        case RApp(f, args):
            ft = rt_type(f)
            if not isinstance(ft, IArrow):
                raise DerivationError(f"applied resource term concludes {it_to_text(ft)}")
            got = tuple(rt_type(a) for a in args)
            if ft.domain != got:
                raise DerivationError(
                    f"argument types {tuple(map(it_to_text, got))} do not match domain "
                    f"{tuple(map(it_to_text, ft.domain))}")
            return ft.codomain
    raise TypeError(f"not a resource term: {r!r}")


def omega_substitute(r: ResourceTerm) -> ResourceTerm:
    """Contract a toplevel redex, pairing occurrences with arguments in order."""
    if not (isinstance(r, RApp) and isinstance(r.fn, RLam)):
        raise DerivationError("omega substitution needs a toplevel redex (\\x. m) <...>")
    x, body = r.fn.binder, r.fn.body
    labels = rt_occurrence_labels(body, x)
    if len(labels) != len(r.args):
        raise DerivationError(
            f"{len(labels)} occurrences of {x!r} but {len(r.args)} arguments")
    for i, (lab, a) in enumerate(zip(labels, r.args)):
        if rt_type(a) != lab:
            raise DerivationError(
                f"occurrence {i + 1} of {x!r} has label {it_to_text(lab)} but the "
                f"argument concludes {it_to_text(rt_type(a))}")
    args = list(r.args)

    def go(t: ResourceTerm) -> ResourceTerm:
        match t:
            case RVar(y, _):
                return args.pop(0) if y == x else t
            case RLam(y, b, ann):
                return t if y == x else RLam(y, go(b), ann)
            case RApp(f, aa):
                f2 = go(f)
                return RApp(f2, tuple(go(a) for a in aa))
        raise TypeError(f"not a resource term: {t!r}")

    return go(body)


@fact
def contract(r: ResourceTerm) -> ResourceTerm:
    """r's normal form: every redex contracted by omega_substitute, innermost
    first, until every spine has a variable head.  Each contraction drops a
    lambda, its application and the binder's occurrences, so this ends.  A
    subterm without a redex comes back as it is.  Kept on r alone: kept on
    its subterms, the partial contracta would live as long as r."""
    return _contract(r)


def _contract(r: ResourceTerm) -> ResourceTerm:
    match r:
        case RVar():
            return r
        case RLam(x, b, ann):
            b2 = _contract(b)
            return r if b2 is b else RLam(x, b2, ann)
        case RApp(f, args):
            f2, args2 = _contract(f), tuple(map(_contract, args))
            if isinstance(f2, RLam):
                # a lambda argument may land at a head of the body
                return _contract(omega_substitute(RApp(f2, args2)))
            return r if f2 is f and args2 == args else RApp(f2, args2)
    raise TypeError(f"not a resource term: {r!r}")


####################################################################
# multiset collapse of resource terms

def key_rt(r: ResourceTerm):
    """A total order on resource terms, extending key_it on labels."""
    match r:
        case RVar(x, a):
            return (0, x, key_it(a))
        case RLam(x, b, _):
            return (1, x, key_rt(b))
        case RApp(f, args):
            return (2, key_rt(f), tuple(key_rt(a) for a in args))
    raise TypeError(f"not a resource term: {r!r}")


def multiset_collapse_term(r: ResourceTerm, memo: dict | None = None) -> ResourceTerm:
    """The canonical resource term of r's multiset collapse: labels
    canonicalized and the copies of every argument sorted by key_rt.  The
    memo keeps the collapse of every subterm, which terms derived from one
    term share."""
    memo = {} if memo is None else memo
    out = memo.get(r)
    if out is None:
        match r:
            case RVar(x, a):
                out = RVar(x, canonicalize_it(a))
            case RLam(x, b, ann):
                out = RLam(x, multiset_collapse_term(b, memo), ann)
            case RApp(f, args):
                out = RApp(multiset_collapse_term(f, memo),
                           tuple(sorted((multiset_collapse_term(a, memo) for a in args),
                                        key=key_rt)))
            case _:
                raise TypeError(f"not a resource term: {r!r}")
        memo[r] = out
    return out


####################################################################
# witness enumeration

@dataclass(frozen=True, slots=True)
class Exact:
    def __repr__(self) -> str:
        return "exact"


@dataclass(frozen=True, slots=True)
class BoundedAt:
    budget: int

    def __repr__(self) -> str:
        return f"bounded:{self.budget}"


Completeness = Exact | BoundedAt


@dataclass(frozen=True)
class WitnessSet:
    ctx: TypingContext
    term: Term
    point: tuple[ResourceContext, IType]
    derivations: tuple[ResourceTerm, ...]
    completeness: Completeness

    def __len__(self) -> int:
        return len(self.derivations)


def enumerate_witnesses(ctx: TypingContext, term: Term, theta: ResourceContext,
                        alpha: IType, budget: int | None = None) -> WitnessSet:
    """All derivations of term at the rigid point (theta, alpha), each once.

    Exact for beta-normal terms.  Otherwise a budget is required and the
    result contains at least the derivations all of whose cut types (the
    sequence types introduced at redexes) have length and width at most
    the budget; of those, only types some copy of the argument concludes
    are tried.  The cut on a bare-variable argument is a window of that
    variable's remaining elements, of any length, whatever the budget.
    """
    term = _checked_term(ctx, term, theta, alpha)
    return witness_set(ctx, term, theta, alpha, budget, bags=False)


def _checked_term(ctx: TypingContext, term: Term, theta: ResourceContext,
                  alpha: IType) -> Term:
    """The annotated term, once the point is checked to fit it."""
    term, ty = annotate(ctx, term)
    bs = binder_names(term)
    if bs is None or not set(ctx.names()).isdisjoint(bs):
        raise DerivationError("term must have distinct binders, disjoint from the context")
    if theta.shape() != tuple(ctx.bindings):
        raise DerivationError(
            f"context {ctx_to_text(theta)} does not range over the typing context")
    if not ctx_refines(theta):
        raise DerivationError(f"context {ctx_to_text(theta)} fails refinement")
    if not refines(alpha, ty):
        raise DerivationError(f"result {it_to_text(alpha)} does not refine {type_to_text(ty)}")
    return term


def check_budget(budget) -> None:
    """A budget is None or a non-negative int, and not a bool."""
    if budget is not None and (type(budget) is not int or budget < 0):
        raise DerivationError(f"budget must be a non-negative integer, got {budget!r}")


def witness_set(ctx: TypingContext, term: Term, theta: ResourceContext, alpha: IType,
                budget: int | None, bags: bool) -> WitnessSet:
    """The enumeration behind enumerate_witnesses (bags false) and
    collapse.positive_witnesses (bags true), on a subject already checked:
    the term annotated, its binders distinct and apart from ctx's names,
    theta over ctx's variables and refining them, canonical if bags, and
    alpha refining the term's type.  Only the budget, given with each call,
    is checked here."""
    check_budget(budget)
    normal = is_beta_normal(term)
    if not normal and budget is None:
        raise BudgetRequiredError(
            f"term {term_to_text(term)} is not beta-normal; witness enumeration needs a budget")
    cut_budget = budget if not normal else None
    # the derivations at a whole start context, sorted by their text, sit
    # in the term's memo beside the enumerator's entries; a start context
    # fixes the variables that are not free in the term too, which must be
    # used up
    kept = memo(term)
    key = ("derivations", theta.entries, bags, alpha, cut_budget)
    found = kept.get(key)
    if found is None:
        start = {x: (seq, t, bags) for x, seq, t in theta.entries}
        found = kept[key] = tuple(sorted(
            (r for r, _ in _enum(term, start, alpha, cut_budget, frozenset(start))),
            key=resource_to_text))
    return WitnessSet(ctx, term, (theta, alpha), found,
                      Exact() if normal else BoundedAt(budget))  # type: ignore[arg-type]


# The enumerator threads the context through the term, left to right, as
# the occurrences consume it: each call takes what the subterms to its left
# did not consume, and returns every derivation paired with what it leaves
# in turn.  A context maps each variable in scope to its entry: what is
# left of it, its simple type, and whether it is a bag, whose values the
# occurrences take in any order, or a sequence, which they consume in
# order.  Binders are sequences.  A call must use up the variables in
# `must`; the others it may leave to the subterms to its right.
Entry = tuple[SeqType, SimpleType, bool]
Ctx = dict[str, Entry]
Found = list[tuple[ResourceTerm, Ctx]]

# A subproblem is kept in its term's memo under (the entries of its free
# variables, target, budget, which of them must be used up), as a list of
# (derivation, what it leaves of each entry); the other keys in a term's
# memo are strings or start with one.
def _enum(term: Term, ctx: Ctx, alpha: IType, budget: int | None,
          must: frozenset[str]) -> Found:
    fvs, kept = free_vars(term), memo(term)
    if any(ctx[x][0] for x in must if x not in fvs):
        return []
    key = (tuple(ctx[x] for x in fvs), alpha, budget, tuple(x in must for x in fvs))
    hit = kept.get(key)
    if hit is None:
        hit = kept[key] = [
            (r, tuple(left[x] for x in fvs))
            for r, left in _enum_raw(term, ctx, alpha, budget, must)]
    out = []
    for r, entries in hit:
        left = dict(ctx)
        left.update(zip(fvs, entries))
        out.append((r, left))
    return out


def _enum_raw(term: Term, ctx: Ctx, alpha: IType, budget: int | None,
              must: frozenset[str]) -> Found:
    match term:
        case Lam(x, b, ann):
            if not isinstance(alpha, IArrow):
                return []
            assert ann is not None
            inner = {**ctx, x: (alpha.domain, ann, False)}
            return [(RLam(x, r, ann), left)
                    for r, left in _enum(b, inner, alpha.codomain, budget, must | {x})]
        case Var(_) | App(_, _):
            head, args = spine(term)
            if isinstance(head, Var):
                return _enum_spine(head.name, args, ctx, alpha, budget, must)
            assert isinstance(term, App)
            f, a = term.fn, term.arg
            out: Found = []
            if isinstance(a, Var):
                y = a.name
                seq, t, bag = ctx[y]
                if bag:
                    # the copies take an ordered pick of y's bag, and f
                    # runs on what they leave of it
                    cuts = _bag_cuts(seq, t)
                    if y in must and y not in free_vars(f):
                        cuts = [(cut, rest) for cut, rest in cuts if not rest]
                    for cut, rest in cuts:
                        copies = tuple(RVar(y, c) for c in cut)
                        for rf, left in _enum(f, {**ctx, y: (rest, t, True)},
                                              IArrow(cut, alpha), budget, must):
                            out.append((RApp(rf, copies), left))
                    return out
                # each copy of a bare variable consumes one element, so the
                # cut is the window seq[i:j] of what f leaves of it
                n, must_f = len(seq), must - {y}
                for i in range(n + 1) if y in free_vars(f) else (0,):
                    for j in (n,) if y in must else range(i, n + 1):
                        copies = tuple(RVar(y, c) for c in seq[i:j])
                        for rf, left in _enum(f, ctx, IArrow(seq[i:j], alpha), budget, must_f):
                            if len(left[y][0]) == n - i:
                                out.append((RApp(rf, copies), {**left, y: (seq[j:], t, False)}))
                return out
            aty = typecheck(TypingContext(tuple((x, t) for x, (_, t, _) in ctx.items())), a)
            must_f = must.difference(free_vars(a))
            for abar in _cuts(a, ctx, aty, budget):  # type: ignore[arg-type]
                for rf, left in _enum(f, ctx, IArrow(abar, alpha), budget, must_f):
                    for m, rest in _enum_multi(a, left, abar, budget, must):
                        out.append((RApp(rf, m), rest))
            return out
    raise TypeError(f"not a term: {term!r}")


def _takes(seq: SeqType, t: SimpleType, bag: bool) -> list[tuple[IType, SeqType]]:
    """The labels one occurrence may take from an entry, each with what it
    leaves: a sequence's first element; or any distinct value of a bag,
    labelled by any of its negative targets."""
    if not bag:
        return [(seq[0], seq[1:])] if seq else []
    return [(label, seq[:i] + seq[i + 1:])
            for i, v in enumerate(seq) if not i or seq[i - 1] != v
            for label in neg_targets_it(v, t)]


def _bag_cuts(bag: SeqType, t: SimpleType) -> list[tuple[SeqType, SeqType]]:
    """Every ordered pick of labels from a bag, one take after another, with
    what it leaves of the bag."""
    out = frontier = [((), bag)]
    while frontier:
        frontier = [(cut + (label,), left) for cut, rest in frontier
                    for label, left in _takes(rest, t, True)]
        out = out + frontier
    return out


def _enum_spine(name: str, args: list[Term], ctx: Ctx, alpha: IType,
                budget: int | None, must: frozenset[str]) -> Found:
    seq, t, bag = ctx[name]
    if not args and name in must and len(seq) > 1:
        return []
    out: Found = []
    for label, rest in _takes(seq, t, bag):
        doms: list[SeqType] = []
        cur: IType = label
        for _ in args:
            if not isinstance(cur, IArrow):
                break
            doms.append(cur.domain)
            cur = cur.codomain
        if len(doms) < len(args) or cur != alpha:
            continue
        found: Found = [(RVar(name, label), {**ctx, name: (rest, t, bag)})]
        for j, (arg, dom) in enumerate(zip(args, doms)):
            later = set().union(*map(free_vars, args[j + 1:]))
            found = [(RApp(r, m), after) for r, left in found
                     for m, after in _enum_multi(arg, left, dom, budget, must - later)]
        out.extend(found)
    return out


def _enum_multi(term: Term, ctx: Ctx, targets: SeqType, budget: int | None,
                must: frozenset[str]) -> list[tuple[tuple[ResourceTerm, ...], Ctx]]:
    """One copy of term per target, threaded left to right; every copy but
    the last may leave term's free variables to the copies after it."""
    if not targets:
        return [((), ctx)] if not any(ctx[x][0] for x in must) else []
    lax = must.difference(free_vars(term))
    out: list[tuple[tuple[ResourceTerm, ...], Ctx]] = [((), ctx)]
    for i, target in enumerate(targets):
        m = must if i == len(targets) - 1 else lax
        out = [(done + (r,), rest) for done, left in out
               for r, rest in _enum(term, left, target, budget, m)]
    return out


def _cuts(a: Term, ctx: Ctx, aty: SimpleType, budget: int) -> list[SeqType]:
    """The cuts tried at a redex whose argument a is not a variable: every
    sequence, of length at most the budget, over the types that one copy of
    a concludes (_cut_pool).  A term with a redex is enumerated only under
    a budget (witness_set)."""
    pool = _cut_pool(a, ctx, aty, budget)
    return [cut for n in range(budget + 1) for cut in product(pool, repeat=n)]


def _cut_pool(a: Term, ctx: Ctx, aty: SimpleType, budget: int) -> tuple[IType, ...]:
    """The refinements of aty, of length and width at most the budget, that
    one copy of a concludes from some context a copy may start from.

    A copy starts from what the function part and the copies before it
    leave of ctx: of each bag a sub-bag, and of each sequence a suffix.
    What a copy concludes drawing on a sub-bag it concludes drawing on the
    whole bag, and with nothing it must use up, what it leaves does not
    matter.  So each type is tried from the whole bags and from every choice
    of suffixes of a's free sequences, the binders around the redex and, at
    a rigid point, every context variable."""
    seqs = [x for x in free_vars(a) if not ctx[x][2]]
    starts = [{**ctx, **{x: (ctx[x][0][i:], ctx[x][1], False) for x, i in zip(seqs, skip)}}
              for skip in product(*(range(len(ctx[x][0]) + 1) for x in seqs))]
    return tuple(beta for beta in _bounded_refinements(aty, budget)
                 if any(_enum(a, start, beta, budget, frozenset()) for start in starts))


@lru_cache(maxsize=None)
def _bounded_refinements(t: SimpleType, budget: int) -> tuple[IType, ...]:
    match t:
        case Base():
            return (Star(),)
        case Arrow(td, tc):
            return tuple(IArrow(s, c)
                         for s in _bounded_seqs(td, budget)
                         for c in _bounded_refinements(tc, budget))
    raise TypeError(f"not a simple type: {t!r}")


@lru_cache(maxsize=None)
def _bounded_seqs(t: SimpleType, budget: int | None) -> tuple[SeqType, ...]:
    if budget is None:
        raise BudgetRequiredError("cut types at a redex need a budget")
    pool = _bounded_refinements(t, budget)
    out: list[SeqType] = []
    for n in range(budget + 1):
        out.extend(product(pool, repeat=n))
    return tuple(out)


####################################################################
# counting derivation morphisms

def count_derivation_morphisms(r1: ResourceTerm, r2: ResourceTerm) -> int:
    """The number of morphisms r1 -> r2; both must derive the same term.

    A var node counts the morphisms between its labels, and a lam node its
    body's.  In a spine x <M1> ... <Mk>, each argument multi morphism fixes
    the matching domain of the head's label morphism, so only the head's
    codomain is free: the spine counts the morphisms between the codomains
    times, per multi, the permanent of the counts between its copies.

    A spine under a lambda head, a redex (\\x. M) <N1, ..., Nn> applied to
    any further multis, counts as its contractum.  A morphism of the redex
    is a body morphism m together with an argument multi morphism whose
    permutation s and label morphisms are the ones m induces on the
    occurrences of x (dm_occurrences in tests/reference.py): m sends the
    i-th occurrence of x to the s(i)-th, and the i-th copy goes to the
    s(i)-th by a morphism Ni -> N's(i) whose result morphism is the
    one m gives occurrence i.  omega_substitute puts Ni at occurrence i and
    N's(i) at occurrence s(i), so the same data is a morphism of the
    contracta: m with its var morphism at each occurrence i replaced by that
    morphism of Ni.  The rules see a node's morphism only through its result
    morphism, so this is a bijection, in any context around the redex, and
    contracting every redex keeps the count.  So both derivations are
    contracted first.
    """
    return _count_contracted(contract(r1), contract(r2))


def _count_contracted(a: ResourceTerm, b: ResourceTerm, memo: dict | None = None) -> int:
    """count_derivation_morphisms on contracted derivations, whose spines
    all have a variable head.  The memo keeps the counts between pairs of
    subterms and, as count_homs_it keeps them, between pairs of labels."""
    memo = {} if memo is None else memo
    key = (a, b)
    if key in memo:
        return memo[key]
    n = 0
    match a, b:
        case RVar(x, la), RVar(y, lb):
            n = count_homs_it(la, lb, memo) if x == y else 0
        case RLam(x, ba, ta), RLam(y, bb, tb):
            n = _count_contracted(ba, bb, memo) if x == y and ta == tb else 0
        case RApp(), RApp():
            ha, multis_a = _rt_spine(a)
            hb, multis_b = _rt_spine(b)
            if ha.name == hb.name and len(multis_a) == len(multis_b):
                ca, cb = ha.label, hb.label
                for _ in multis_a:
                    ca, cb = ca.codomain, cb.codomain
                n = count_homs_it(ca, cb, memo)
                for aa, bb in zip(multis_a, multis_b):
                    if not n or len(aa) != len(bb):
                        n = 0
                        break
                    n *= permanent([[_count_contracted(x, y, memo) for y in bb] for x in aa])
    memo[key] = n
    return n


def _rt_spine(r: ResourceTerm) -> tuple[ResourceTerm, list[tuple[ResourceTerm, ...]]]:
    """The head of a resource term and its argument multis, left to right."""
    multis = []
    while isinstance(r, RApp):
        multis.append(r.args)
        r = r.fn
    return r, multis[::-1]


@fact
def endo_count(r: ResourceTerm) -> int:
    """deg(r): the number of endomorphisms of r, counted, not listed."""
    return count_derivation_morphisms(r, r)


def partition_by_symmetry(derivations) -> tuple[tuple[ResourceTerm, ...], ...]:
    """Group derivations of a common term into symmetry classes, in the
    order of their first members, keyed by the multiset collapse of their
    contracta, counting no morphism; a lone derivation is not keyed.  The
    collapses of the subterms the derivations share are taken once."""
    derivations = tuple(derivations)
    if len(derivations) == 1:
        return (derivations,)
    classes: dict[ResourceTerm, list[ResourceTerm]] = {}
    memo: dict = {}
    for r in derivations:
        classes.setdefault(multiset_collapse_term(contract(r), memo), []).append(r)
    return tuple(map(tuple, classes.values()))
