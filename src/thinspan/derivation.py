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
derivations are one object, and equality is identity.  rt_type and
endo_count are facts (interning.fact), computed once and kept on the
resource term: a label or a count, which costs its node a slot.  A
derivation's contractum is no fact: it is a tree of its own, which only
the symmetry partition and the morphism count read, each at most once per
derivation in a query, and the report a query keeps holds what they
found; kept on the witness, it would live as long as the witness with
nothing to read it again.

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
from it, and each derivation's context is read off its labels.  The run
lists a value's targets, read off the value alone, once.  The result is
read alike (_Pos, by polar_class), and each derivation's result is its
rt_type.  Other binders stay sequences.

At a redex (\\x. M) N the cut, the sequence of types N's copies conclude,
is not guessed: it is read off the function part, as the app rule reads
it.  The function part is enumerated once, at a cut target, whose lambda
gives x an open entry: each occurrence of x takes any type one copy of N
concludes (_cut_pool), and the labels of the occurrences, the domain of
the type the function part concludes, are the cut.  Those types are
synthesized: one copy of N is enumerated with its target left open, and
each of its derivations concludes the type rt_type reads off it.  The
copies at the cut are then enumerated at their types, like the copies of
any argument.  The point bounds every cut, whatever N is: each copy
consumes what the context holds.

A lambda whose target is open leaves its binder open too, and each
occurrence of it takes any refinement of its type: * at base type, and at
an arrow type, which the point does not bound, those whose sequences have
length at most the budget, the one place the budget is read.  The run
lists them once for each type, and they die with it.  So a report is
exact unless an open binder of arrow type took labels bounded by the
budget.

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

Inputs are checked where they arrive: enumerate_witnesses checks the term
against the point, check_budget the budget, and collapse.prepare a
query's subject, once.  witness_set, the enumeration itself, checks
nothing.  It runs without a budget first, and again under the budget
given only when an open binder of arrow type asks for its labels, or
raises BudgetRequiredError without one; it returns the budget it ran
under, None without one, as its bounded_at.  So what a budget-free run
keeps is exact, and only a run that reports a budget meets a subproblem
kept under one.

Each witness_set call is one run (_Run), which carries the budget and
keeps the labels it lists and the subproblems it solves.  At a subterm
free in none of the context's variables, such as a Church numeral, a
subproblem is kept in the subterm's memo (interning.memo), where the next
query under other names meets it again; at any other subterm, in the
run's own table.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .interning import Node, Record, fact, memo
from .syntax import (
    App, Arrow, Base, Lam, SimpleType, Term, TypingContext, Var,
    annotate, binder_names, free_vars, spine, term_to_text, type_to_text,
)
from .rigidtypes import (
    IArrow, IType, ResourceContext, SeqType, Star,
    canonicalize_it, ctx_refines, ctx_to_text, it_to_text, key_it, refines,
)
from .symmetry import count_homs_it, neg_targets_it, permanent, polar_class


class DerivationError(Exception):
    """Raised when a resource term does not fit a rule."""


class BudgetRequiredError(Exception):
    """Raised when an enumeration needs a budget and none was given."""


class _Unbounded(Exception):
    """Raised by a run without a budget when an open binder of arrow type,
    the one simple type carried, asks for its labels."""


Shape = tuple[tuple[str, SimpleType], ...]


####################################################################
# resource terms

class _RTNode(Node):
    """A resource term, with slots for its facts rt_type and endo_count."""

    __slots__ = ("rt_type", "endo_count")


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
    """Contract a toplevel redex, pairing occurrences with arguments in order.
    One walk substitutes and checks each occurrence's label against its
    argument."""
    if not (isinstance(r, RApp) and isinstance(r.fn, RLam)):
        raise DerivationError("omega substitution needs a toplevel redex (\\x. m) <...>")
    args = iter(r.args)
    out = _substitute(r.fn.body, r.fn.binder, args, r)
    if next(args, None) is not None:
        raise _redex_error(r)
    return out


def _redex_error(r: RApp) -> DerivationError:
    """What is wrong with the redex r: its binder's occurrences and its
    arguments differ in number, or else the first occurrence whose label
    differs from the type its argument concludes."""
    x, body = r.fn.binder, r.fn.body
    labels = rt_occurrence_labels(body, x)
    if len(labels) != len(r.args):
        return DerivationError(f"{len(labels)} occurrences of {x!r} but {len(r.args)} arguments")
    i, lab, a = next((i, lab, a) for i, (lab, a) in enumerate(zip(labels, r.args))
                     if rt_type(a) != lab)
    return DerivationError(f"occurrence {i + 1} of {x!r} has label {it_to_text(lab)} but the "
                           f"argument concludes {it_to_text(rt_type(a))}")


def _substitute(t: ResourceTerm, x: str, args, redex: RApp) -> ResourceTerm:
    """t with its free occurrences of x replaced by the next of args, left
    to right, each of which must conclude its occurrence's label.  A plain
    recursion: a nested function that calls itself is a reference cycle,
    which only the cyclic collector frees."""
    match t:
        case RVar(y, label):
            if y != x:
                return t
            a = next(args, None)
            if a is None or rt_type(a) != label:
                raise _redex_error(redex)
            return a
        case RLam(y, b, ann):
            if y == x:
                return t
            b2 = _substitute(b, x, args, redex)
            return t if b2 is b else RLam(y, b2, ann)
        case RApp(f, aa):
            f2 = _substitute(f, x, args, redex)
            aa2 = tuple(_substitute(a, x, args, redex) for a in aa)
            return t if f2 is f and aa2 == aa else RApp(f2, aa2)
    raise TypeError(f"not a resource term: {t!r}")


def contract(r: ResourceTerm) -> ResourceTerm:
    """r's normal form: every redex contracted by omega_substitute, innermost
    first, until every spine has a variable head.  Each contraction drops a
    lambda, its application and the binder's occurrences, so this ends.  A
    subterm without a redex comes back as it is.  Not kept: a query
    contracts each derivation it partitions once, and each derivation
    whose morphisms it counts once, and nothing it keeps reads a
    contractum."""
    match r:
        case RVar():
            return r
        case RLam(x, b, ann):
            b2 = contract(b)
            return r if b2 is b else RLam(x, b2, ann)
        case RApp(f, args):
            f2, args2 = contract(f), tuple(map(contract, args))
            if isinstance(f2, RLam):
                # the body and the copies have no redex, so the contractum
                # has one only where a lambda copy lands at a head
                r2 = omega_substitute(RApp(f2, args2))
                return contract(r2) if any(isinstance(a, RLam) for a in args2) else r2
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

class WitnessSet(Record):
    # the derivations sorted by their text, and the budget they were
    # enumerated under; None when exact
    __slots__ = ("derivations", "bounded_at")

    def __init__(self, derivations: tuple[ResourceTerm, ...], bounded_at: int | None):
        object.__setattr__(self, "derivations", derivations)
        object.__setattr__(self, "bounded_at", bounded_at)

    def __len__(self) -> int:
        return len(self.derivations)


def enumerate_witnesses(ctx: TypingContext, term: Term, theta: ResourceContext,
                        alpha: IType, budget: int | None = None) -> WitnessSet:
    """All derivations of term at the rigid point (theta, alpha), each once,
    sorted by their text.

    Exact, with bounded_at None, unless an open binder of arrow type (the
    binder of a lambda in a redex's argument) took labels: then bounded_at
    is the budget, which is required, and the result holds at least the
    derivations whose open binders' labels it admits.
    """
    term = _checked_term(ctx, term, theta, alpha)
    check_budget(budget)
    found, bounded_at = witness_set(term, theta, alpha, budget, bags=False)
    return WitnessSet(tuple(sorted(found, key=resource_to_text)), bounded_at)


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


def witness_set(term: Term, theta: ResourceContext, alpha: IType, budget: int | None,
                bags: bool) -> tuple[list[ResourceTerm], int | None]:
    """The derivations of term at (theta, alpha), in the enumerator's order,
    and the budget they were enumerated under, as for enumerate_witnesses
    (bags false) and collapse.positive_witnesses (bags true), on a subject
    already checked: the term annotated, its binders distinct and apart
    from the context's names, theta over the context's variables and
    refining them, alpha refining the term's type, both canonical and read
    up to symmetry if bags, and the budget checked.  Nothing is checked
    here."""
    # a start context fixes the variables that are not free in the term
    # too, which must be used up
    start = {x: (seq, bags) for x, seq, _ in theta.entries}
    target = _Pos(alpha) if bags and isinstance(alpha, IArrow) else alpha
    try:
        run = _Run(start, None)
        return [r for r, _ in _enum(term, start, target, run, frozenset(start))], None
    except _Unbounded as e:
        if budget is None:
            raise BudgetRequiredError(
                f"term {term_to_text(term)} has an open binder of type {type_to_text(e.args[0])},"
                " whose labels only a budget bounds; witness enumeration needs a budget") from None
    run = _Run(start, budget)
    return [r for r, _ in _enum(term, start, target, run, frozenset(start))], budget


# The enumerator threads the context through the term, left to right, as
# the occurrences consume it: each call takes what the subterms to its left
# did not consume, and returns every derivation paired with what it leaves
# in turn.  A context maps each variable in scope to its entry: what is
# left of it and its kind: a bag (True), whose values the occurrences take
# in any order; a sequence (False), which they consume in order; or open
# (None), labels the occurrences take any of, any number of times, which is
# never used up.  Binders are sequences, but a lambda at _Pos makes its
# binder a bag, and one at a cut or open leaves it open.  A
# target is a rigid type; _Pos; a cut (_Cut), at a redex's function part;
# or None, open: a spine concludes what its head gives it.  A call must use
# up the variables in `must`; the others it may leave to the subterms to
# its right.
Entry = tuple[SeqType, bool | None]
Ctx = dict[str, Entry]
Found = list[tuple[ResourceTerm, Ctx]]


class _Cut(NamedTuple):
    """The target of a redex's function part: an arrow from the cut to the
    redex's own target, result.  The lambda's binder takes the types in
    pool, those one copy of the argument concludes, and the labels of its
    occurrences are the cut."""
    pool: tuple[IType, ...]
    result: Target


class _Pos(NamedTuple):
    """Any type a positive morphism takes to a, a canonical arrow; at * the target is *."""
    a: IArrow


Target = IType | _Pos | _Cut | None


class _Run:
    """One enumeration: the budget it runs under, or None, the context's
    variable names, which decide where a subproblem is kept (at), the labels
    an open binder of each type takes (bounded_refinements) and those of
    each bag value (_takes).  What it keeps itself dies with it."""

    __slots__ = ("names", "budget", "labels", "_tables", "_refinements")

    def __init__(self, names, budget: int | None):
        self.names = frozenset(names)
        self.budget = budget
        self.labels: dict[IType, tuple[IType, ...]] = {}
        self._tables: dict[Term, dict] = {}
        self._refinements: dict[SimpleType, tuple[IType, ...]] = {}

    def at(self, t: Term) -> dict:
        """The dict that keeps the subproblems solved at t: t's memo when t
        names none of the context's variables, since a later query under
        other names meets t again, and otherwise one of the run's own, since
        a repeat is answered from collapse's report and a fresh query
        renames its context.  A subproblem's key is the same in either."""
        if self.names.isdisjoint(free_vars(t)):
            return memo(t)
        kept = self._tables.get(t)
        if kept is None:
            kept = self._tables[t] = {}
        return kept

    def bounded_refinements(self, t: SimpleType) -> tuple[IType, ...]:
        """The refinements of t whose sequences have length at most the
        budget: the labels of a binder whose lambda's target is open.  A run
        without a budget raises _Unbounded at an arrow type."""
        out = self._refinements.get(t)
        if out is None:
            match t:
                case Base():
                    out = (Star(),)
                case Arrow(td, tc):
                    if self.budget is None:
                        raise _Unbounded(t)
                    pool = self.bounded_refinements(td)
                    out = tuple(IArrow(s, c) for n in range(self.budget + 1)
                                for s in product(pool, repeat=n)
                                for c in self.bounded_refinements(tc))
                case _:
                    raise TypeError(f"not a simple type: {t!r}")
            self._refinements[t] = out
        return out


# A subproblem is kept where the run says, under (the entries of its
# term's free variables, target, budget, which of them must be used up), as
# a list of (derivation, what it leaves of each entry); the other keys in a
# term's memo are strings or start with one.
def _enum(term: Term, ctx: Ctx, alpha: Target, run: _Run,
          must: frozenset[str]) -> Found:
    fvs, kept = free_vars(term), run.at(term)
    if any(ctx[x][0] for x in must if x not in fvs):
        return []
    key = (tuple(ctx[x] for x in fvs), alpha, run.budget, tuple(x in must for x in fvs))
    hit = kept.get(key)
    if hit is None:
        hit = kept[key] = [
            (r, tuple(left[x] for x in fvs))
            for r, left in _enum_raw(term, ctx, alpha, run, must)]
    out = []
    for r, entries in hit:
        left = dict(ctx)
        left.update(zip(fvs, entries))
        out.append((r, left))
    return out


def _enum_raw(term: Term, ctx: Ctx, alpha: Target, run: _Run,
              must: frozenset[str]) -> Found:
    match term:
        case Lam(x, b, ann):
            assert ann is not None
            if isinstance(alpha, IArrow):
                entry, body_alpha, must = (alpha.domain, False), alpha.codomain, must | {x}
            elif isinstance(alpha, _Pos):
                entry, c, must = (alpha.a.domain, True), alpha.a.codomain, must | {x}
                body_alpha = _Pos(c) if isinstance(c, IArrow) else c
            elif isinstance(alpha, _Cut):
                entry, body_alpha = (alpha.pool, None), alpha.result
            elif alpha is None:
                entry, body_alpha = (run.bounded_refinements(ann), None), None
            else:
                return []
            return [(RLam(x, r, ann), left)
                    for r, left in _enum(b, {**ctx, x: entry}, body_alpha, run, must)]
        case Var(_) | App(_, _):
            head, args = spine(term)
            if isinstance(head, Var):
                return _enum_spine(head.name, args, ctx, alpha, run, must)
            assert isinstance(term, App)
            # the function part's binder takes the types one copy of the
            # argument concludes, and its occurrences' labels are the cut
            f, a = term.fn, term.arg
            out: Found = []
            for rf, left in _enum(f, ctx, _Cut(_cut_pool(a, ctx, run), alpha), run,
                                  must.difference(free_vars(a))):
                for m, rest in _enum_multi(a, left, rt_type(rf).domain, run, must):
                    out.append((RApp(rf, m), rest))
            return out
    raise TypeError(f"not a term: {term!r}")


def _takes(seq: SeqType, bag: bool | None, run: _Run) -> list[tuple[IType, SeqType]]:
    """The labels one occurrence may take from an entry, each with what it
    leaves: a sequence's first element; any distinct value of a bag,
    labelled by any of its negative targets, which the run lists once; or
    any label of an open entry, which it leaves as it is."""
    if bag is None:
        return [(label, seq) for label in seq]
    if not bag:
        return [(seq[0], seq[1:])] if seq else []
    labels = run.labels
    for v in seq:
        if v not in labels:
            labels[v] = neg_targets_it(v)
    return [(label, seq[:i] + seq[i + 1:])
            for i, v in enumerate(seq) if not i or seq[i - 1] != v
            for label in labels[v]]


def _fits(beta: IType, alpha: Target) -> bool:
    """Whether a spine concluding beta meets its target: an open target any
    type, a cut an arrow whose domain draws on its pool and whose codomain
    fits its result, _Pos(a) a type of a's positive class, and a rigid type itself."""
    if isinstance(alpha, _Cut):
        return (isinstance(beta, IArrow) and all(b in alpha.pool for b in beta.domain)
                and _fits(beta.codomain, alpha.result))
    if isinstance(alpha, _Pos):
        return polar_class(beta, True) == polar_class(alpha.a, True)
    return alpha is None or beta == alpha


def _enum_spine(name: str, args: list[Term], ctx: Ctx, alpha: Target,
                run: _Run, must: frozenset[str]) -> Found:
    seq, bag = ctx[name]
    if not args and name in must and len(seq) > 1:
        return []
    # an argument must use up what must names and no argument after it does
    musts, later = [], set()
    for arg in reversed(args):
        musts.append(must - later)
        later.update(free_vars(arg))
    musts.reverse()
    out: Found = []
    for label, rest in _takes(seq, bag, run):
        doms: list[SeqType] = []
        cur: IType = label
        for _ in args:
            if not isinstance(cur, IArrow):
                break
            doms.append(cur.domain)
            cur = cur.codomain
        if len(doms) < len(args) or not _fits(cur, alpha):
            continue
        found: Found = [(RVar(name, label), {**ctx, name: (rest, bag)})]
        for arg, dom, arg_must in zip(args, doms, musts):
            found = [(RApp(r, m), after) for r, left in found
                     for m, after in _enum_multi(arg, left, dom, run, arg_must)]
        out.extend(found)
    return out


def _enum_multi(term: Term, ctx: Ctx, targets: SeqType, run: _Run,
                must: frozenset[str]) -> list[tuple[tuple[ResourceTerm, ...], Ctx]]:
    """One copy of term per target, each enumerated at its target, threaded
    left to right; every copy but the last may leave term's free variables
    to the copies after it."""
    if not targets:
        return [((), ctx)] if not any(ctx[x][0] for x in must) else []
    lax = must.difference(free_vars(term))
    out: list[tuple[tuple[ResourceTerm, ...], Ctx]] = [((), ctx)]
    for i, target in enumerate(targets):
        m = must if i == len(targets) - 1 else lax
        # loops, not a comprehension, which would be one more frame deep
        # in the recursion
        step = []
        for done, left in out:
            step.extend((done + (r,), rest) for r, rest in _enum(term, left, target, run, m))
        out = step
    return out


def _cut_pool(a: Term, ctx: Ctx, run: _Run) -> tuple[IType, ...]:
    """The labels of the binder of a redex whose argument is a: the
    refinements of a's type that one copy of a concludes from some context a
    copy may start from, in key_it order.

    They are synthesized, not guessed: one copy of a is enumerated from
    each start with its target left open, and each derivation concludes
    its rt_type.  A copy starts from what the function part and the copies
    before it leave of ctx: of each bag a sub-bag, and of each sequence a
    suffix.  What a copy concludes drawing on a sub-bag it concludes
    drawing on the whole bag, and with nothing it must use up, what it
    leaves does not matter.  So the starts are the whole bags with every
    choice of suffixes of a's free sequences: the binders around the redex
    and, at a rigid point, every context variable.  An open binder is no
    sequence: its occurrences pick their labels.  The synthesis only names
    the types; each copy at the cut is enumerated at its own (_enum_multi)."""
    seqs = [x for x in free_vars(a) if ctx[x][1] is False]
    starts = [{**ctx, **{x: (ctx[x][0][i:], False) for x, i in zip(seqs, skip)}}
              for skip in product(*(range(len(ctx[x][0]) + 1) for x in seqs))]
    found = {rt_type(r) for start in starts for r, _ in _enum(a, start, None, run, frozenset())}
    return tuple(sorted(found, key=key_it))


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
    contracted first, once in all when they are the same derivation.
    """
    a = contract(r1)
    return _count_contracted(a, a if r2 is r1 else contract(r2))


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
