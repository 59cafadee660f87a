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
resource term: a label or a count, which costs its node a slot.

Witnesses are enumerated on the term's beta-normal form
(normal_witnesses), and read back (read_back) only to be listed.  The
normal form is reached in one pass (_normalized), which runs the term
as a machine with a stack of pending applications and records a trace:
each node of the normal form comes from a head, an application pending at
it, or a lambda with nothing pending, and each occurrence of a binder that
took an argument receives a copy of it, which the machine runs on in
place.  It is not syntax's normalizer, which the coefficient reads, so a
fault in either shows as a disagreement between the counting paths.  A
derivation of the normal form reads back along the trace in one walk
(_back): at each redex (\\x:A. B) N the copies' derivations c are collected
in the order of x's occurrences, left to right, as contracting redexes
leftmost-outermost pairs them, and each occurrence becomes x^{rt_type(c)}.
Reading back moves the occurrences of N's free variables, so a lambda of
the normal form may see its binder's occurrences in another order and
conclude its domain in that order: each head takes the types its
arguments now conclude as its label's domains.  Both ways the changes are
polarized isomorphisms, negative at a context variable and positive at the
result, so reading back is a bijection between the derivations of the
normal form and those of the term that keeps every point up to symmetry,
the witnesses' classes and their degrees: Taylor expansion commutes with
normalization.  So every count a query checks is taken on the normal
form's derivations.

Contexts are linear: each element is consumed by exactly one occurrence,
and the occurrences of a variable consume its sequence in order, left to
right.  So the witness enumerator never guesses how a context splits among
subterms: it threads the context through the term, and each subterm
returns, with each of its derivations, what it left of every entry for the
subterms to its right.  A call sees the entries of its own term's free
variables alone, as a tuple in the order of free_vars, and gives back
what is left of them as a tuple alike, so it copies no entry it does not
change: a spine maps its entries to each argument's through the
argument's positions among them, found once per spine, and an argument
free in the same variables takes them as they are.  A subproblem solved
once is kept in the run's table and given back as it was found to every
call that meets it again.  At a binder of a rigid type every entry is a
sequence and what is left of it a suffix.  Each context variable's entry
is a bag: an occurrence takes any one of its values, labelled by any
negative target of that value, so one enumeration finds the derivations
at every rigid context a negative morphism reaches from the start, and
each derivation's context is read off its labels.  A bag is canonical, so
equal values sit together and an occurrence tries each distinct value
once.  The run lists a value's targets, read off the value alone, once.
The result is read alike (_Pos, by polar_class), and each derivation's
result is its rt_type.
enumerate_witnesses, at one rigid point, keeps those of the read-back
derivations that conclude it exactly.

A symmetry class's degree, the number of endomorphisms of one of its
derivations, is counted without listing them: under a variable head the
argument multis fix the head's label morphism on every domain, so a spine
counts the morphisms between the head's codomains times a permanent per
multi, a block product over the copies' isomorphism classes.  The
morphisms themselves, of derivations and of their labels, and their
listing are test oracles in tests/reference.py, beside groupoid's listing
of type hom-sets and the contraction of a derivation's redexes; listing
takes factorial time, so no query calls it.  Two derivations of a normal
term are symmetric (some morphism joins them) iff they have the same
multiset collapse, the paper's quotient to multiset resource terms, so
that collapse keys the classes:
  - a label hom-set is non-empty iff both labels have one canonical form;
  - a permanent of counts is non-zero iff the copies match in some order.

Inputs are checked where they arrive: enumerate_witnesses checks the term
against the point, and collapse.prepare a query's subject, once.
normal_witnesses, the enumeration itself, checks nothing.  Each of its
calls is one run (_Run), which keeps the labels it lists and the
subproblems it solves in tables that die with the call; the trace it
returns lives as long as its caller keeps it.
"""

from __future__ import annotations

from typing import NamedTuple

from .interning import Node, Record, fact
from .syntax import (
    App, Lam, SimpleType, Term, TypingContext, Var,
    annotate, binder_names, free_vars, fresh_name, is_beta_normal, type_to_text,
)
from .rigidtypes import (
    IArrow, IType, ResourceContext, SeqType,
    canonicalize_it, ctx_refines, ctx_to_text, it_to_text, key_it, refines,
)
from .symmetry import count_homs_it, neg_targets_it, permanent, polar_class


class DerivationError(Exception):
    """Raised when a resource term does not fit a rule."""


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
# the normal form, with its trace, and reading its derivations back
#
# A run of the machine records what it meets as a list of steps, in order:
# ("push", app) where an application pushes its argument; ("take", binder,
# annot, app) where a lambda takes the application on top; ("copy", name,
# app) where an occurrence of a binder that took an argument receives a
# copy of it, and the machine goes on with the copy; and last either
# ("head", name, apps), a variable that took no argument, bound by the
# context or by a lambda of the normal form, applied to the applications
# pending, each normalized by a run of its own, or ("lam", binder, annot,
# body), a lambda of the normal form with nothing pending, whose body is a
# run of its own.  Those lists are the trace.  It makes no reference cycle:
# an application points at applications met before it, through its
# environment, and at its own run when it is a normal-form argument, which
# no lambda took, so no step of that run names it.

class _App:
    # arg and env: the argument and the environment it was met in; normal:
    # its run, as a normal-form argument; copies: what a read-back gives
    # its multi, each copy with the uses it holds, until the multi is built
    __slots__ = ("arg", "env", "normal", "copies")

    def __init__(self, arg: Term, env: dict):
        self.arg, self.env, self.normal, self.copies = arg, env, None, None


def _normalized(term: Term, reserved: set[str]) -> tuple[Term, list]:
    """term's beta-normal form, its binders distinct and apart from
    reserved, which the enumerator needs, and its trace."""
    return _normal(term, {}, [], set(reserved))


def _normal(t: Term, env: dict, stack: list[_App], taken: set[str]) -> tuple[Term, list]:
    """The normal form of t applied to the arguments pending on stack, the
    first on top, and the run that reaches it.  env maps a binder that took
    an argument to its application, and one of the normal form to its name
    there, which fresh_name gives apart from taken in the order of the
    text, as ensure_distinct_binders does."""
    run = []
    while True:
        if type(t) is App:
            stack.append(app := _App(t.arg, env))
            run.append(("push", app))
            t = t.fn
        elif type(t) is Lam and stack:
            run.append(("take", t.binder, t.annot, app := stack.pop()))
            env, t = {**env, t.binder: app}, t.body
        elif type(t) is Lam:
            name = fresh_name(t.binder, taken)
            taken.add(name)
            body, inner = _normal(t.body, {**env, t.binder: name}, [], taken)
            run.append(("lam", t.binder, t.annot, inner))
            return Lam(name, body, t.annot), run
        elif type(bound := env.get(t.name, t.name)) is _App:
            run.append(("copy", t.name, bound))
            t, env = bound.arg, bound.env
        else:
            run.append(("head", t.name, apps := stack[::-1]))
            out = Var(bound)
            for app in apps:
                arg, app.normal = _normal(app.arg, app.env, [], taken)
                out = App(out, arg)
            return out, run


def _read_back(trace: list, r: ResourceTerm) -> ResourceTerm:
    """The derivation of the subject that r, a derivation of its normal
    form, reads back to, along the trace."""
    return _back(trace, r)[0]


def _back(run: list, r: ResourceTerm) -> tuple[ResourceTerm, list]:
    """The derivation a run gives at r, a derivation of the normal form it
    reaches, and its uses of the arguments pending outside it: (the
    application, the copy an occurrence received, the uses the copy
    holds), in the order of the occurrences, which is the order of the
    copies in the application's multi.  The run's last step is undone
    first; only a normal-form argument or body is a call deeper."""
    last = run[-1]
    if last[0] == "lam":
        body, uses = _back(last[3], r.body)
        d = RLam(last[1], body, last[2])
    else:
        doms = []
        for app in reversed(last[2]):
            # the last argument first; a loop, not a comprehension, which
            # would be one more frame deep in the recursion
            app.copies = []
            for c in r.args:
                app.copies.append(_back(app.normal, c))
            doms.append(tuple(rt_type(c) for c, _ in app.copies))
            r = r.fn
        # the head's label takes the types its arguments now conclude
        d, uses = RVar(last[1], _with_domains(r.label, doms[::-1])), []
    for i in range(len(run) - 2, -1, -1):
        step = run[i]
        if step[0] == "push":
            app = step[1]
            d = RApp(d, tuple(c for c, _ in app.copies))
            for _, held in app.copies:
                uses.extend(held)
            app.copies = None
        elif step[0] == "take":
            app = step[3]
            app.copies = [(c, held) for a, c, held in uses if a is app]
            uses = [use for use in uses if use[0] is not app]
            d = RLam(step[1], d, step[2])
        else:
            d, uses = RVar(step[1], rt_type(d)), [(step[2], d, uses)]
    return d, uses


def _with_domains(a: IType, doms: list[SeqType]) -> IType:
    """a with doms for its first domains, counting along the codomains."""
    if not doms:
        return a
    rest = _with_domains(a.codomain, doms[1:])
    return a if doms[0] == a.domain and rest is a.codomain else IArrow(doms[0], rest)


####################################################################
# witness enumeration

class WitnessSet(Record):
    # the derivations sorted by their text
    __slots__ = ("derivations",)

    def __init__(self, derivations: tuple[ResourceTerm, ...]):
        object.__setattr__(self, "derivations", derivations)

    def __len__(self) -> int:
        return len(self.derivations)


def enumerate_witnesses(ctx: TypingContext, term: Term, theta: ResourceContext,
                        alpha: IType) -> WitnessSet:
    """All derivations of term at the rigid point (theta, alpha), each once,
    sorted by their text: those read back from the normal form that
    conclude the point exactly."""
    term = _checked_term(ctx, term, theta, alpha)
    shape = theta.shape()
    # two labels of theta may lie in one negative class, and a derivation
    # that takes either is found once from each
    found = dict.fromkeys(d for d in read_back(*normal_witnesses(term, theta, alpha))
                          if rt_type(d) == alpha and rt_context(shape, d) == theta)
    return WitnessSet(tuple(sorted(found, key=resource_to_text)))


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


def normal_witnesses(term: Term, theta: ResourceContext,
                     alpha: IType) -> tuple[list[ResourceTerm], list | None]:
    """Every derivation of term's beta-normal form at a rigid point that a
    negative context morphism reaches from theta and that a positive
    morphism takes to alpha, in the enumerator's order, and the trace that
    reads them back (None where term is normal).  The subject is checked
    already: the term annotated, its binders distinct and apart from the
    context's names, theta over the context's variables and refining them,
    and alpha refining the term's type."""
    term, trace = ((term, None) if is_beta_normal(term)
                   else _normalized(term, {x for x, _, _ in theta.entries}))
    fvs = free_vars(term)
    bags = {x: seq for x, seq, _ in theta.entries}
    # a start context fixes the variables that are not free in the term
    # too, which must be used up
    if len(bags) > len(fvs) and any(seq for x, seq in bags.items() if x not in fvs):
        return [], trace
    start = tuple([(bags[x], True) for x in fvs])
    target = _Pos(alpha) if isinstance(alpha, IArrow) else alpha
    return [r for r, _ in _enum(term, start, target, _Run(), (True,) * len(fvs))], trace


def read_back(normals: list[ResourceTerm], trace: list | None) -> list[ResourceTerm]:
    """normal_witnesses' derivations read back along its trace, in order."""
    return list(normals) if trace is None else [_read_back(trace, r) for r in normals]


# The enumerator threads the context through a normal term, left to right,
# as the occurrences consume it: each call takes what the subterms to its
# left did not consume, and returns every derivation paired with what it
# leaves in turn.  A call sees only the entries of its term's free
# variables, a tuple in the order of free_vars, and `must`, a tuple of
# flags in that order, names those it must use up; the others it may leave
# to the subterms to its right.  An entry is what is left of a variable
# and its kind: a bag (True), whose values the occurrences take in any
# order, or a sequence (False), which they consume in order.  Binders are
# sequences, but a lambda at _Pos makes its binder a bag.  Every bag is
# canonical, an entry of the point or a domain of its result, and taking a
# value keeps it so.  A target is a rigid type or _Pos.  A spine maps its
# state, the entries of its own free variables, to each argument's and
# back through the argument's positions in it, found once per spine; an
# argument whose free variables are the spine's, the same tuple, takes
# the state as it is.
Entry = tuple[SeqType, bool]
Entries = tuple[Entry, ...]
Found = list[tuple[ResourceTerm, Entries]]


class _Pos(NamedTuple):
    """Any type a positive morphism takes to a, an arrow; at * the target is *."""
    a: IArrow


Target = IType | _Pos


class _Run:
    """One enumeration: the subproblems it solves, each kept under (its
    term, entries, target, must) as the list of what it found, and the
    labels of each bag value (_takes).  All of it dies with the run."""

    __slots__ = ("labels", "solved")

    def __init__(self):
        self.labels: dict[IType, tuple[IType, ...]] = {}
        self.solved: dict[tuple, Found] = {}


def _enum(term: Term, entries: Entries, alpha: Target, run: _Run,
          must: tuple[bool, ...]) -> Found:
    key = (term, entries, alpha, must)
    found = run.solved.get(key)
    if found is None:
        found = run.solved[key] = _enum_raw(term, entries, alpha, run, must)
    return found


def _enum_raw(term: Term, entries: Entries, alpha: Target, run: _Run,
              must: tuple[bool, ...]) -> Found:
    if type(term) is Lam:
        if isinstance(alpha, IArrow):
            entry, body_alpha = (alpha.domain, False), alpha.codomain
        elif isinstance(alpha, _Pos):
            entry, c = (alpha.a.domain, True), alpha.a.codomain
            body_alpha = _Pos(c) if isinstance(c, IArrow) else c
        else:
            return []
        x, annot, inner = term.binder, term.annot, free_vars(term.body)
        out: Found = []
        if x not in inner:
            # the body's free variables are the lambda's, and the binder's
            # entry must be empty already
            if not entry[0]:
                for r, left in _enum(term.body, entries, body_alpha, run, must):
                    out.append((RLam(x, r, annot), left))
            return out
        i = inner.index(x)
        for r, left in _enum(term.body, entries[:i] + (entry,) + entries[i:], body_alpha, run,
                             must[:i] + (True,) + must[i:]):
            out.append((RLam(x, r, annot), left[:i] + left[i + 1:]))
        return out
    return _enum_spine(term, entries, alpha, run, must)


def _takes(seq: SeqType, bag: bool, run: _Run) -> list[tuple[IType, SeqType]]:
    """The labels one occurrence may take from an entry, each with what it
    leaves: a sequence's first element, or any distinct value of a bag,
    labelled by any of its negative targets, which the run lists once.  A
    bag is canonical, so a value equal to the one before it is skipped."""
    if not bag:
        return [(seq[0], seq[1:])] if seq else []
    labels, out, last = run.labels, [], None
    for i, v in enumerate(seq):
        if v is last:
            continue
        last = v
        listed = labels.get(v)
        if listed is None:
            listed = labels[v] = neg_targets_it(v)
        rest = seq[:i] + seq[i + 1:]
        for label in listed:
            out.append((label, rest))
    return out


def _fits(beta: IType, alpha: Target) -> bool:
    """Whether a spine concluding beta meets its target: _Pos(a) a type of
    a's positive class, and a rigid type itself."""
    if isinstance(alpha, _Pos):
        return polar_class(beta, True) == polar_class(alpha.a, True)
    return beta == alpha


def _enum_spine(term: Term, entries: Entries, alpha: Target, run: _Run,
                must: tuple[bool, ...]) -> Found:
    fvs, args = free_vars(term), []
    while type(term) is App:
        args.append(term.arg)
        term = term.fn
    name = term.name
    h = fvs.index(name)
    seq, bag = entries[h]
    takes = _takes(seq, bag, run)
    if not takes:
        return []
    # per argument, right to left: where its free variables sit in the
    # spine's, or None where they are the spine's, and which of them it
    # must use up: those that must be, and that no argument after it uses
    plans, later = [], set()
    for arg in args:
        arg_fvs = free_vars(arg)
        where, arg_must = tuple(map(fvs.index, arg_fvs)), []
        for x, j in zip(arg_fvs, where):
            arg_must.append(must[j] and x not in later)
        plans.append((arg, None if arg_fvs is fvs else where, tuple(arg_must)))
        later.update(arg_fvs)
    plans.reverse()
    if must[h] and name not in later and len(seq) > 1:
        return []
    out: Found = []
    for label, rest in takes:
        doms: list[SeqType] = []
        cur: IType = label
        for _ in plans:
            if not isinstance(cur, IArrow):
                break
            doms.append(cur.domain)
            cur = cur.codomain
        if len(doms) < len(plans) or not _fits(cur, alpha):
            continue
        found: Found = [(RVar(name, label), entries[:h] + ((rest, bag),) + entries[h + 1:])]
        for (arg, where, arg_must), dom in zip(plans, doms):
            step: Found = []
            for r, state in found:
                if where is None:
                    for m, left in _enum_multi(arg, state, dom, run, arg_must):
                        step.append((RApp(r, m), left))
                    continue
                for m, left in _enum_multi(arg, tuple(map(state.__getitem__, where)), dom, run,
                                           arg_must):
                    after = list(state)
                    for j, e in zip(where, left):
                        after[j] = e
                    step.append((RApp(r, m), tuple(after)))
            found = step
            if not found:
                break
        out.extend(found)
    return out


def _enum_multi(term: Term, entries: Entries, targets: SeqType, run: _Run,
                must: tuple[bool, ...]) -> list[tuple[tuple[ResourceTerm, ...], Entries]]:
    """One copy of term per target, each enumerated at its target, threaded
    left to right; every copy but the last may leave term's free variables
    to the copies after it."""
    out: list[tuple[tuple[ResourceTerm, ...], Entries]] = [((), entries)]
    if not targets:
        for (seq, _), used_up in zip(entries, must):
            if used_up and seq:
                return []
        return out
    lax, last = (False,) * len(must), len(targets) - 1
    for i, target in enumerate(targets):
        m = must if i == last else lax
        # loops, not a comprehension, which would be one more frame deep
        # in the recursion
        step = []
        for done, left in out:
            for r, rest in _enum(term, left, target, run, m):
                step.append((done + (r,), rest))
        out = step
        if not out:
            break
    return out


####################################################################
# counting derivation morphisms

def _count_morphisms(a: ResourceTerm, b: ResourceTerm, memo: dict | None = None) -> int:
    """The number of morphisms a -> b between derivations of one normal
    term, whose spines all have a variable head.

    A var node counts the morphisms between its labels, and a lam node its
    body's.  In a spine x <M1> ... <Mk>, each argument multi morphism fixes
    the matching domain of the head's label morphism, so only the head's
    codomain is free: the spine counts the morphisms between the codomains
    times, per multi, the permanent of the counts between its copies.  The
    memo keeps the counts between pairs of subterms and, as count_homs_it
    keeps them, between pairs of labels."""
    memo = {} if memo is None else memo
    key = (a, b)
    if key in memo:
        return memo[key]
    n = 0
    match a, b:
        case RVar(x, la), RVar(y, lb):
            n = count_homs_it(la, lb, memo) if x == y else 0
        case RLam(x, ba, ta), RLam(y, bb, tb):
            n = _count_morphisms(ba, bb, memo) if x == y and ta == tb else 0
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
                    n *= permanent([[_count_morphisms(x, y, memo) for y in bb] for x in aa])
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
    """deg(r): the number of endomorphisms of r, a derivation of a normal
    term, counted, not listed."""
    return _count_morphisms(r, r)


def partition_by_symmetry(derivations) -> tuple[tuple[ResourceTerm, ...], ...]:
    """Group derivations of a common normal term into symmetry classes, in
    the order of their first members, keyed by their multiset collapse,
    counting no morphism; a lone derivation is not keyed.  The collapses of
    the subterms the derivations share are taken once."""
    derivations = tuple(derivations)
    if len(derivations) == 1:
        return (derivations,)
    classes: dict[ResourceTerm, list[ResourceTerm]] = {}
    memo: dict = {}
    for r in derivations:
        classes.setdefault(multiset_collapse_term(r, memo), []).append(r)
    return tuple(map(tuple, classes.values()))
