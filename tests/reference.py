"""The listed groupoids of type morphisms and of derivations, and the other
reference code the tests compare the package with.

The package counts both groupoids without building a morphism: symmetry
counts hom-sets, polarized or not, and the symmetry degrees in closed
form, and derivation counts the morphisms between derivations.  Here the
morphisms are built: their endpoints, composition, identities and
inverses, their polarity and polar factorization, and the morphisms
between derivations with their listing.  Listing a hom-set takes
factorial time, so no query reaches this module; the tests compare each
count with the listing and check the groupoid laws on it.  The morphism
classes and the listing of type hom-sets stay in thinspan.groupoid, where
the benchmark's tracer wraps the listing.

A type morphism witnesses that two rigid types collapse to the same
multiset type, that is, have the same canonical representative.  The
grammar mirrors the types: the base type has only the identity, and an
arrow morphism pairs a sequence morphism with a codomain morphism.  A
sequence morphism is a permutation together with componentwise morphisms;
component i runs from source slot i to target slot sigma(i), so the target
sequence reads tgt[sigma(i)] = tgt(component_i).  Endpoints are not
stored: src/tgt are computed structurally, which is well-defined because a
morphism determines both of its endpoints.  Composition is written
compose(g, f) = g after f.  Permutations compose the same way:
(s2 . s1)(i) = s2(s1(i)).

Polarity is defined against the simple type being refined.  At the base
type the identity is both positive and negative.  At an arrow type a
morphism is positive when its domain permutation is unconstrained but the
domain components are negative and the codomain is positive; it is negative
when the domain permutation is the identity, the domain components are
positive and the codomain is negative.  For sequence morphisms used as
context entries the variance flips: positive means identity permutation
with positive components, negative means any permutation with negative
components.  Every morphism factors uniquely as a negative morphism after
a positive one (polar_factorize_it).

Morphisms between derivations rebase every node: var nodes carry a label
morphism, multi nodes a permutation acting on children, app nodes share
the argument sequence morphism with the function side's domain.  This last
constraint is what distinguishes rigid terms from plain multiset resource
terms: in a redex, the argument sequence can only be permuted together
with the matching occurrences of the bound variable.

Beside the groupoids: check_derivation, which validates a resource term
against the term it derives; enumerate_bag_witnesses, the enumeration
positive_witnesses runs, with its inputs checked; count_negative_it, the
negative hom-set count of a type; and alpha_eq on terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from thinspan.syntax import (
    App, Arrow, Base, Lam, SimpleType, Term, TypingContext, Var,
    annotate, term_to_text, type_to_text,
)
from thinspan.rigidtypes import (
    IArrow, IType, ResourceContext, SeqType, Star, STAR,
    ctx_to_text, is_canonical_seq, it_to_text, refines,
)
from thinspan.symmetry import MorphismError, _count_it
from thinspan.derivation import (
    DerivationError, RApp, RLam, RVar, ResourceTerm, Shape, WitnessSet,
    _checked_term, resource_to_text, rt_type, witness_set,
)
from thinspan.groupoid import (
    STAR_ID, ArrowMorphism, CtxMorphism, ITMorphism, SeqMorphism, StarId,
    _matchings, enumerate_homs_it,
)


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


def count_negative_it(a: IType, b: IType, memo: dict | None = None) -> int:
    """The number of negative morphisms a -> b, counted by symmetry's rules."""
    return _count_it(False, a, b, {} if memo is None else memo)


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
# morphisms between derivations

@dataclass(frozen=True)
class VarMorphism:
    name: str
    phi: ITMorphism


@dataclass(frozen=True)
class MultiMorphism:
    sigma: tuple[int, ...]
    children: tuple["DerivationMorphism", ...]
    phi: SeqMorphism


@dataclass(frozen=True)
class AppMorphism:
    fn: "DerivationMorphism"
    arg: MultiMorphism
    phi: ITMorphism


@dataclass(frozen=True)
class LamMorphism:
    binder: str
    binder_type: SimpleType
    body: "DerivationMorphism"
    phi: ITMorphism


DerivationMorphism = VarMorphism | AppMorphism | LamMorphism


def dm_multi(sigma: tuple[int, ...], children: tuple[DerivationMorphism, ...]) -> MultiMorphism:
    return MultiMorphism(sigma, tuple(children), SeqMorphism(sigma, tuple(c.phi for c in children)))


def dm_app(fn: DerivationMorphism, arg: MultiMorphism) -> AppMorphism:
    if not isinstance(fn.phi, ArrowMorphism):
        raise MorphismError("function side of an app morphism must be an arrow morphism")
    if fn.phi.domain != arg.phi:
        raise MorphismError("app morphism must share its sequence morphism on both sides")
    return AppMorphism(fn, arg, fn.phi.codomain)


def dm_lam(binder: str, binder_type: SimpleType, body: DerivationMorphism) -> LamMorphism:
    return LamMorphism(binder, binder_type, body,
                       ArrowMorphism(dm_occurrences(body, binder), body.phi))


def dm_occurrences(m: DerivationMorphism | MultiMorphism, x: str) -> SeqMorphism:
    """The sequence morphism m induces on the free occurrences of x, whose
    source and target are the labels of those occurrences, left to right."""
    match m:
        case VarMorphism(y, phi):
            return SeqMorphism((0,), (phi,)) if y == x else SeqMorphism((), ())
        case MultiMorphism(sigma, children, _):
            return sigma_action(sigma, [dm_occurrences(c, x) for c in children])
        case AppMorphism(fn, arg, _):
            return concat_seqm(dm_occurrences(fn, x), dm_occurrences(arg, x))
        case LamMorphism(y, _, body, _):
            return SeqMorphism((), ()) if y == x else dm_occurrences(body, x)
    raise TypeError(f"not a derivation morphism: {m!r}")


def src_dm(m: DerivationMorphism | MultiMorphism):
    match m:
        case VarMorphism(name, phi):
            return RVar(name, src_it(phi))
        case MultiMorphism(_, children, _):
            return tuple(src_dm(c) for c in children)
        case AppMorphism(fn, arg, _):
            return RApp(src_dm(fn), src_dm(arg))
        case LamMorphism(binder, btype, body, _):
            return RLam(binder, src_dm(body), btype)
    raise TypeError(f"not a derivation morphism: {m!r}")


def tgt_dm(m: DerivationMorphism | MultiMorphism):
    match m:
        case VarMorphism(name, phi):
            return RVar(name, tgt_it(phi))
        case MultiMorphism(sigma, children, _):
            inv = inverse_perm(sigma)
            return tuple(tgt_dm(children[inv[j]]) for j in range(len(children)))
        case AppMorphism(fn, arg, _):
            return RApp(tgt_dm(fn), tgt_dm(arg))
        case LamMorphism(binder, btype, body, _):
            return RLam(binder, tgt_dm(body), btype)
    raise TypeError(f"not a derivation morphism: {m!r}")


def identity_dm(r: ResourceTerm) -> DerivationMorphism:
    match r:
        case RVar(name, label):
            return VarMorphism(name, identity_it(label))
        case RApp(f, args):
            return dm_app(identity_dm(f), dm_multi(identity_perm(len(args)),
                                                   tuple(identity_dm(a) for a in args)))
        case RLam(binder, body, btype):
            return dm_lam(binder, btype, identity_dm(body))
    raise TypeError(f"not a resource term: {r!r}")


def compose_dm(g, f):
    """g after f, defined when tgt(f) = src(g); both must rebase the same term."""
    match g, f:
        case VarMorphism(gn, gphi), VarMorphism(fn_, fphi):
            if gn != fn_:
                raise MorphismError(f"cannot compose morphisms at {fn_!r} and {gn!r}")
            return VarMorphism(gn, compose_it(gphi, fphi))
        case MultiMorphism(gs, gc, _), MultiMorphism(fs, fc, _):
            if len(gc) != len(fc):
                raise MorphismError("cannot compose multi morphisms of different widths")
            sigma = compose_perm(gs, fs)
            kids = tuple(compose_dm(gc[fs[i]], fc[i]) for i in range(len(fc)))
            return dm_multi(sigma, kids)
        case AppMorphism(gfn, garg, _), AppMorphism(ffn, farg, _):
            return dm_app(compose_dm(gfn, ffn), compose_dm(garg, farg))
        case LamMorphism(gx, gt, gb, _), LamMorphism(fx, _, fb, _):
            if gx != fx:
                raise MorphismError(f"cannot compose morphisms under {fx!r} and {gx!r}")
            return dm_lam(gx, gt, compose_dm(gb, fb))
    raise MorphismError(f"cannot compose {f!r} then {g!r}")


def invert_dm(m):
    match m:
        case VarMorphism(name, phi):
            return VarMorphism(name, invert_it(phi))
        case MultiMorphism(sigma, children, _):
            inv = inverse_perm(sigma)
            kids = tuple(invert_dm(children[inv[j]]) for j in range(len(children)))
            return dm_multi(inv, kids)
        case AppMorphism(fn, arg, _):
            return dm_app(invert_dm(fn), invert_dm(arg))
        case LamMorphism(binder, btype, body, _):
            return dm_lam(binder, btype, invert_dm(body))
    raise TypeError(f"not a derivation morphism: {m!r}")


####################################################################
# listing derivation morphisms
#
# A derivation is its resource term, and every rule constraint is local,
# so morphisms are listed structurally on the two resource terms.

def enumerate_derivation_morphisms(r1: ResourceTerm,
                                   r2: ResourceTerm) -> tuple[DerivationMorphism, ...]:
    """All morphisms r1 -> r2; both must derive the same term."""
    cache: dict = {}

    def go(a: ResourceTerm, b: ResourceTerm) -> tuple[DerivationMorphism, ...]:
        key = (a, b)
        hit = cache.get(key)
        if hit is not None:
            return hit
        out: list[DerivationMorphism] = []
        match a, b:
            case RVar(x, la), RVar(y, lb):
                if x == y:
                    out = [VarMorphism(x, phi) for phi in enumerate_homs_it(la, lb)]
            case RLam(x, ba, ta), RLam(y, bb, tb):
                if x == y and ta == tb:
                    out = [dm_lam(x, ta, m) for m in go(ba, bb)]
            case RApp(fa, argsa), RApp(fb, argsb):
                fns = go(fa, fb)
                if fns:
                    by_dom: dict[SeqMorphism, list[MultiMorphism]] = {}
                    for m in multi_go(argsa, argsb):
                        by_dom.setdefault(m.phi, []).append(m)
                    for fm in fns:
                        if isinstance(fm.phi, ArrowMorphism):
                            for m in by_dom.get(fm.phi.domain, []):
                                out.append(dm_app(fm, m))
        cache[key] = tuple(out)
        return cache[key]

    def multi_go(aa: tuple[ResourceTerm, ...],
                 bb: tuple[ResourceTerm, ...]) -> list[MultiMorphism]:
        if len(aa) != len(bb):
            return []
        pools = [[go(a, b) for b in bb] for a in aa]
        return [dm_multi(sigma, kids) for sigma, kids in _matchings(pools)]

    return go(r1, r2)


####################################################################
# checking a derivation against its term

@dataclass(frozen=True)
class CheckResult:
    ok: bool
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def check_derivation(ctx: TypingContext, term: Term, r: ResourceTerm) -> CheckResult:
    """Check that r is a derivation of term: it has the term's shape, every
    label refines its variable's simple type, and every argument sequence
    fits its function's domain."""
    term, _ = annotate(ctx, term)
    try:
        _check(tuple(ctx.bindings), term, r)
        rt_type(r)
    except DerivationError as e:
        return CheckResult(False, str(e))
    return CheckResult(True)


def _check(shape: Shape, term: Term, r: ResourceTerm) -> None:
    match term, r:
        case Var(x), RVar(y, label):
            if x != y:
                raise DerivationError(f"resource term mentions {y!r} where the term has {x!r}")
            ty = dict(shape)[x]
            if not refines(label, ty):
                raise DerivationError(
                    f"label {it_to_text(label)} does not refine {type_to_text(ty)}")
            return
        case App(f, a), RApp(rf, rargs):
            _check(shape, f, rf)
            for ra in rargs:
                _check(shape, a, ra)
            return
        case Lam(x, b, ann), RLam(y, rb, rann):
            if x != y or ann != rann:
                raise DerivationError(
                    f"resource binder {y}:{type_to_text(rann)} differs from term binder "
                    f"{x}:{type_to_text(ann)}")
            _check(shape + ((x, ann),), b, rb)
            return
    raise DerivationError(
        f"resource term {resource_to_text(r)} does not match term {term_to_text(term)}")


####################################################################
# the enumeration over bags, with its inputs checked

def enumerate_bag_witnesses(ctx: TypingContext, term: Term, gamma: ResourceContext,
                            alpha: IType, budget: int | None = None) -> WitnessSet:
    """All derivations of term with result alpha whose context some negative
    context morphism reaches from gamma, each once.

    Every entry of gamma is a bag, a sorted sequence of canonical types.  An
    occurrence of a context variable takes one value of what is left of its
    bag, and its label is any negative target of that value.  Negative
    reachability is an equivalence under which distinct canonical types lie
    apart, so a label fixes the value it took: each derivation arises once,
    and its context is its rt_context.  The cut on a bare-variable argument
    is an ordered pick of the variable's remaining values, of any length.
    Completeness is as for enumerate_witnesses.  The set's point is
    (gamma, alpha), the canonical source point, not the point the
    derivations conclude: each concludes its own rt_context.
    """
    if not all(is_canonical_seq(seq) for _, seq, _ in gamma.entries):
        raise DerivationError(f"context {ctx_to_text(gamma)} is not canonical")
    term = _checked_term(ctx, term, gamma, alpha)
    return witness_set(ctx, term, gamma, alpha, budget, bags=True)


####################################################################
# alpha-equivalence

def _debruijn(t: Term, env: tuple[str, ...]):
    match t:
        case Var(x):
            for i, y in enumerate(reversed(env)):
                if x == y:
                    return ("b", i)
            return ("f", x)
        case App(f, a):
            return ("a", _debruijn(f, env), _debruijn(a, env))
        case Lam(x, b, ann):
            return ("l", ann, _debruijn(b, env + (x,)))
    raise TypeError(f"not a term: {t!r}")


def alpha_eq(s: Term, t: Term) -> bool:
    return _debruijn(s, ()) == _debruijn(t, ())
