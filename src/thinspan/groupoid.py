"""The groupoid of derivations, listed: a reference for the counts.

Morphisms between derivations rebase every node: var nodes carry a label
morphism, multi nodes a permutation acting on children, app nodes share
the argument sequence morphism with the function side's domain.  This last
constraint is what distinguishes rigid terms from plain multiset resource
terms: in a redex, the argument sequence can only be permuted together
with the matching occurrences of the bound variable.

Listing morphisms takes factorial time, so no query uses this module:
derivation.count_derivation_morphisms counts them, and the tests compare
that count with the listing here and check the groupoid laws on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from .syntax import SimpleType
from .derivation import RApp, RLam, RVar, ResourceTerm
from .symmetry import (
    ArrowMorphism, ITMorphism, MorphismError, SeqMorphism,
    compose_it, compose_perm, concat_seqm, enumerate_homs_it, identity_it, identity_perm,
    invert_it, inverse_perm, sigma_action, src_it, tgt_it,
)


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
# enumeration of derivation morphisms
#
# A derivation is its resource term, and every rule constraint is local,
# so morphisms are enumerated structurally on the two resource terms.

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
        n = len(aa)
        if n != len(bb):
            return []
        pair = [[go(aa[i], bb[j]) for j in range(n)] for i in range(n)]
        out = []
        for sigma in permutations(range(n)):
            pools = [pair[i][sigma[i]] for i in range(n)]
            if any(not p for p in pools):
                continue
            for kids in product(*pools):
                out.append(dm_multi(sigma, tuple(kids)))
        return out

    return go(r1, r2)
