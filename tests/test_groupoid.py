"""The listed groupoids, from groupoid's hom-set listing and the test
oracles in reference: permutations, type morphisms and their groupoid
laws, polarity and its factorization, and morphisms between derivations."""

import random

import pytest

from thinspan.syntax import Base, parse_simple_type
from thinspan.rigidtypes import canonicalize_it, parse_itype
from thinspan.symmetry import MorphismError, pos_targets_it
from thinspan.groupoid import ArrowMorphism, SeqMorphism, StarId, enumerate_homs_it

from reference import (
    compose_dm, compose_it, compose_perm, compose_seq, concat_seqm, dm_app,
    enumerate_derivation_morphisms, identity_dm, identity_it, identity_perm, identity_seq,
    inverse_perm, invert_dm, invert_it, is_identity_perm, is_negative_it, is_negative_seq,
    is_positive_it, is_positive_seq, polar_factorize_it, polarity_it, sigma_action, src_dm,
    src_it, src_seq, tgt_dm, tgt_it, tgt_seq,
)
from support import across_points, rand_canonical, rand_reorder, rand_stype

O = Base()
OO = parse_simple_type("o->o")


def brute_polar_factorizations(phi, t):
    """Every (positive, negative) pair composing to phi, by full search."""
    a = src_it(phi)
    out = []
    for mid in pos_targets_it(a, t):
        for p in enumerate_homs_it(a, mid):
            if not is_positive_it(p, t):
                continue
            for n in enumerate_homs_it(mid, tgt_it(phi)):
                if is_negative_it(n, t) and compose_it(n, p) == phi:
                    out.append((p, n))
    return out


def test_perm_helpers():
    assert identity_perm(3) == (0, 1, 2)
    assert is_identity_perm(())
    s = (2, 0, 1)
    assert compose_perm(inverse_perm(s), s) == identity_perm(3)
    assert compose_perm(s, identity_perm(3)) == s
    # composition applies the right-hand permutation first
    t = (1, 0, 2)
    st = compose_perm(s, t)
    assert all(st[i] == s[t[i]] for i in range(3))


def test_seq_morphism_validates():
    with pytest.raises(MorphismError):
        SeqMorphism((0, 0), (StarId(), StarId()))
    with pytest.raises(MorphismError):
        SeqMorphism((0,), (StarId(), StarId()))


def test_src_tgt_with_permutation():
    a = parse_itype("<*>-o*")
    b = parse_itype("<>-o*")
    fa, fb = identity_it(a), identity_it(b)
    sm = SeqMorphism((1, 0), (fa, fb))
    assert src_seq(sm) == (a, b)
    # component i lands in slot sigma(i)
    assert tgt_seq(sm) == (b, a)


def test_compose_seq_tracks_components():
    a = parse_itype("<*>-o*")
    ida = identity_it(a)
    f = SeqMorphism((1, 0), (ida, ida))
    g = SeqMorphism((1, 0), (ida, ida))
    gf = compose_seq(g, f)
    assert gf.sigma == (0, 1)
    h = compose_seq(f, identity_seq((a, a)))
    assert h == f


def test_groupoid_laws_on_enumerated_homs():
    a = canonicalize_it(parse_itype("<<*>-o*,<*>-o*>-o*"))
    endos = enumerate_homs_it(a, a)
    assert len(endos) == 2
    for f in endos:
        assert compose_it(f, invert_it(f)) == identity_it(a)
        assert compose_it(invert_it(f), f) == identity_it(a)
        for g in endos:
            for h in endos:
                assert compose_it(h, compose_it(g, f)) == compose_it(compose_it(h, g), f)


def test_sigma_action_places_blocks():
    a = parse_itype("<*>-o*")
    b = parse_itype("<>-o*")
    pa = identity_seq((a,))
    pb = identity_seq((b, b))
    rho = (1, 0)
    sm = sigma_action(rho, [pa, pb])
    # sources concatenate in order; targets land in rho-permuted blocks
    assert src_seq(sm) == (a, b, b)
    assert tgt_seq(sm) == (b, b, a)
    assert sm.sigma == (2, 0, 1)
    plain = concat_seqm(pa, pb)
    assert plain.sigma == (0, 1, 2)


def test_identities_are_both_polarities():
    a = canonicalize_it(parse_itype("<<*,*>-o*,<*>-o*>-o*"))
    t = parse_simple_type("(o->o)->o")
    ida = identity_it(a)
    assert is_positive_it(ida, t) and is_negative_it(ida, t)
    assert polarity_it(ida, t).name == "BOTH"


def test_swap_polarity_as_context_entry():
    ids = (StarId(), StarId())
    swap = SeqMorphism((1, 0), ids)
    # context entries: permutations are negative, not positive
    assert is_negative_seq(swap, O)
    assert not is_positive_seq(swap, O)
    assert is_positive_seq(SeqMorphism((0, 1), ids), O)


def test_swap_inside_arrow_domain_is_positive():
    ids = (StarId(), StarId())
    phi = ArrowMorphism(SeqMorphism((1, 0), ids), StarId())
    assert is_positive_it(phi, OO)
    assert not is_negative_it(phi, OO)
    assert polarity_it(phi, OO).name == "POSITIVE"


def test_polarity_requires_matching_refinement():
    with pytest.raises(MorphismError):
        is_positive_it(StarId(), OO)


def test_polar_factorization_structural_matches_brute_force():
    rng = random.Random(5)
    checked = 0
    for _ in range(150):
        t = rand_stype(rng, 2)
        a = rand_canonical(rng, t, 2)
        b = rand_reorder(rng, a)
        homs = enumerate_homs_it(a, b)
        if not homs:
            continue
        phi = rng.choice(homs)
        pos, neg = polar_factorize_it(phi, t)
        assert compose_it(neg, pos) == phi
        assert is_positive_it(pos, t) and is_negative_it(neg, t)
        alts = brute_polar_factorizations(phi, t)
        assert alts == [(pos, neg)] or (len(alts) == 1 and alts[0] == (pos, neg))
        checked += 1
    assert checked >= 100


def test_derivation_morphism_groupoid():
    _, _, ds = across_points("one-term-two-witnesses")
    d1, d2 = ds
    (m,) = enumerate_derivation_morphisms(d1, d2)
    assert src_dm(m) == d1 and tgt_dm(m) == d2
    assert compose_dm(invert_dm(m), m) == identity_dm(d1)
    assert compose_dm(m, invert_dm(m)) == identity_dm(d2)
    assert compose_dm(m, identity_dm(d1)) == m
    assert compose_dm(identity_dm(d2), m) == m


def test_multi_morphism_swap_endo():
    _, _, ds = across_points("fan-out")
    [w] = ds
    endos = enumerate_derivation_morphisms(w, w)
    assert len(endos) == 2
    ident = identity_dm(w)
    assert ident in endos
    (swap,) = [e for e in endos if e != ident]
    assert swap.arg.sigma == (1, 0)
    assert compose_dm(swap, swap) == ident
    for a in endos:
        assert invert_dm(a) in endos
        for b in endos:
            assert compose_dm(a, b) in endos


def test_app_morphism_shares_sequence_morphism():
    _, _, ds = across_points("fan-out")
    [w] = ds
    ident = identity_dm(w)
    endos = enumerate_derivation_morphisms(w, w)
    (swap,) = [e for e in endos if e != ident]
    with pytest.raises(MorphismError):
        dm_app(ident.fn, swap.arg)
