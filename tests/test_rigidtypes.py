import copy
import dataclasses
import gc
import pickle
import random
import weakref

import pytest
from hypothesis import given, strategies as st

from thinspan import derivation, rigidtypes, symmetry, syntax
from thinspan.syntax import Base, parse_context, parse_simple_type
from thinspan.rigidtypes import (
    IArrow, PointSpec, RefinementError, ResourceContext, Star,
    canonicalize_it, canonicalize_point, canonicalize_seq,
    ctx_refines, ctx_to_text, is_canonical, is_canonical_seq, it_to_text, key_it,
    mit_to_text, parse_itype, parse_mit, parse_mset,
    point_from_json, point_to_json, refines,
)
from thinspan.symmetry import enumerate_homs_it

from support import canonicalize_ctx, rand_itype, rand_reorder, rand_stype

S = Star()
O = Base()


def test_equal_rigid_types_are_one_object():
    assert S is rigidtypes.STAR
    assert parse_itype("<*,*>-o*") is IArrow((Star(), Star()), Star())
    assert parse_mit("[[*]-o*,*]-o*") is IArrow((S, IArrow((S,), S)), S)
    assert IArrow(codomain=S, domain=()) is IArrow((), S)
    a = parse_itype("<<*>-o*>-o*")
    assert dataclasses.replace(a, domain=()) is IArrow((), S)
    assert copy.deepcopy(a) is a and pickle.loads(pickle.dumps(a)) is a
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.codomain = a


def test_tree_nodes_compare_and_hash_by_identity():
    classes = [syntax.Base, syntax.Arrow, syntax.Var, syntax.App, syntax.Lam,
               rigidtypes.Star, rigidtypes.IArrow,
               derivation.RVar, derivation.RLam, derivation.RApp]
    for cls in classes:
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls
    # the intern table holds its nodes weakly
    ref = weakref.ref(derivation.RVar("only_here_in_this_test", S))
    gc.collect()
    assert ref() is None


def test_facts_are_kept_and_make_no_cycles():
    # a fact is computed once and kept on its node; a canonical type is its
    # own canonical form, yet keeping that makes no reference cycle, so
    # with the cyclic collector off the nodes die as soon as they are dropped
    gc.disable()
    try:
        a = IArrow((S,) * 6, IArrow((S,) * 5, S))
        r = derivation.RVar("only_in_the_fact_test", a)
        t = syntax.Lam("only_in_the_fact_test", syntax.Var("only_in_the_fact_test"), O)
        assert canonicalize_it(a) is a and is_canonical(a)
        assert key_it(a) is key_it(a)
        assert symmetry._degrees_it(a) is symmetry._degrees_it(a)
        assert derivation.rt_type(r) is a
        assert derivation.endo_count(r) == 720 * 120
        assert derivation.endo_count(r) is derivation.endo_count(r)
        assert syntax.is_beta_normal(t)
        refs = [weakref.ref(node) for node in (a, r, t)]
        del a, r, t
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def itypes(depth=3):
    return st.recursive(
        st.just(S),
        lambda sub: st.tuples(st.lists(sub, max_size=3), sub).map(
            lambda p: IArrow(tuple(p[0]), p[1])),
        max_leaves=8)


def test_parse_and_print_round_trip():
    for text in ["*", "<>-o*", "<*>-o*", "<*,*>-o*", "<<*>-o*>-o*",
                 "<*>-o<>-o*", "<<>-o*,<*>-o*>-o*"]:
        a = parse_itype(text)
        assert parse_itype(it_to_text(a)) == a


def test_arrow_is_right_associative():
    a = parse_itype("<*>-o<>-o*")
    assert a == IArrow((S,), IArrow((), S))


def test_multiset_types_sort_their_elements():
    m1 = parse_mit("[[*]-o*, []-o*]-o*")
    m2 = parse_mit("[[]-o*, [*]-o*]-o*")
    assert m1 == m2
    assert mit_to_text(m1) == "[[]-o*,[*]-o*]-o*"
    assert parse_mset("[[*]-o*, []-o*]") == parse_mset("[[]-o*, [*]-o*]")
    # a multiset type is its canonical rigid type; rigid brackets are
    # accepted and collapsed
    assert is_canonical(m1)
    assert m1 == canonicalize_it(parse_itype("<<*>-o*, <>-o*>-o*"))
    assert parse_mit("<*>-o*") == IArrow((S,), S)


def test_refinement():
    oo = parse_simple_type("o->o")
    assert refines(parse_itype("<*,*>-o*"), oo)
    assert not refines(S, oo)
    assert not refines(parse_itype("<*>-o*"), O)
    assert refines(parse_mit("[[*]-o*]-o*"), parse_simple_type("(o->o)->o"))


@given(itypes())
def test_canonicalize_idempotent_and_collapse_invariant(a):
    c = canonicalize_it(a)
    assert canonicalize_it(c) == c
    assert is_canonical(c)
    # collapsing the rigid notation lands on the same canonical type
    assert parse_mit(it_to_text(a)) == c
    assert parse_mit(mit_to_text(c)) == c


@given(itypes(), itypes(), st.randoms(use_true_random=False))
def test_homs_exist_iff_same_canonical_form(a, b, rng):
    # morphisms witness exactly that two rigid types collapse to the same
    # multiset type; a reordering of a is always such a pair
    for x, y in [(a, b), (a, rand_reorder(rng, a))]:
        assert bool(enumerate_homs_it(x, y)) == (canonicalize_it(x) == canonicalize_it(y))


def test_canonical_sequences_are_recognized_without_rebuilding():
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for _ in range(300):
        t = rand_stype(rng, 2)
        seq = tuple(rand_itype(rng, t, 2) for _ in range(rng.randint(0, 4)))
        for s in (seq, canonicalize_seq(seq), tuple(map(canonicalize_it, seq))):
            got = is_canonical_seq(s)
            assert got == (canonicalize_seq(s) == s), s
            seen[got] += 1
    assert min(seen.values()) >= 50, seen


def test_random_refinements_respect_simple_types():
    rng = random.Random(7)
    for _ in range(50):
        t = rand_stype(rng, 3)
        a = rand_itype(rng, t)
        assert refines(a, t)
        assert refines(canonicalize_it(a), t)


def test_context_text():
    ctx = parse_context("f:o->o, y:o")
    (f, tf), (y, ty) = ctx.bindings
    c = ResourceContext(((f, (parse_itype("<*>-o*"),), tf), (y, (S,), ty)))
    assert ctx_to_text(c) == "f:<<*>-o*>, y:<*>"


def test_point_spec_sorts_and_validates():
    ctx = parse_context("g:o->o, y:o")
    p = point_from_json(
        {"ctx": {"g": "[[*]-o*, []-o*]", "y": "[*]"}, "type": "*"}, ctx, O)
    assert p.ctx_lookup("g") == (parse_mit("[]-o*"), parse_mit("[*]-o*"))
    assert p.ctx_lookup("missing") == ()
    back = point_to_json(p)
    assert point_from_json(back, ctx, O) == p
    # entries and the result are canonical however the point is built
    assert PointSpec(tuple((x, ms[::-1]) for x, ms in p.ctx), p.result) == p
    a = parse_itype("<<*>-o*, <>-o*>-o*")
    q = PointSpec((("f", (a, S)),), a)
    assert q.result == parse_mit("[[]-o*, [*]-o*]-o*")
    assert q.ctx_lookup("f") == (S, q.result)


def test_point_refinement_errors():
    ctx = parse_context("g:o->o, y:o")
    with pytest.raises(RefinementError):
        point_from_json({"ctx": {"g": "[*]"}, "type": "*"}, ctx, O)
    with pytest.raises(RefinementError):
        point_from_json({"ctx": {"w": "[*]"}, "type": "*"}, ctx, O)
    with pytest.raises(RefinementError):
        point_from_json({"ctx": {}, "type": "[*]-o*"}, ctx, O)


def test_canonicalize_point_orders_and_rigidifies():
    ctx = parse_context("g:o->o, y:o")
    p = point_from_json(
        {"ctx": {"g": "[[*]-o*, []-o*]", "y": "[*,*]"}, "type": "*"}, ctx, O)
    gamma, alpha = canonicalize_point(p, ctx, O)
    assert alpha == S
    assert gamma.lookup("g") == (parse_itype("<>-o*"), parse_itype("<*>-o*"))
    assert gamma.lookup("y") == (S, S)
    assert ctx_refines(gamma)
    assert canonicalize_ctx(gamma) == gamma
