import copy
import gc
import pickle
import random
import weakref

import pytest
from hypothesis import given, strategies as st

from thinspan import derivation, rigidtypes, symmetry, syntax
from thinspan.syntax import Arrow, Base, parse_context, parse_simple_type
from thinspan.rigidtypes import (
    IArrow, PointSpec, RefinementError, ResourceContext, Star,
    canonicalize_it, canonicalize_point, canonicalize_seq,
    ctx_refines, ctx_to_text, is_canonical, is_canonical_seq, it_to_text, key_it,
    mit_to_text, parse_itype, parse_mit, parse_mset,
    point_from_json, point_to_json, refines,
)
from thinspan.groupoid import enumerate_homs_it

from support import (
    assert_same_scan, canonicalize_ctx, chain_point, church_point, distinct_g_point, fanout_point,
    generated_points, load_corpus, parse_entry, per_token_it_tokenize, point_subject,
    rand_itype, rand_reorder, rand_stype, random_texts, symmetric_point, walked_refines,
)

S = Star()
O = Base()


def test_equal_rigid_types_are_one_object():
    assert S is rigidtypes.STAR
    assert parse_itype("<*,*>-o*") is IArrow((Star(), Star()), Star())
    assert parse_mit("[[*]-o*,*]-o*") is IArrow((S, IArrow((S,), S)), S)
    assert IArrow(codomain=S, domain=()) is IArrow((), S)
    a = parse_itype("<<*>-o*>-o*")
    assert IArrow((), a.codomain) is IArrow((), S)
    assert copy.deepcopy(a) is a and pickle.loads(pickle.dumps(a)) is a
    with pytest.raises(AttributeError):
        a.codomain = a
    assert a.codomain is S


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
        assert syntax.is_beta_normal(t) and syntax._nf(t) is t
        assert syntax.free_vars(t) == () and syntax.binder_names(t) == ("only_in_the_fact_test",)
        assert syntax.annotate(syntax.TypingContext(), t) == (t, Arrow(O, O))
        assert rigidtypes.erasure(a) is parse_simple_type("o->o->o")
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


# canonicalize_seq asks is_canonical_seq first, so both are checked against
# the sorted copy, and a canonical sequence comes back as the same tuple.
def test_canonical_sequences_are_recognized_without_rebuilding():
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for _ in range(300):
        t = rand_stype(rng, 2)
        seq = tuple(rand_itype(rng, t, 2) for _ in range(rng.randint(0, 4)))
        for s in (seq, canonicalize_seq(seq), tuple(map(canonicalize_it, seq))):
            got = is_canonical_seq(s)
            sorted_copy = tuple(sorted(map(canonicalize_it, s), key=key_it))
            assert got == (sorted_copy == s), s
            assert canonicalize_seq(s) == sorted_copy, s
            assert (canonicalize_seq(s) is s) == got, s
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


# A text that failed to parse is not kept, so given again it fails again,
# with the same message.
@pytest.mark.parametrize("text, char, pos", [
    ("[*,  é]", "é", 5),
    ("[*]\t-o #", "#", 7),
])
def test_notation_errors_point_at_the_bad_character(text, char, pos):
    for _ in range(2):
        with pytest.raises(RefinementError) as e:
            parse_mit(text)
        assert str(e.value) == f"unexpected character {char!r} at position {pos} in type notation"


def point_entry(text):
    return point_from_json({"ctx": {"g": text}, "type": "*"}, parse_context("g:o->o, y:o"), O)


def point_type(text):
    return point_from_json({"ctx": {}, "type": text}, parse_context("g:o->o, y:o"), O)


@pytest.mark.parametrize("parse, text, message", [
    (parse_mit, "[*]-o* *", "trailing input at position 7 in type notation"),
    (parse_mset, "[*,  é]", "unexpected character 'é' at position 5 in type notation"),
    (parse_mset, "[*] *", "trailing input at position 4 in type notation"),
    (point_entry, "[[*]-o*, $]", "unexpected character '$' at position 9 in type notation"),
    (point_entry, "[[*,*]-o*,*]", "entry * for variable 'g' does not refine o -> o"),
    (point_type, "[] -o @", "unexpected character '@' at position 6 in type notation"),
    # a multiset that does not open with a bracket
    (parse_mset, "", "expected '[' or '<' at position 0 in type notation, found 'eof'"),
    (point_entry, "", "expected '[' or '<' at position 0 in type notation, found 'eof'"),
    (point_entry, "*", "expected '[' or '<' at position 0 in type notation, found '*'"),
    (point_entry, "]", "expected '[' or '<' at position 0 in type notation, found ']'"),
    (point_entry, ")", "expected '[' or '<' at position 0 in type notation, found ')'"),
    (point_entry, "-o*]", "expected '[' or '<' at position 0 in type notation, found '-o'"),
    (point_entry, "  *", "expected '[' or '<' at position 2 in type notation, found '*'"),
])
def test_a_notation_that_failed_fails_again_the_same_way(parse, text, message):
    for _ in range(2):
        with pytest.raises(RefinementError) as e:
            parse(text)
        assert str(e.value) == message


def test_one_scan_notation_tokenizer_matches_the_per_token_one():
    texts = [text for e in load_corpus()
             for text in (*e["point"]["ctx"].values(), e["point"]["type"])]
    texts += random_texts(21, ["*", "<", ">", "[", "]", "(", ")", ",", "-o", "-", " ", "\t", "é"])
    for text in texts:
        assert_same_scan(rigidtypes._it_tokenize, per_token_it_tokenize, RefinementError, text)


def free_itype(rng, depth):
    """A random rigid type, refining some simple type or none."""
    if depth <= 0 or rng.random() < 0.3:
        return S
    return IArrow(tuple(free_itype(rng, depth - 1) for _ in range(rng.randint(0, 3))),
                  free_itype(rng, depth - 1))


def subtypes(a):
    yield a
    if isinstance(a, IArrow):
        for x in a.domain:
            yield from subtypes(x)
        yield from subtypes(a.codomain)


def simple_subtypes(t):
    yield t
    if isinstance(t, Arrow):
        yield from simple_subtypes(t.domain)
        yield from simple_subtypes(t.codomain)


# An empty domain leaves the simple type a rigid type erases to open, at any
# depth; so do mixed domains with an open component, and components that
# erase to different types leave it none.  Random types that refine no
# simple type have such domains too.
HAND_TYPES = ["[]-o*", "[[]-o*]-o*", "[*,[*]-o*]-o*", "[[]-o*,[*]-o*]-o*",
              "[[[]-o*]-o*,[[*]-o*]-o*]-o*", "[*]-o[]-o*", "[[]-o[]-o*]-o*"]


def test_refinement_reads_the_erasure_as_the_walk_does():
    subjects = [parse_entry(e) for e in load_corpus()]
    subjects += [(ctx, term, ty, point) for _, ctx, term, ty, point in generated_points()]
    families = ([symmetric_point(n) for n in range(1, 6)] + [fanout_point(n) for n in range(1, 4)]
                + [church_point(k) for k in range(1, 5)])
    subjects += [point_subject(*p) for p in families]
    subjects += [point_subject(*p) for p in (distinct_g_point(4), chain_point(5))]
    tops = {parse_mit(text) for text in HAND_TYPES}
    simple = {parse_simple_type("(o->o)->o->o")}
    for ctx, _, ty, point in subjects:
        gamma, result = canonicalize_point(point, ctx, ty)
        tops |= {a for _, seq, _ in gamma.entries for a in seq} | {result}
        simple |= {t for _, t in ctx} | {ty}
    rng = random.Random(22)
    tops |= {rand_itype(rng, rand_stype(rng, 3)) for _ in range(300)}
    tops |= {free_itype(rng, 3) for _ in range(300)}
    types = {b for a in tops for b in subtypes(a)}
    simple = {s for t in simple for s in simple_subtypes(t)}
    opened = [a for a in types if rigidtypes.erasure(a) is None]
    assert len(opened) > 100 and len(types) - len(opened) > 100 and len(simple) >= 5
    for a in types:
        e = rigidtypes.erasure(a)
        assert e is None or walked_refines(a, e)
        for t in simple:
            assert refines(a, t) == walked_refines(a, t), (it_to_text(a), t)
    # an open type refines more than one simple type
    assert refines(parse_mit("[]-o*"), O) is False
    assert all(refines(parse_mit("[]-o*"), t) for t in simple if isinstance(t, Arrow)
               and t.codomain is O)
    assert not refines(parse_mit("[*,[*]-o*]-o*"), parse_simple_type("o->o"))
