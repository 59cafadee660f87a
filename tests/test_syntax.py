import copy
import dataclasses
import pickle
import random

import pytest

from reference import alpha_eq
from support import (
    assert_same_scan, binders, built_nodes, load_corpus, per_token_tokenize, random_texts,
)
from thinspan import syntax
from thinspan.syntax import (
    App, Arrow, Base, Lam, ParseError, TypeCheckError, Var,
    annotate, beta_normalize, binder_names, ensure_distinct_binders, free_vars,
    is_beta_normal, parse_context, parse_simple_type, parse_term, spine, substitute,
    term_to_text, type_to_text, typecheck,
)

O = Base()


def test_equal_terms_and_types_are_one_object():
    assert O is syntax.O
    assert parse_term("f (g y)") is parse_term("f (g y)")
    assert parse_simple_type("(o->o)->o") is Arrow(Arrow(O, O), O)
    assert Lam("x", Var("x")) is Lam("x", Var("x"), None)
    assert Lam(body=Var("x"), binder="x") is Lam("x", Var("x"))
    lam = parse_term("\\x:o. x")
    assert dataclasses.replace(lam, annot=None) is Lam("x", Var("x"))
    assert dataclasses.replace(lam, binder="x") is lam
    for node in (lam, App(Var("f"), lam), Arrow(O, O), O):
        assert copy.copy(node) is node and copy.deepcopy(node) is node
        assert pickle.loads(pickle.dumps(node)) is node
    with pytest.raises(dataclasses.FrozenInstanceError):
        lam.binder = "y"
    with pytest.raises(TypeError):
        Lam("x")


def test_type_parsing_right_associative():
    t = parse_simple_type("o->o->o")
    assert t == Arrow(O, Arrow(O, O))
    assert parse_simple_type("(o->o)->o") == Arrow(Arrow(O, O), O)
    assert type_to_text(t) == "o -> o -> o"
    assert type_to_text(Arrow(Arrow(O, O), O)) == "(o -> o) -> o"


def test_application_left_associative():
    t = parse_term("f x y")
    assert t == App(App(Var("f"), Var("x")), Var("y"))
    head, args = spine(t)
    assert head == Var("f") and args == [Var("x"), Var("y")]


def test_lambda_parsing_and_annotations():
    t = parse_term("\\x:o. \\y:o->o. y x")
    assert isinstance(t, Lam) and t.annot == O
    assert isinstance(t.body, Lam) and t.body.annot == Arrow(O, O)
    assert parse_term("\\x. x") == Lam("x", Var("x"), None)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_term("f (g")
    with pytest.raises(ParseError):
        parse_term("")
    with pytest.raises(ParseError):
        parse_simple_type("o ->")
    with pytest.raises(TypeCheckError):
        parse_context("f:o, f:o->o")


def test_parser_freshens_duplicate_binders():
    t = parse_term("(\\x:o. x) ((\\x:o. x) y)")
    bs = binders(t)
    assert len(set(bs)) == len(bs)
    assert "y" in free_vars(t)


def test_typecheck_and_annotate():
    ctx = parse_context("f:o->o, x:o")
    assert typecheck(ctx, parse_term("f (f x)")) == O
    assert typecheck(ctx, parse_term("f")) == Arrow(O, O)
    with pytest.raises(TypeCheckError):
        typecheck(ctx, parse_term("x x"))
    with pytest.raises(TypeCheckError):
        typecheck(ctx, parse_term("f f"))
    with pytest.raises(TypeCheckError):
        typecheck(ctx, parse_term("y"))


def test_annotate_infers_unannotated_binders():
    ctx = parse_context("y:o")
    # expected type fills in the binder
    t, ty = annotate(ctx, parse_term("\\x. x"), parse_simple_type("o->o"))
    assert isinstance(t, Lam) and t.annot == O and ty == Arrow(O, O)
    # a redex argument determines its binder
    t, ty = annotate(ctx, parse_term("(\\x. x) y"))
    assert ty == O and t.fn.annot == O
    with pytest.raises(TypeCheckError):
        annotate(ctx, parse_term("\\x. x"))


def test_annotation_conflicts_are_rejected():
    ctx = parse_context("y:o")
    with pytest.raises(TypeCheckError):
        annotate(ctx, parse_term("\\x:o->o. x"), parse_simple_type("o->o"))


# annotate keeps its result on the term it was given, a copy it built too,
# and answers again only for the expected type it was found under: without
# one, or with another, a binder without an annotation still fails.
def test_a_kept_annotation_answers_only_its_expected_type(monkeypatch):
    ctx = parse_context("g:o->o")
    t, expected = parse_term("\\x. g x"), parse_simple_type("o->o")
    annotated, ty = annotate(ctx, t, expected)
    assert annotated is not t and ty == expected
    for other in (None, O):
        with pytest.raises(TypeCheckError):
            annotate(ctx, t, other)

    def refuse(*args):
        raise AssertionError("annotated again")

    monkeypatch.setattr(syntax, "_annotate", refuse)
    again, ty_again = annotate(ctx, t, expected)
    assert again is annotated and ty_again is ty


def test_substitution_avoids_capture():
    # (\y. x) with x := y must not capture
    t = Lam("y", Var("x"), O)
    s = substitute(t, "x", Var("y"))
    assert isinstance(s, Lam) and s.binder != "y" and s.body == Var("y")


def test_normalization_church_numerals():
    ctx = parse_context("g:o->o, y:o")
    two = "(\\f:o->o. \\x:o. f (f x))"
    t, _ = annotate(ctx, parse_term(f"{two} g y"))
    nf = beta_normalize(t)
    want, _ = annotate(ctx, parse_term("g (g y)"))
    assert alpha_eq(nf, want)
    assert is_beta_normal(nf) and not is_beta_normal(t)

    t2, _ = annotate(ctx, parse_term(f"{two} ({two} g) y"))
    nf2 = beta_normalize(t2)
    want2, _ = annotate(ctx, parse_term("g (g (g (g y)))"))
    assert alpha_eq(nf2, want2)


def test_normalization_discards_unused_argument():
    ctx = parse_context("y:o, z:o")
    t, _ = annotate(ctx, parse_term("(\\a:o. \\b:o. a) y z"))
    assert alpha_eq(beta_normalize(t), Var("y"))


def test_normal_form_keeps_annotations():
    ctx = parse_context("g:o->o")
    t, _ = annotate(ctx, parse_term("(\\k:o->o. \\x:o. k x) g"))
    nf = beta_normalize(t)
    assert isinstance(nf, Lam) and nf.annot == O


def test_alpha_equivalence():
    a = parse_term("\\x:o. \\y:o. x")
    b = parse_term("\\u:o. \\v:o. u")
    c = parse_term("\\u:o. \\v:o. v")
    assert alpha_eq(a, b) and not alpha_eq(a, c)


def test_ensure_distinct_binders_respects_reserved():
    t = parse_term("\\x:o. x")
    t2 = ensure_distinct_binders(t, {"x"})
    assert t2.binder != "x"
    assert alpha_eq(t, t2)


def test_rewriters_return_an_unchanged_term_itself():
    ctx = parse_context("g:o->o, y:o")
    t, ty = annotate(ctx, parse_term("(\\f. \\x:o. f (f x)) g y"))
    u = App(Lam("x", Var("x"), O), Lam("y", Var("y"), O))
    with built_nodes() as built:
        assert annotate(ctx, t)[0] is t and annotate(ctx, t, ty)[0] is t
        assert ensure_distinct_binders(t) is t
        assert ensure_distinct_binders(t, {"g", "y"}) is t
    assert [cls for cls in built if cls in (Var, App, Lam)] == []
    # only the path to a renamed binder is rebuilt
    with built_nodes() as built:
        v = ensure_distinct_binders(u, {"y"})
    assert v is not u and v.fn is u.fn and v.arg.binder != "y"
    assert built == [Var, Lam, App]


# A bad character is reported at its own position, not at the whitespace
# before it.  A text that failed to parse is not kept, so given again it
# fails again, with the same message.
@pytest.mark.parametrize("parse, text, char, pos", [
    (parse_term, "x  é", "é", 3),
    (parse_term, "f (g\t#)", "#", 5),
    (parse_simple_type, "o -> $", "$", 5),
    (parse_context, "x:o, #y:o", "#", 5),
    (parse_context, "  x:o, #y:o", "#", 7),
])
def test_parse_errors_point_at_the_bad_character(parse, text, char, pos):
    for _ in range(2):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert str(e.value) == f"unexpected character {char!r} at position {pos}"


@pytest.mark.parametrize("parse, text, message", [
    (parse_term, "f x )", "trailing input ')' at position 4"),
    (parse_simple_type, "o -> (o", "expected ')' but found 'end of input' at position 7"),
    (parse_context, "x:o y:o", "trailing input 'y' at position 4"),
])
def test_a_text_that_failed_to_parse_fails_again_the_same_way(parse, text, message):
    for _ in range(2):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert str(e.value) == message


def test_one_scan_tokenizer_matches_the_per_token_one():
    texts = [e[field] for e in load_corpus() for field in ("ctx", "term", "type") if field in e]
    texts += random_texts(20, ["x", "f'", "_1", " ", "  ", "\t", "\\", ".", "(", ")", ":", ",",
                               "o", "->", "-", "é"])
    for text in texts:
        assert_same_scan(syntax._tokenize, per_token_tokenize, ParseError, text)


def rand_term(rng, depth):
    name = rng.choice("xyz")
    if depth <= 0 or rng.random() < 0.3:
        return Var(name)
    if rng.random() < 0.5:
        return Lam(name, rand_term(rng, depth - 1), O)
    return App(rand_term(rng, depth - 1), rand_term(rng, depth - 1))


def walked_free_vars(t):
    match t:
        case Var(x):
            return {x}
        case App(f, a):
            return walked_free_vars(f) | walked_free_vars(a)
        case Lam(x, b, _):
            return walked_free_vars(b) - {x}


# The free variables and binder names kept on a term agree with walking it,
# and a term comes back from ensure_distinct_binders as it is exactly when
# its binders are distinct and apart from its free and the reserved names.
def test_kept_names_agree_with_walking_the_term():
    rng = random.Random(23)
    for _ in range(2000):
        t = rand_term(rng, 5)
        fvs, bs = walked_free_vars(t), binders(t)
        assert free_vars(t) == tuple(sorted(fvs))
        distinct = len(set(bs)) == len(bs) and fvs.isdisjoint(bs)
        assert (binder_names(t) is not None) == distinct
        if distinct:
            assert sorted(binder_names(t)) == sorted(bs)
        reserved = set(rng.sample("xyzw", 2))
        u = ensure_distinct_binders(t, reserved)
        us = binders(u)
        assert len(set(us)) == len(us) and (fvs | reserved).isdisjoint(us)
        assert alpha_eq(u, t) and (u is t) == (distinct and reserved.isdisjoint(bs))
