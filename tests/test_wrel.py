from math import comb
import os
from pathlib import Path
import random
import subprocess
import sys
import textwrap

import pytest

import thinspan
from thinspan.syntax import (
    annotate, beta_normalize, ensure_distinct_binders, is_beta_normal, parse_context, parse_term,
)
from thinspan.rigidtypes import IArrow, PointSpec, RefinementError, Star, parse_mit
from thinspan.collapse import prepare
from thinspan.wrel import NatInf, wrel_coefficient

from support import (
    load_corpus, mset_decompositions, parse_entry, point_subject, rand_point,
    split_wrel_coefficient,
)

M = Star()


def test_natinf_arithmetic():
    assert NatInf() == NatInf(0)
    assert NatInf(5) == NatInf(5) != NatInf(6)
    assert not NatInf(0)
    assert NatInf(1)
    with pytest.raises(ValueError):
        NatInf(-1)
    assert repr(NatInf(7)) == "7"


def test_corpus_coefficients():
    for entry in load_corpus():
        ctx, term, _, point = parse_entry(entry)
        got = wrel_coefficient(prepare(ctx, term, point))
        assert got == NatInf(entry["expected"]), entry["name"]


def test_uninhabited_point_gives_zero():
    entry = dict(load_corpus()[0])
    entry["point"] = {"ctx": {"f": "[[*]-o[]-o*, []-o[*]-o*]", "x": "[]", "y": "[]"},
                      "type": "*"}
    ctx, term, _, point = parse_entry(entry)
    assert wrel_coefficient(prepare(ctx, term, point)) == NatInf(0)
    assert not wrel_coefficient(prepare(ctx, term, point))


def test_coefficient_is_beta_invariant():
    for entry in load_corpus():
        ctx, term, _, point = parse_entry(entry)
        if is_beta_normal(term):
            continue
        nf = ensure_distinct_binders(beta_normalize(term), set(ctx.names()))
        got = wrel_coefficient(prepare(ctx, nf, point))
        assert got == wrel_coefficient(prepare(ctx, term, point)), entry["name"]


def test_refinement_validation():
    ctx, term, ty, point = parse_entry(load_corpus()[0])
    bad_result = PointSpec(point.ctx, IArrow((), M))
    with pytest.raises(RefinementError):
        wrel_coefficient(prepare(ctx, term, bad_result))
    bad_entry = PointSpec((("f", (M,)),) + point.ctx[1:], point.result)
    with pytest.raises(RefinementError):
        wrel_coefficient(prepare(ctx, term, bad_entry))
    extra = PointSpec(point.ctx + (("zz", (M,)),), point.result)
    with pytest.raises(RefinementError):
        wrel_coefficient(prepare(ctx, term, extra))


def test_mset_decompositions_counts():
    a = parse_mit("[]-o*")
    b = parse_mit("[*]-o*")
    ds = mset_decompositions((a, a, b), 2)
    assert len(ds) == comb(2 + 1, 1) * comb(1 + 1, 1)
    for parts in ds:
        assert len(parts) == 2
        merged = sorted(parts[0] + parts[1], key=repr)
        assert merged == sorted((a, a, b), key=repr)
    assert mset_decompositions((), 3) == (((), (), ()),)
    assert mset_decompositions((a,), 0) == ()
    assert len(mset_decompositions((a, a, a, a), 3)) == comb(4 + 2, 2)


# Higher-order terms, each over a context of its own free variables, with
# points of known coefficient.  A binder the body never uses must get the
# empty bag: z in the second point of the third term, and x in the last,
# the corpus term vacuous-binder-pair at a point that gives x two elements.
HIGHER_ORDER = (
    ("f:(o->o)->o, g:o->o", "f (\\x:o. g (g x))", (
        ({"f": "[[[*]-o*]-o*]", "g": "[[]-o*,[*]-o*,[*,*]-o*]"}, 2),)),
    ("h:(o->o)->o->o, g:o->o, y:o", "h g (h g y)", (
        ({"h": "[[]-o[*]-o*,[]-o[*,*]-o*,[[]-o*]-o[*,*]-o*]", "g": "[[]-o*]", "y": "[*,*,*]"},
         4),)),
    ("f:(o->o)->o, k:(o->o)->o", "f (\\x:o. k (\\z:o. x))", (
        ({"f": "[[[*,*]-o*]-o*]", "k": "[[[]-o*,[]-o*]-o*]"}, 1),
        ({"f": "[[[*,*]-o*]-o*]", "k": "[[[*]-o*,[]-o*]-o*]"}, 0))),
    ("f:(o->o)->o, g:o->o, y:o", "f (\\x:o. g y)", (
        ({"f": "[[[*,*]-o*]-o*]", "g": "[[*,*]-o*]", "y": "[*,*]"}, 0),)),
)


def test_threaded_coefficient_matches_split_oracle():
    rng = random.Random(20241)
    memo: dict = {}
    subjects = [(*parse_entry(e)[:3], 15, 2) for e in load_corpus()]
    for ctx_text, term_text, points in HIGHER_ORDER:
        ctx = parse_context(ctx_text)
        subjects.append((ctx, *annotate(ctx, parse_term(term_text)), 30, 1))
        for bags, expected in points:
            _, term, _, point = point_subject(term_text, bags, ctx_text)
            assert wrel_coefficient(prepare(ctx, term, point)).value == expected, (term_text, bags)
            assert split_wrel_coefficient(ctx, term, point, memo) == expected, (term_text, bags)
    nonzero = 0
    for ctx, term, ty, draws, width in subjects:
        for _ in range(draws):
            point = rand_point(rng, ctx, ty, size=3, width=width)
            got = wrel_coefficient(prepare(ctx, term, point)).value
            assert got == split_wrel_coefficient(ctx, term, point, memo), (term, point)
            nonzero += bool(got)
    assert nonzero >= 20


def test_repeat_calls_are_consistent():
    ctx, term, _, point = parse_entry(load_corpus()[7])
    first = wrel_coefficient(prepare(ctx, term, point))
    assert wrel_coefficient(prepare(ctx, term, point)) == first


def test_deep_term_queried_twice():
    # the second query finds the deep term in the caches; a fresh
    # interpreter keeps the stack depth independent of pytest's
    script = textwrap.dedent("""
        from thinspan import PointSpec, parse_context, parse_mit, parse_mset, parse_term
        from thinspan import prepare, wrel_coefficient
        n = 400
        ctx = parse_context("f:o->o, y:o")
        term = parse_term("f (" * (n - 1) + "f y" + ")" * (n - 1))
        f_bag = parse_mset("[" + ",".join(["[*]-o*"] * n) + "]")
        point = PointSpec((("f", f_bag), ("y", parse_mset("[*]"))), parse_mit("*"))
        for _ in range(2):
            print(wrel_coefficient(prepare(ctx, term, point)).value)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(thinspan.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr[-2000:]
    assert res.stdout.split() == ["1", "1"]
