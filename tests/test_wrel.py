from math import comb

import pytest

from thinspan.syntax import beta_normalize, ensure_distinct_binders, is_beta_normal
from thinspan.rigidtypes import IArrow, PointSpec, RefinementError, Star, parse_mit
from thinspan.wrel import NatInf, wrel_coefficient, rel_inhabited, _mset_decompositions

from support import load_corpus, parse_entry

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
        got = wrel_coefficient(ctx, term, point)
        assert got == NatInf(entry["expected"]), entry["name"]


def test_uninhabited_point_gives_zero():
    entry = dict(load_corpus()[0])
    entry["point"] = {"ctx": {"f": "[[*]-o[]-o*, []-o[*]-o*]", "x": "[]", "y": "[]"},
                      "type": "*"}
    ctx, term, _, point = parse_entry(entry)
    assert wrel_coefficient(ctx, term, point) == NatInf(0)
    assert not rel_inhabited(ctx, term, point)


def test_coefficient_is_beta_invariant():
    for entry in load_corpus():
        ctx, term, _, point = parse_entry(entry)
        if is_beta_normal(term):
            continue
        nf = ensure_distinct_binders(beta_normalize(term), set(ctx.names()))
        assert wrel_coefficient(ctx, nf, point) == wrel_coefficient(ctx, term, point), \
            entry["name"]


def test_refinement_validation():
    ctx, term, ty, point = parse_entry(load_corpus()[0])
    bad_result = PointSpec(point.ctx, IArrow((), M))
    with pytest.raises(RefinementError):
        wrel_coefficient(ctx, term, bad_result)
    bad_entry = PointSpec((("f", (M,)),) + point.ctx[1:], point.result)
    with pytest.raises(RefinementError):
        wrel_coefficient(ctx, term, bad_entry)
    extra = PointSpec(point.ctx + (("zz", (M,)),), point.result)
    with pytest.raises(RefinementError):
        wrel_coefficient(ctx, term, extra)


def test_mset_decompositions_counts():
    a = parse_mit("[]-o*")
    b = parse_mit("[*]-o*")
    ds = _mset_decompositions((a, a, b), 2)
    assert len(ds) == comb(2 + 1, 1) * comb(1 + 1, 1)
    for parts in ds:
        assert len(parts) == 2
        merged = sorted(parts[0] + parts[1], key=repr)
        assert merged == sorted((a, a, b), key=repr)
    assert _mset_decompositions((), 3) == (((), (), ()),)
    assert _mset_decompositions((a,), 0) == ()
    assert len(_mset_decompositions((a, a, a, a), 3)) == comb(4 + 2, 2)


def test_repeat_calls_are_consistent():
    ctx, term, _, point = parse_entry(load_corpus()[7])
    first = wrel_coefficient(ctx, term, point)
    assert wrel_coefficient(ctx, term, point) == first
