import pytest

from thinspan.syntax import is_beta_normal
from thinspan.symmetry import is_negative_ctx, is_positive_it, src_ctx, src_it, tgt_ctx, tgt_it
from thinspan.derivation import BoundedAt, BudgetRequiredError, Exact, rt_context, rt_type
from thinspan.collapse import (
    class_counts_check, esp_explicit, positive_witnesses, verify_identities,
    weight_by_classes,
)

from support import entry_budget, generated_points, listed_esp, load_corpus, parse_entry

BY_NAME = {e["name"]: e for e in load_corpus()}


def report_for(name, budget=None):
    ctx, term, ty, point = parse_entry(BY_NAME[name])
    return ty, positive_witnesses(ctx, term, point, budget)


def test_report_one_term_two_witnesses():
    ty, rep = report_for("one-term-two-witnesses")
    assert rep.wit_plus == 2
    assert rep.classes == ((0, 1),)
    assert rep.class_endos == (1,)
    d = rep.ctx_degrees
    assert (d.total, d.positive, d.negative) == (2, 2, 1)
    r = rep.res_degrees
    assert (r.total, r.positive, r.negative) == (1, 1, 1)
    assert rep.esp == 2
    assert weight_by_classes(rep) == 2
    assert isinstance(rep.completeness, Exact)


def test_report_fan_out():
    ty, rep = report_for("fan-out")
    assert rep.wit_plus == 1
    assert rep.classes == ((0,),)
    assert rep.class_endos == (2,)
    d = rep.ctx_degrees
    assert (d.total, d.positive, d.negative) == (8, 2, 4)
    # one witness, orbit of size two, halved by its own symmetry
    assert weight_by_classes(rep) == 1
    assert rep.esp == 4
    assert esp_explicit(rep) == 4


def test_report_shared_head():
    ty, rep = report_for("shared-head-two-ways")
    assert rep.wit_plus == 2
    assert len(rep.classes) == 2
    assert rep.class_endos == (1, 1)
    d = rep.ctx_degrees
    assert (d.total, d.positive, d.negative) == (1, 1, 1)
    assert weight_by_classes(rep) == 2
    assert rep.esp == 2


def test_report_vacuous_pair():
    ty, rep = report_for("vacuous-binder-pair")
    assert rep.wit_plus == 2
    assert rep.classes == ((0, 1),)
    assert rep.class_endos == (1,)
    assert rep.ctx_degrees.positive == 2
    assert weight_by_classes(rep) == 2


def test_witness_morphism_orientation():
    for name in ("one-term-two-witnesses", "shared-head-two-ways", "fan-out"):
        ctx, term, ty, point = parse_entry(BY_NAME[name])
        rep = positive_witnesses(ctx, term, point)
        gamma, a = rep.rep
        for w in rep.witnesses:
            assert src_ctx(w.neg) == gamma
            assert tgt_ctx(w.neg) == rt_context(gamma.shape(), w.derivation)
            assert is_negative_ctx(w.neg)
            assert src_it(w.pos) == rt_type(w.derivation)
            assert tgt_it(w.pos) == a
            assert is_positive_it(w.pos, ty)


def test_esp_explicit_matches_counting():
    for name in ("one-term-two-witnesses", "shared-head-two-ways", "fan-out",
                 "vacuous-binder-pair", "bound-argument-collapse",
                 "eta-expanded-identity"):
        _, rep = report_for(name)
        assert esp_explicit(rep) == rep.esp, name


def test_class_counts_check_clean():
    for name in ("one-term-two-witnesses", "fan-out", "double-application"):
        _, rep = report_for(name)
        assert class_counts_check(rep) == []


def test_budget_flows_through():
    with pytest.raises(BudgetRequiredError):
        report_for("identity-redex")
    _, rep = report_for("identity-redex", budget=1)
    assert rep.completeness == BoundedAt(1)
    assert rep.wit_plus == 1


def test_verify_identities_pass():
    for name in ("one-term-two-witnesses", "fan-out", "redex-over-shared-pair",
                 "church-two-at-fan"):
        entry = BY_NAME[name]
        ctx, term, ty, point = parse_entry(entry)
        budget = None if is_beta_normal(term) else entry_budget(entry)
        rep = verify_identities(ctx, term, point, budget, expected=entry["expected"])
        assert rep.ok, [c for c in rep.checks if not c.ok]
        names = [c.name for c in rep.checks]
        assert names == ["wrel-equals-witness-count", "class-weights-sum",
                         "class-sizes", "triple-count-factors",
                         "coefficient-division", "expected-value"]


def test_verify_identities_without_expected():
    ctx, term, ty, point = parse_entry(BY_NAME["double-application"])
    rep = verify_identities(ctx, term, point)
    assert rep.ok
    assert "expected-value" not in [c.name for c in rep.checks]


def test_verify_identities_wrong_expectation():
    ctx, term, ty, point = parse_entry(BY_NAME["double-application"])
    rep = verify_identities(ctx, term, point, expected=5)
    assert not rep.ok
    bad = [c for c in rep.checks if not c.ok]
    assert [c.name for c in bad] == ["expected-value"]
    assert bad[0].detail


def test_triple_count_matches_listing_on_generated_points():
    compared = 0
    for entry, ctx, term, _, point in generated_points():
        report = positive_witnesses(ctx, term, point, entry_budget(entry))
        if report.witnesses:
            assert esp_explicit(report) == listed_esp(report), (entry["name"], point)
            compared += 1
    assert compared >= 20
