import pytest

import thinspan
from thinspan.syntax import TypeCheckError, is_beta_normal, parse_context, parse_term
from thinspan.rigidtypes import (
    PointSpec, RefinementError, is_canonical, parse_itype, parse_mit, parse_mset,
)
from thinspan.groupoid import enumerate_homs_ctx, enumerate_homs_it
from thinspan.derivation import (
    BoundedAt, BudgetRequiredError, DerivationError, Exact, count_derivation_morphisms, multiset_collapse_term, rt_context, rt_type,
)
from thinspan.interning import memo as term_memo
from thinspan.symmetry import permanent
from thinspan.collapse import (
    class_counts_check, esp_explicit, positive_witnesses, prepare, verify_identities,
    weight_by_classes,
)

from reference import check_derivation, is_negative_ctx, is_positive_it
from support import (
    church_point, copies_in_every_order, distinct_g_point, entry_budget, fanout_point,
    generated_points, listed_esp, load_corpus, parse_entry, per_target_witnesses, point_subject,
    ryser_permanent, symmetric_point,
)

BY_NAME = {e["name"]: e for e in load_corpus()}


def report_for(name, budget=None):
    ctx, term, ty, point = parse_entry(BY_NAME[name])
    return ty, positive_witnesses(prepare(ctx, term, point), budget)


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
    # a witness keeps its rigid point; the polarized morphisms that make it
    # a witness exist in the listed hom-sets
    for name in ("one-term-two-witnesses", "shared-head-two-ways", "fan-out"):
        ctx, term, ty, point = parse_entry(BY_NAME[name])
        rep = positive_witnesses(prepare(ctx, term, point))
        gamma, a = rep.subject.gamma, rep.subject.result
        for w in rep.witnesses:
            assert w.theta == rt_context(gamma.shape(), w.derivation)
            assert w.alpha == rt_type(w.derivation)
            assert any(is_negative_ctx(cm) for cm in enumerate_homs_ctx(gamma, w.theta))
            assert any(is_positive_it(phi, ty) for phi in enumerate_homs_it(w.alpha, a))


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


# A beta-normal term is enumerated without a budget, so one report is kept
# for it whatever budget a query gives; a redex keeps one per budget.
def test_a_report_is_kept_once_per_budget_it_ran_under(cold_memo):
    for name, budgets, reports in (("fan-out", (None, 5, 0), 1),
                                   ("identity-redex", (1, 2, 1), 2)):
        ctx, term, _, point = parse_entry(BY_NAME[name])
        subject = prepare(ctx, term, point)
        first, *rest = (positive_witnesses(subject, b) for b in budgets)
        for rep in rest:
            assert rep.witnesses == first.witnesses, name
        kept = [key for key in term_memo(subject.term) if key[0] == "witnesses"]
        assert len(kept) == reports, name


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
        report = positive_witnesses(prepare(ctx, term, point), entry_budget(entry))
        if report.witnesses:
            assert esp_explicit(report) == listed_esp(report), (entry["name"], point)
            compared += 1
    assert compared >= 20


# Subjects of the bag enumerator's differential test that no seeded draw
# reaches, kept out of corpus/points.json, which the benchmark reads:
# label -> ((term, point context, typing context), budget).
HAND = {
    # x's one occurrence takes the bag's value under a non-canonical label
    "non-canonical-label": (("x (\\h:o->o. h (h y))",
                             {"x": "[[[[]-o*,[*]-o*]-o*]-o*]", "y": "[]"},
                             "x:((o->o)->o)->o, y:o"), None),
    # the same, with x the bare-variable argument of a redex
    "non-canonical-cut": (("(\\k:((o->o)->o)->o. k (\\h:o->o. h (h y))) x",
                           {"x": "[[[[]-o*,[*]-o*]-o*]-o*]", "y": "[]"},
                           "x:((o->o)->o)->o, y:o"), 1),
    # the redex's bare-variable argument picks g's two values in either order
    "redex-over-two-values": (("(\\h:o->o. f (h y)) g",
                               {"f": "[[*,*]-o*]", "g": "[[]-o*,[*]-o*]", "y": "[*]"},
                               "f:o->o, g:o->o, y:o"), 1),
    # and here its three values, in every order
    "redex-over-three-values": (("(\\h:o->o. f (h y) (h y)) g",
                                 {"f": "[[*]-o[*,*]-o*]", "g": "[[]-o*,[*]-o*,[*,*]-o*]",
                                  "y": "[*,*,*]"},
                                 "f:o->o->o, g:o->o, y:o"), 1),
}


def corpus_subjects():
    for entry in load_corpus():
        ctx, term, _, point = parse_entry(entry)
        yield entry["name"], ctx, term, point, entry_budget(entry)


def generated_subjects():
    for entry, ctx, term, _, point in generated_points():
        yield entry["name"], ctx, term, point, entry_budget(entry)


def family_subjects():
    points = ([(f"symmetric-{n}", symmetric_point(n), None) for n in range(1, 6)]
              + [(f"fanout-{n}", fanout_point(n), None) for n in range(1, 5)]
              + [(f"church-{k}", church_point(k), k) for k in range(1, 6)]
              + [(f"distinct-g-{k}", distinct_g_point(k), None) for k in range(1, 5)])
    for label, point, budget in points:
        ctx, term, _, pt = point_subject(*point)
        yield label, ctx, term, pt, budget


def hand_subjects():
    for label, (point, budget) in HAND.items():
        ctx, term, _, pt = point_subject(*point)
        yield label, ctx, term, pt, budget


def copies_subjects():
    for label, ctx, term, pt, budget, _ in copies_in_every_order():
        yield label, ctx, term, pt, budget


# the fewest witnesses each group of subjects must reach
BAG_SUBJECTS = {"corpus": (corpus_subjects, 25), "generated": (generated_subjects, 50),
                "families": (family_subjects, 47), "hand": (hand_subjects, 10),
                "copies": (copies_subjects, 9)}


@pytest.mark.parametrize("group", sorted(BAG_SUBJECTS))
def test_bag_enumeration_matches_per_target_oracle(group):
    # positive_witnesses enumerates once over the context's bags; the oracle
    # once per reachable rigid point.  Both list the same (theta, d) pairs,
    # in the same order, and every d is a derivation concluding its theta.
    subjects, least = BAG_SUBJECTS[group]
    found = 0
    for label, ctx, term, point, budget in subjects():
        subject = prepare(ctx, term, point)
        rep = positive_witnesses(subject, budget)
        gamma, a = subject.gamma, subject.result
        got = [(w.theta, w.derivation) for w in rep.witnesses]
        want = [(theta, d) for theta, _, d in per_target_witnesses(ctx, subject.term, gamma, a,
                                                                   budget)]
        assert got == want, label
        for theta, d in got:
            assert check_derivation(ctx, subject.term, d), label
            assert rt_context(gamma.shape(), d) == theta, label
        found += len(got)
    assert found >= least, found


def test_permanents_match_ryser_on_real_matrices(monkeypatch, cold_memo):
    # every matrix of at most 10 rows that the triple count, the class
    # degrees and the morphisms between witnesses take a permanent of
    sizes = []

    def checked(m):
        got = permanent(m)
        if len(m) <= 10:
            assert got == ryser_permanent(m), m
            sizes.append(len(m))
        return got

    for module in (thinspan.symmetry, thinspan.derivation):
        monkeypatch.setattr(module, "permanent", checked)
    for subjects in (corpus_subjects, generated_subjects, family_subjects):
        for label, ctx, term, point, budget in subjects():
            rep = verify_identities(ctx, term, point, budget)
            assert rep.ok, label
            derivations = [w.derivation for w in rep.report.witnesses[:6]]
            for r1 in derivations:
                for r2 in derivations:
                    count_derivation_morphisms(r1, r2)
    assert len(sizes) >= 500 and max(sizes) >= 6, (len(sizes), max(sizes))


def test_witness_label_outside_canonical_form():
    point, _ = HAND["non-canonical-label"]
    ctx, term, _, pt = point_subject(*point)
    rep = positive_witnesses(prepare(ctx, term, pt))
    assert rep.wit_plus == 1
    (label,) = rep.witnesses[0].theta.lookup("x")
    assert label == parse_itype("<<<*>-o*,<>-o*>-o*>-o*")
    assert not is_canonical(label)
    assert verify_identities(ctx, term, pt).ok


def test_redex_cut_over_distinct_values():
    for label, count in (("redex-over-two-values", 2), ("redex-over-three-values", 6)):
        point, budget = HAND[label]
        ctx, term, _, pt = point_subject(*point)
        rep = verify_identities(ctx, term, pt, budget, expected=count)
        assert rep.ok, label
        assert rep.report.wit_plus == count, label


def test_copies_in_every_order_are_classes_of_their_own():
    for label, ctx, term, pt, budget, coefficient in copies_in_every_order():
        rep = verify_identities(ctx, term, pt, budget, expected=coefficient)
        assert rep.ok, label
        assert len(rep.report.classes) == rep.report.wit_plus == coefficient, label


# The classes are keyed by the collapse of each witness's contractum; keyed
# by the collapse of the redex itself, the orders of the argument copies
# fall into one class, and the class checks fail on every such subject.
# The memos start empty, or the reports the session kept would answer.
def test_a_class_key_before_contraction_fails_the_checks(monkeypatch, cold_memo):
    def uncontracted(derivations):
        classes: dict = {}
        for r in derivations:
            classes.setdefault(multiset_collapse_term(r), []).append(r)
        return tuple(map(tuple, classes.values()))

    monkeypatch.setattr(thinspan.collapse, "partition_by_symmetry", uncontracted)
    for label, ctx, term, pt, budget, _ in copies_in_every_order():
        rep = verify_identities(ctx, term, pt, budget)
        failed = {c.name for c in rep.checks if not c.ok}
        assert failed == {"class-weights-sum", "class-sizes"}, label


def multiset_point(entries: dict, result: str = "*") -> PointSpec:
    """A point built as it is given, with no check against a context."""
    return PointSpec(tuple((x, parse_mset(m)) for x, m in entries.items()), parse_mit(result))


GY = {"g": "[[*]-o*]", "y": "[*]"}

# Each input is checked once, where the query is prepared or, for the
# budget, where the enumeration starts; a caller sees the same exception
# and message as when every layer checked its own inputs.
MALFORMED = [
    ("unbound variable", "g z", multiset_point(GY), None,
     TypeCheckError, "unbound variable 'z'"),
    ("unannotated binder", "\\x. g x", multiset_point(GY), None,
     TypeCheckError, "binder 'x' lacks an annotation and no expected type is available"),
    ("ill-typed application", "y g", multiset_point(GY), None,
     TypeCheckError, "cannot apply y of base type to g"),
    ("point names an unbound variable", "g y", multiset_point({**GY, "z": "[*]"}), None,
     RefinementError, "point mentions variable 'z' not bound in the context"),
    ("entry does not refine", "g y", multiset_point({**GY, "y": "[[]-o*]"}), None,
     RefinementError, "entry []-o* for variable 'y' does not refine o"),
    ("result does not refine", "g y", multiset_point(GY, "[]-o*"), None,
     RefinementError, "result []-o* does not refine o"),
    ("negative budget", "g y", multiset_point(GY), -1,
     DerivationError, "budget must be a non-negative integer, got -1"),
    ("bool budget", "g y", multiset_point(GY), True,
     DerivationError, "budget must be a non-negative integer, got True"),
    ("redex without a budget", "(\\f:o->o. f y) g", multiset_point(GY), None,
     BudgetRequiredError,
     "term (\\f:o -> o. f y) g is not beta-normal; witness enumeration needs a budget"),
    ("redex binding a context name, without a budget", "(\\y:o. g y) y", multiset_point(GY),
     None, BudgetRequiredError,
     "term (\\y1:o. g y1) y is not beta-normal; witness enumeration needs a budget"),
]


@pytest.mark.parametrize("term, point, budget, error, message",
                         [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED])
def test_malformed_subjects_raise_as_before(term, point, budget, error, message):
    ctx = parse_context("g:o->o, y:o")
    with pytest.raises(error) as raised:
        verify_identities(ctx, parse_term(term), point, budget)
    assert type(raised.value) is error
    assert str(raised.value) == message
