import copy
import pickle
from math import prod

import pytest

import thinspan
from thinspan.syntax import (
    Base, TypeCheckError, is_beta_normal, parse_context, parse_term, term_to_text,
)
from thinspan.rigidtypes import (
    PointSpec, RefinementError, canonicalize_it, is_canonical, parse_itype, parse_mit,
    parse_mset,
)
from thinspan.groupoid import enumerate_homs_ctx, enumerate_homs_it
from thinspan.derivation import read_back, rt_context, rt_type
from thinspan.interning import memo as term_memo
from thinspan.symmetry import count_negative_seq, count_positive_it, neg_targets_it, permanent
from thinspan.collapse import (
    WitnessReport, class_counts_check, esp_explicit, positive_witnesses, prepare,
    verify_identities, weight_by_classes,
)

from reference import (
    check_derivation, count_derivation_morphisms, is_negative_ctx, is_positive_it,
)
from support import (
    church_point, church_tower_point, copies_in_every_order, distinct_g_point, fanout_point,
    generated_points, higher_order_cut_point, listed_esp, load_corpus, parse_entry,
    per_target_witnesses, point_subject, point_width, redex_subjects, ryser_permanent,
    small_points, small_terms, split_witnesses, symmetric_point, third_order_cut_point,
)

BY_NAME = {e["name"]: e for e in load_corpus()}


def report_for(name):
    ctx, term, ty, point = parse_entry(BY_NAME[name])
    return ty, positive_witnesses(prepare(ctx, term, point))


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


def test_class_weights_are_summed_in_integers():
    _, rep = report_for("fan-out")
    assert rep.ctx_degrees.positive * rep.res_degrees.negative == 2
    # summands that are not integers may still sum to one
    def regrouped(class_sizes, class_endos):
        return WitnessReport(rep.subject, rep.wit_plus, class_sizes, class_endos,
                             rep.ctx_degrees, rep.res_degrees)

    halves = regrouped((1, 1), (4, 4))
    assert weight_by_classes(halves) == 1
    assert class_counts_check(halves) == ["class 0: size 1, expected 2/4",
                                          "class 1: size 1, expected 2/4"]
    # a total that is not an integer is printed in lowest terms
    for endos, total in (((3,), "2/3"), ((6, 6), "2/3"), ((4, 8), "3/4")):
        split = regrouped((1,) * len(endos), endos)
        with pytest.raises(AssertionError, match=f"^class weights sum to a non-integer {total}$"):
            weight_by_classes(split)


def test_a_report_is_a_value_of_its_fields():
    _, rep = report_for("fan-out")
    witnesses = rep.witnesses
    # equal and alike in hash, pickled or copied, whatever its caches hold
    for other in (pickle.loads(pickle.dumps(rep)), copy.copy(rep), copy.deepcopy(rep)):
        assert other == rep and hash(other) == hash(rep) and type(other) is WitnessReport
    assert rep != rep.subject and rep.subject.point == pickle.loads(pickle.dumps(rep.subject.point))
    assert repr(rep).startswith("WitnessReport(subject=Subject(ctx=g:o -> o, y:o, term=")
    assert "_found" not in repr(rep) and repr(rep.ctx_degrees).startswith("Degrees(total=")
    with pytest.raises(AttributeError):
        rep.wit_plus = 3
    with pytest.raises(AttributeError):
        del rep.subject
    assert rep.wit_plus == len(witnesses) and rep.witnesses is witnesses


# verify_identities still takes a budget, fourth by position, for callers
# that pass one; it flows nowhere, and the report is the same whatever it
# holds.  The higher-order and third-order cuts, which once needed one,
# are exact.
def test_budget_flows_through():
    subjects = [("identity-redex", parse_entry(BY_NAME["identity-redex"]))]
    subjects += [(f"higher-order-cut-{n}", point_subject(*higher_order_cut_point(n)))
                 for n in (1, 2, 3)]
    subjects.append(("third-order-cut", point_subject(*third_order_cut_point())))
    for label, (ctx, term, _, point) in subjects:
        want = verify_identities(ctx, term, point)
        assert want.ok and want.wrel.value == want.report.wit_plus == 1, label
        for budget in (0, 1, 7, -1, "2"):
            got = verify_identities(ctx, term, point, budget)
            assert got == want and got.report.witnesses == want.report.witnesses, label


# A report is kept once for its point, whatever budget its callers pass.
def test_a_report_is_kept_once_per_budget_it_ran_under(cold_memo):
    subjects = [(name, parse_entry(BY_NAME[name])) for name in ("fan-out", "identity-redex")]
    subjects.append(("higher-order-cut", point_subject(*higher_order_cut_point())))
    for name, (ctx, term, _, point) in subjects:
        first, *rest = (verify_identities(ctx, term, point, b) for b in (None, 1, 2, 1))
        for rep in rest:
            assert rep.report.witnesses == first.report.witnesses, name
        kept = [key for key in term_memo(prepare(ctx, term, point).term)
                if key[0] == "witnesses"]
        assert len(kept) == 1, name


# An identity report is a value: its checks are a tuple, so it hashes,
# and equal reports are one member of a set.
def test_an_identity_report_is_hashable():
    ctx, term, _, point = point_subject(*symmetric_point(1))
    first, second = verify_identities(ctx, term, point), verify_identities(ctx, term, point)
    assert isinstance(first.checks, tuple)
    assert hash(first) == hash(second) and {first, second} == {first}
    assert len({first, verify_identities(ctx, term, point, expected=2)}) == 2


def test_verify_identities_pass():
    for name in ("one-term-two-witnesses", "fan-out", "redex-over-shared-pair",
                 "church-two-at-fan"):
        entry = BY_NAME[name]
        ctx, term, ty, point = parse_entry(entry)
        rep = verify_identities(ctx, term, point, expected=entry["expected"])
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
        report = positive_witnesses(prepare(ctx, term, point))
        if report.witnesses:
            assert esp_explicit(report) == listed_esp(report), (entry["name"], point)
            compared += 1
    assert compared >= 20


# Subjects of the bag enumerator's differential test that no seeded draw
# reaches, kept out of corpus/points.json, which the benchmark reads:
# label -> (term, point context, typing context[, result]).
HAND = {
    # x's one occurrence takes the bag's value under a non-canonical label
    "non-canonical-label": (("x (\\h:o->o. h (h y))",
                             {"x": "[[[[]-o*,[*]-o*]-o*]-o*]", "y": "[]"},
                             "x:((o->o)->o)->o, y:o")),
    # the same, with x the bare-variable argument of a redex
    "non-canonical-cut": (("(\\k:((o->o)->o)->o. k (\\h:o->o. h (h y))) x",
                           {"x": "[[[[]-o*,[*]-o*]-o*]-o*]", "y": "[]"},
                           "x:((o->o)->o)->o, y:o")),
    # f g leaves f's last argument untaken, so the spine meets the third-order
    # result up to positive morphisms, not only its canonical type
    "eta-short-spine": (("f g", {"f": "[[[*]-o*]-o[[[]-o*,[*]-o*]-o*]-o*]", "g": "[[*]-o*]"},
                         "f:(o->o)->((o->o)->o)->o, g:o->o", "[[[]-o*,[*]-o*]-o*]-o*")),
    # the redex's bare-variable argument picks g's two values in either order
    "redex-over-two-values": (("(\\h:o->o. f (h y)) g",
                               {"f": "[[*,*]-o*]", "g": "[[]-o*,[*]-o*]", "y": "[*]"},
                               "f:o->o, g:o->o, y:o")),
    # and here its three values, in every order
    "redex-over-three-values": (("(\\h:o->o. f (h y) (h y)) g",
                                 {"f": "[[*]-o[*,*]-o*]", "g": "[[]-o*,[*]-o*,[*,*]-o*]",
                                  "y": "[*,*,*]"},
                                 "f:o->o->o, g:o->o, y:o")),
}


def corpus_subjects():
    for entry in load_corpus():
        ctx, term, _, point = parse_entry(entry)
        yield entry["name"], ctx, term, point


def generated_subjects():
    for entry, ctx, term, _, point in generated_points():
        yield entry["name"], ctx, term, point


def family_subjects():
    points = ([(f"symmetric-{n}", symmetric_point(n)) for n in range(1, 6)]
              + [(f"fanout-{n}", fanout_point(n)) for n in range(1, 5)]
              + [(f"church-{k}", church_point(k)) for k in range(1, 6)]
              + [(f"distinct-g-{k}", distinct_g_point(k)) for k in range(1, 5)])
    for label, point in points:
        ctx, term, _, pt = point_subject(*point)
        yield label, ctx, term, pt


def hand_subjects():
    for label, point in HAND.items():
        ctx, term, _, pt = point_subject(*point)
        yield label, ctx, term, pt


def copies_subjects():
    for label, ctx, term, pt, _ in copies_in_every_order():
        yield label, ctx, term, pt


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
    for label, ctx, term, point in subjects():
        subject = prepare(ctx, term, point)
        rep = positive_witnesses(subject)
        gamma, a = subject.gamma, subject.result
        got = [(w.theta, w.derivation) for w in rep.witnesses]
        want = [(theta, d) for theta, _, d in per_target_witnesses(ctx, subject.term, gamma, a)]
        assert got == want, label
        for theta, d in got:
            assert check_derivation(ctx, subject.term, d), label
            assert rt_context(gamma.shape(), d) == theta, label
        found += len(got)
    assert found >= least, found


def exactness_subjects() -> dict:
    """{label: (ctx, term, type, point)}: the corpus, HAND, the redexes of
    redex_subjects, and the higher-order and third-order cuts."""
    out = {entry["name"]: parse_entry(entry) for entry in load_corpus()}
    out.update((label, point_subject(*point)) for label, point in HAND.items())
    out.update((label, tuple(rest)) for label, *rest in redex_subjects())
    out.update((f"higher-order-cut-{n}", point_subject(*higher_order_cut_point(n)))
               for n in (1, 2))
    out["third-order-cut"] = point_subject(*third_order_cut_point())
    return out


def test_the_budget_free_enumeration_is_exact():
    # every report is exact, a redex's witnesses read back from its normal
    # form's.  Two listings find the same derivations in the same order:
    # the enumerator at each rigid point the canonical one reaches, and the
    # split-guessing oracle, which tries every cut whose sequences are no
    # longer than the point's longest bag or widest label, and does not
    # normalize
    subjects = exactness_subjects()
    found = 0
    for label, (ctx, term, _, point) in subjects.items():
        subject = prepare(ctx, term, point)
        rep = positive_witnesses(subject)
        got = [w.derivation for w in rep.witnesses]
        gamma, a = subject.gamma, subject.result
        assert got == [d for _, _, d in per_target_witnesses(ctx, subject.term, gamma, a)], label
        cache: dict = {}
        split = per_target_witnesses(
            ctx, subject.term, gamma, a,
            lambda *args: split_witnesses(*args, point_width(point), cache=cache))
        assert got == [d for _, _, d in split], label
        found += len(got)
    assert len(subjects) >= 300 and found >= 80, (len(subjects), found)


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
        for label, ctx, term, point in subjects():
            rep = verify_identities(ctx, term, point)
            assert rep.ok, label
            derivations = [w.derivation for w in rep.report.witnesses[:6]]
            for r1 in derivations:
                for r2 in derivations:
                    count_derivation_morphisms(r1, r2)
    assert len(sizes) >= 500 and max(sizes) >= 6, (len(sizes), max(sizes))


def test_witness_label_outside_canonical_form():
    point = HAND["non-canonical-label"]
    ctx, term, _, pt = point_subject(*point)
    rep = positive_witnesses(prepare(ctx, term, pt))
    assert rep.wit_plus == 1
    (label,) = rep.witnesses[0].theta.lookup("x")
    assert label == parse_itype("<<<*>-o*,<>-o*>-o*>-o*")
    assert not is_canonical(label)
    assert verify_identities(ctx, term, pt).ok


def test_an_eta_short_spine_meets_its_result_up_to_symmetry():
    # a negative morphism takes f's label to one whose type after g lists
    # the inner domain in the other order: isomorphic to the result, but no
    # positive morphism takes it there, so it is no witness
    point = HAND["eta-short-spine"]
    ctx, term, _, pt = point_subject(*point)
    rep = verify_identities(ctx, term, pt)
    assert rep.ok and rep.wrel.value == rep.report.wit_plus == 1
    (label,) = rep.report.witnesses[0].theta.lookup("f")
    reversed_label = parse_itype("<<*>-o*>-o<<<*>-o*,<>-o*>-o*>-o*")
    assert reversed_label in neg_targets_it(label)
    assert canonicalize_it(reversed_label.codomain) == rep.report.witnesses[0].alpha


def test_redex_cut_over_distinct_values():
    for label, count in (("redex-over-two-values", 2), ("redex-over-three-values", 6)):
        ctx, term, _, pt = point_subject(*HAND[label])
        rep = verify_identities(ctx, term, pt, expected=count)
        assert rep.ok, label
        assert rep.report.wit_plus == count, label


def test_copies_in_every_order_are_classes_of_their_own():
    for label, ctx, term, pt, coefficient in copies_in_every_order():
        rep = verify_identities(ctx, term, pt, expected=coefficient)
        assert rep.ok, label
        assert len(rep.report.classes) == rep.report.wit_plus == coefficient, label


# verify counts on the normal form's derivations, which the witnesses
# contract to; counting on the redexes' own derivations, read back, the
# orders of the argument copies collapse into one class, and the class
# checks fail on every such subject, though each degree is counted through
# the contraction.  The memos start empty, or the reports the session kept
# would answer.
def test_a_class_key_before_contraction_fails_the_checks(monkeypatch, cold_memo):
    normal_witnesses = thinspan.collapse.normal_witnesses

    def uncontracted(term, theta, alpha):
        return read_back(*normal_witnesses(term, theta, alpha)), None

    monkeypatch.setattr(thinspan.collapse, "normal_witnesses", uncontracted)
    monkeypatch.setattr(thinspan.collapse, "endo_count",
                        lambda r: count_derivation_morphisms(r, r))
    for label, ctx, term, pt, _ in copies_in_every_order():
        rep = verify_identities(ctx, term, pt)
        failed = {c.name for c in rep.checks if not c.ok}
        assert failed == {"class-weights-sum", "class-sizes"}, label


def redex_points():
    """(label, ctx, term, point): the corpus redexes, the Church numerals up
    to k = 4, the Church towers up to m = 5, the redexes whose copies meet
    in every order, and the redexes among the small terms at their points."""
    for entry in load_corpus():
        ctx, term, _, point = parse_entry(entry)
        if not is_beta_normal(term):
            yield entry["name"], ctx, term, point
    for label, family, top in (("church", church_point, 4), ("tower", church_tower_point, 5)):
        for n in range(1, top + 1):
            ctx, term, _, point = point_subject(*family(n))
            yield f"{label}-{n}", ctx, term, point
    for label, ctx, term, point, _ in copies_in_every_order():
        yield label, ctx, term, point
    ctx = parse_context("f:o->o, g:o->o->o, y:o")
    for term in small_terms(ctx, Base(), 8):
        if not is_beta_normal(term):
            for point in small_points(ctx, term):
                yield term_to_text(term), ctx, term, point


def read_back_triple_count(report: WitnessReport) -> int:
    """The triple count taken on the witnesses read back, each at its own
    context and result: per witness, the negative context morphisms into
    its context, one variable at a time, times the positive morphisms out
    of its result."""
    gamma, a = report.subject.gamma, report.subject.result
    counts: dict = {}
    return sum(prod(count_negative_seq(seq, w.theta.lookup(x), counts)
                    for x, seq, _ in gamma.entries) * count_positive_it(w.alpha, a, counts)
               for w in report.witnesses)


# verify counts on the normal form's derivations and reads no witness
# back, so its checks no longer see the read-back.  Reading back must
# still keep every point up to polarized symmetry, negative at a context
# variable and positive at the result: the triple count taken on the
# witnesses it lists is the report's.
def test_the_read_back_keeps_the_triple_count():
    seen = {"subjects": 0, "witnesses": 0}
    for label, ctx, term, point in redex_points():
        rep = verify_identities(ctx, term, point)
        assert rep.ok, (label, point)
        report = rep.report
        assert read_back_triple_count(report) == esp_explicit(report) == report.esp, label
        seen["subjects"] += 1
        seen["witnesses"] += report.wit_plus
    assert seen == {"subjects": 3988, "witnesses": 396}, seen


def test_verify_reads_no_witness_back(monkeypatch, cold_memo):
    def refuse(*args):
        raise AssertionError("a witness read back on verify's path")

    monkeypatch.setattr(thinspan.derivation, "_read_back", refuse)
    for entry in load_corpus():
        ctx, term, _, point = parse_entry(entry)
        assert verify_identities(ctx, term, point).ok, entry["name"]
    for label, ctx, term, point in redex_points():
        assert verify_identities(ctx, term, point).ok, (label, point)
    # listing still reads back
    ctx, term, _, point = point_subject(*church_point(2))
    rep = verify_identities(ctx, term, point)
    assert rep.ok and rep.report.wit_plus == 1
    with pytest.raises(AssertionError, match="read back"):
        rep.report.witnesses


def multiset_point(entries: dict, result: str = "*") -> PointSpec:
    """A point built as it is given, with no check against a context."""
    return PointSpec(tuple((x, parse_mset(m)) for x, m in entries.items()), parse_mit(result))


GY = {"g": "[[*]-o*]", "y": "[*]"}

# Each input is checked once, where the query is prepared; a caller sees
# the same exception and message as when every layer checked its own
# inputs.
MALFORMED = [
    ("unbound variable", "g z", multiset_point(GY),
     TypeCheckError, "unbound variable 'z'"),
    ("unannotated binder", "\\x. g x", multiset_point(GY),
     TypeCheckError, "binder 'x' lacks an annotation and no expected type is available"),
    ("ill-typed application", "y g", multiset_point(GY),
     TypeCheckError, "cannot apply y of base type to g"),
    ("point names an unbound variable", "g y", multiset_point({**GY, "z": "[*]"}),
     RefinementError, "point mentions variable 'z' not bound in the context"),
    ("entry does not refine", "g y", multiset_point({**GY, "y": "[[]-o*]"}),
     RefinementError, "entry []-o* for variable 'y' does not refine o"),
    ("result does not refine", "g y", multiset_point(GY, "[]-o*"),
     RefinementError, "result []-o* does not refine o"),
]


@pytest.mark.parametrize("term, point, error, message",
                         [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED])
def test_malformed_subjects_raise_as_before(term, point, error, message):
    ctx = parse_context("g:o->o, y:o")
    with pytest.raises(error) as raised:
        verify_identities(ctx, parse_term(term), point)
    assert type(raised.value) is error
    assert str(raised.value) == message
