"""The names the benchmark under perfbench/ relies on stay in place, and the
work its ladders measure stays small.

The benchmark's tracer wraps names imported into thinspan.collapse and
thinspan.wrel, and reads the coefficient off verify_identities; a refactor
that moves either would break the benchmark without failing any other test.
The work guards refuse listings of hom-sets (thinspan.groupoid), of
derivation morphisms (the test oracle in reference) and of reachable
contexts, refuse to build any type morphism, and count enumerator and
coefficient subproblems, instead of timing anything.  Listing takes
factorial time, so no query calls a listing; tests/test_imports.py checks
that by parsing the package, which the guards that patch the listings
confirm by running queries.
"""

import importlib
import sys
import weakref
from math import factorial

import pytest

import thinspan.collapse
import thinspan.derivation
import thinspan.groupoid
import thinspan.interning
import thinspan.rigidtypes
import thinspan.symmetry
import thinspan.syntax
import thinspan.wrel
from thinspan.collapse import prepare, verify_identities
from thinspan.derivation import RApp, RVar
from thinspan.rigidtypes import STAR, IArrow, canonicalize_point
from thinspan.syntax import is_beta_normal
from thinspan.wrel import wrel_coefficient

import reference
from support import (
    chain_point, church_point, clear_memos, distinct_g_point, entry_budget, fanout_point,
    load_corpus, load_tracing, parse_entry, point_subject, symmetric_point,
)

def test_traced_names_resolve():
    wrapped = load_tracing().WRAPPED
    assert wrapped
    for module, name, _ in wrapped:
        target = importlib.import_module(f"thinspan.{module}")
        assert callable(getattr(target, name, None)), f"thinspan.{module}.{name}"


# The tracer installs on the live modules, and a query reaches the layers it
# times through the names it replaces: collapse calls the partition and the
# class degrees through its own module globals.
def test_tracer_installs_and_sees_every_layer(monkeypatch, cold_memo):
    tracing = load_tracing()
    modules = {"collapse": thinspan.collapse, "wrel": thinspan.wrel}
    for module, name, _ in tracing.WRAPPED:
        # put back when the test ends, once the tracer has replaced it
        monkeypatch.setattr(modules[module], name, getattr(modules[module], name))
    tracer = tracing.Tracer()
    tracer.install(modules)
    ctx, term, _, pt = point_subject(*fanout_point(2))
    checked = verify_identities(ctx, term, pt)
    assert checked.ok
    names = [span[3] for span in tracer.spans]
    assert {"positive_witnesses", "esp_explicit", "wrel_coefficient"} <= set(names)
    assert names.count("partition_by_symmetry") == 1
    assert names.count("endo_count") == len(checked.report.classes)


def counting_calls(fn, seen):
    def counted(*args):
        seen.append(args)
        return fn(*args)
    return counted


# A query is prepared once: verify_identities annotates the term and checks
# the point once, and neither the coefficient nor the witness enumeration
# checks them again.  Each name is counted in every module that imports it,
# so a call from syntax or rigidtypes to itself is not counted.  The
# triple count reads the contexts the witness report read to sort its
# witnesses, so each witness's context is read once.
@pytest.mark.parametrize("name", ["fanout-2", "church-two-twice", "shared-head-two-ways"])
def test_a_query_is_prepared_once(monkeypatch, cold_memo, name):
    if name == "fanout-2":
        ctx, term, _, point = point_subject(*fanout_point(2))
        budget = None
    else:
        entry = next(e for e in load_corpus() if e["name"] == name)
        ctx, term, _, point = parse_entry(entry)
        budget = None if is_beta_normal(term) else entry_budget(entry)
    calls = {}
    for module in (thinspan.collapse, thinspan.derivation, thinspan.symmetry, thinspan.wrel):
        for fn in ("annotate", "canonicalize_point", "ctx_refines"):
            if hasattr(module, fn):
                key = f"{module.__name__.split('.')[-1]}.{fn}"
                calls[key] = []
                monkeypatch.setattr(module, fn, counting_calls(getattr(module, fn), calls[key]))
    contexts = []
    monkeypatch.setattr(thinspan.collapse, "rt_context",
                        counting_calls(thinspan.collapse.rt_context, contexts))
    checked = verify_identities(ctx, term, point, budget)
    assert checked.ok
    assert len(contexts) == checked.report.wit_plus
    count = {key: len(seen) for key, seen in calls.items()}
    assert sum(n for key, n in count.items() if key.endswith(".annotate")) == 1, count
    assert sum(n for key, n in count.items() if key.endswith(".canonicalize_point")) == 1, count
    assert count.get("wrel.annotate", 0) == 0, count
    assert count.get("derivation.ctx_refines", 0) == 0, count


def test_coefficient_is_a_plain_int():
    entry = load_corpus()[0]
    ctx, term, _, point = parse_entry(entry)
    value = verify_identities(ctx, term, point).wrel.value
    assert type(value) is int
    assert value == entry["expected"]


def counting(fn, sizes):
    def wrapped(*args):
        out = fn(*args)
        sizes.append(len(out))
        return out
    return wrapped


def refuse(*args):
    raise AssertionError("morphisms listed where they are counted")


# Listing one variable's hom-set at a time, the triple count would go
# through 6! morphisms for y at symmetric n = 6, 3!*4!*2^3 for g at fan-out
# n = 3 and 7! for g at Church k = 7; it counts them without listing any.
# The memos start empty, so each query counts its triples afresh instead
# of reading back a count an earlier test kept.
@pytest.mark.parametrize("point, budget", [
    (symmetric_point(6), None),
    (fanout_point(3), None),
    (church_point(7), 7),
], ids=["symmetric-6", "fanout-3", "church-7"])
def test_no_factorial_products_of_morphisms(monkeypatch, cold_memo, point, budget):
    for name in ("enumerate_homs_ctx", "enumerate_homs_it"):
        monkeypatch.setattr(thinspan.collapse, name, refuse)
    ctx, term, _, pt = point_subject(*point)
    assert verify_identities(ctx, term, pt, budget).ok


# 12 copies of [*]-o* have 12! = 479,001,600 negative entry morphisms.
def test_entry_count_past_what_listing_reaches(monkeypatch):
    for name in ("enumerate_homs_ctx", "enumerate_homs_seq", "enumerate_homs_it"):
        monkeypatch.setattr(thinspan.groupoid, name, refuse)
    seq = (IArrow((STAR,), STAR),) * 12
    assert thinspan.symmetry.count_negative_seq(seq, seq) == factorial(12)


def test_degrees_and_witness_morphisms_enumerate_nothing(monkeypatch):
    for name in ("enumerate_homs_ctx", "enumerate_homs_seq", "enumerate_homs_it"):
        monkeypatch.setattr(thinspan.groupoid, name, refuse)
    ctx, term, ty, point = point_subject(*fanout_point(3))
    gamma, a = canonicalize_point(point, ctx, ty)
    assert thinspan.symmetry.sym_degrees_ctx(gamma).total == 1152 * 24
    assert thinspan.symmetry.sym_degrees_it(a, ty).total == 1
    thetas = thinspan.symmetry.neg_targets_ctx(gamma)
    assert len(thetas) == 35


# A type's order key, canonical form and degrees and a derivation's result
# type, contractum and endomorphism count are kept on the node, and the
# enumerator keeps each start context's sorted derivations: asked again
# while the first report holds its nodes, a query contracts nothing, renders
# no derivation and computes no degree.
def test_repeated_query_recomputes_no_fact():
    bodies = {thinspan.derivation.contract.__wrapped__.__code__,
              thinspan.derivation.resource_to_text.__code__,
              thinspan.symmetry._degrees_it.__wrapped__.__code__}
    ran = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in bodies:
            ran.append(frame.f_code.co_name)

    for point, witnesses in ((symmetric_point(3), 1), (fanout_point(2), 2)):
        ctx, term, _, pt = point_subject(*point)
        first = verify_identities(ctx, term, pt)
        assert first.ok and first.report.wit_plus == witnesses
        ctx, term, _, pt = point_subject(*point)
        sys.setprofile(profile)
        try:
            second = verify_identities(ctx, term, pt)
        finally:
            sys.setprofile(None)
        assert second.ok and second.report.witnesses == first.report.witnesses
        assert ran == [], point


# A repeated query is answered from what the first one kept: its texts map
# to what they parsed to, and its witness report and triple count sit in
# the term's memo.  So, parsed again as the benchmark parses it, it
# tokenizes no text, enumerates nothing, reads no witness's context, forms
# no class and counts no morphism.  The maps from text hold nodes weakly,
# so the first run's results are held while the second runs.
@pytest.mark.parametrize("name", [e["name"] for e in load_corpus()])
def test_a_repeated_query_reads_back_what_it_kept(name):
    entry = next(e for e in load_corpus() if e["name"] == name)
    watched = {thinspan.syntax._tokenize.__code__: "_tokenize",
               thinspan.rigidtypes._it_tokenize.__code__: "_it_tokenize",
               thinspan.derivation.rt_context.__code__: "rt_context",
               thinspan.derivation._enum_raw.__code__: "_enum_raw",
               thinspan.derivation.partition_by_symmetry.__code__: "partition_by_symmetry",
               thinspan.derivation.endo_count.__wrapped__.__code__: "endo_count",
               thinspan.symmetry.count_negative_seq.__code__: "count_negative_seq"}
    ran = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            ran.append(watched[frame.f_code])

    def query():
        ctx = thinspan.syntax.parse_context(entry.get("ctx", ""))
        parsed = thinspan.syntax.parse_term(entry["term"])
        expected = (thinspan.syntax.parse_simple_type(entry["type"]) if "type" in entry
                    else None)
        term, ty = thinspan.syntax.annotate(ctx, parsed, expected)
        point = thinspan.rigidtypes.point_from_json(entry["point"], ctx, ty)
        budget = None if is_beta_normal(term) else entry_budget(entry)
        return parsed, expected, verify_identities(ctx, term, point, budget)

    first = query()
    sys.setprofile(profile)
    try:
        second = query()
    finally:
        sys.setprofile(None)
    assert first[2].ok and second[2].ok
    assert second[2].report.witnesses == first[2].report.witnesses
    assert second[2].checks == first[2].checks
    assert ran == [], ran


# Each map from text stays within its bound: every parser keeps at most
# TEXTS_KEPT texts.
def test_the_maps_from_text_stay_bounded():
    bound = thinspan.interning.TEXTS_KEPT

    def spaced(i: int, piece: str) -> str:
        # i's binary digits place the spaces
        return "".join(f" {piece}" if d == "1" else piece for d in f"{i:b}")

    texts = {thinspan.syntax.parse_context: lambda i: f"v{i}:o",
             thinspan.syntax.parse_term: lambda i: f"v{i} w{i}",
             thinspan.syntax.parse_simple_type: lambda i: spaced(i, "o -> ") + "o",
             thinspan.rigidtypes.parse_mit: lambda i: "[" + spaced(i, "*,") + "*]-o*",
             thinspan.rigidtypes.parse_mset: lambda i: "[" + spaced(i, "*,") + "*]"}
    for parse, text in texts.items():
        for i in range(bound + 10):
            parse(text(i))
        assert parse.cache_info().currsize == bound, parse.__name__


def refuse_morphisms(monkeypatch):
    def refuse_built(self):
        raise AssertionError("a type morphism built on the query path")
    # every morphism but an identity at the base type holds a SeqMorphism
    monkeypatch.setattr(thinspan.groupoid.SeqMorphism, "__post_init__", refuse_built)


def refuse_listings(monkeypatch):
    monkeypatch.setattr(reference, "enumerate_derivation_morphisms", refuse)
    for name in ("enumerate_homs_ctx", "enumerate_homs_seq", "enumerate_homs_it"):
        monkeypatch.setattr(thinspan.groupoid, name, refuse)


# Class degrees count derivation morphisms, a redex by its contractum, and
# list none of them nor any hom-set; no query builds a type morphism at all.
# The one class endomorphism group at symmetric n = 8 has 8! elements;
# listing the morphisms of the Church k = 9 witness went through 9!
# permutations.  The memos start empty, so every query forms and counts its
# classes under the refusals.
def test_classes_list_no_morphisms(monkeypatch, cold_memo):
    refuse_listings(monkeypatch)
    refuse_morphisms(monkeypatch)
    for point in (symmetric_point(8), fanout_point(3)):
        ctx, term, _, pt = point_subject(*point)
        assert verify_identities(ctx, term, pt).ok
    for k in range(1, 10):
        ctx, term, _, pt = point_subject(*church_point(k))
        rep = verify_identities(ctx, term, pt, k)
        assert rep.ok and rep.wrel.value == 1, k
    corpus = load_corpus()
    assert len(corpus) == 20
    for entry in corpus:
        ctx, term, _, point = parse_entry(entry)
        budget = None if is_beta_normal(term) else entry_budget(entry)
        rep = verify_identities(ctx, term, point, budget, expected=entry["expected"])
        assert rep.ok, entry["name"]


# The classes are keyed by the multiset collapse of each witness's
# contractum: forming them counts no derivation morphism, and each class's
# degree is counted once.  Distinct-g k = 6 has 720 witnesses in one class.
# The memos start empty: a query the session ran before reads its classes
# back and counts none.
def test_partition_counts_no_morphisms(monkeypatch, cold_memo):
    partition = thinspan.derivation.partition_by_symmetry
    endo_count = thinspan.derivation.endo_count
    endos = []

    def keyed(derivations):
        with monkeypatch.context() as m:
            m.setattr(thinspan.derivation, "_count_contracted", refuse)
            return partition(derivations)

    def counted(r):
        endos.append(r)
        return endo_count(r)

    monkeypatch.setattr(thinspan.collapse, "partition_by_symmetry", keyed)
    monkeypatch.setattr(thinspan.collapse, "endo_count", counted)
    subjects = []
    for entry in load_corpus():
        ctx, term, _, point = parse_entry(entry)
        subjects.append((entry["name"], ctx, term, point,
                         None if is_beta_normal(term) else entry_budget(entry)))
    ctx, term, _, point = point_subject(*distinct_g_point(6))
    subjects.append(("distinct-g-6", ctx, term, point, None))
    for label, ctx, term, point, budget in subjects:
        endos.clear()
        rep = verify_identities(ctx, term, point, budget)
        assert rep.ok, label
        assert len(endos) == len(rep.report.classes), label
    assert rep.report.wit_plus == factorial(6) and len(rep.report.classes) == 1


# g^{<*^12>-o*} <y^*, ..., y^*> has 12! = 479,001,600 endomorphisms.
def test_class_degree_past_what_listing_reaches(monkeypatch):
    refuse_listings(monkeypatch)
    r = RApp(RVar("g", IArrow((STAR,) * 12, STAR)), (RVar("y", STAR),) * 12)
    assert thinspan.derivation.endo_count(r) == factorial(12)


def test_larger_rungs_verify():
    for n in (7, 8, 40):
        ctx, term, _, point = point_subject(*symmetric_point(n))
        rep = verify_identities(ctx, term, point)
        assert rep.ok and rep.wrel.value == 1, n
    ctx, term, _, point = point_subject(*chain_point(150))
    rep = verify_identities(ctx, term, point)
    assert rep.ok and rep.wrel.value == 1
    ctx, term, _, point = point_subject(*distinct_g_point(6))
    rep = verify_identities(ctx, term, point)
    assert rep.ok and rep.wrel.value == factorial(6)
    for n in (4, 6, 8):
        ctx, term, _, point = point_subject(*fanout_point(n))
        rep = verify_identities(ctx, term, point)
        assert rep.ok and rep.wrel.value == 0, n
    ctx, term, _, point = point_subject(*church_point(9))
    rep = verify_identities(ctx, term, point, 9)
    assert rep.ok and rep.wrel.value == 1


def refuse_targets(*args):
    raise AssertionError("reachable contexts listed on the query path")


# The witnesses are enumerated once over the context's bags, never once per
# reachable context: fan-out n = 4 reaches 126 contexts and n = 8 24,310.
# The memos start empty, so every query enumerates and counts afresh.
def test_reachable_contexts_are_not_listed(monkeypatch, cold_memo):
    for module in (thinspan.symmetry, thinspan.collapse):
        monkeypatch.setattr(module, "neg_targets_ctx", refuse_targets)
    for n in range(1, 5):
        ctx, term, _, point = point_subject(*fanout_point(n))
        assert verify_identities(ctx, term, point).ok, n
    for entry in load_corpus():
        ctx, term, _, point = parse_entry(entry)
        budget = None if is_beta_normal(term) else entry_budget(entry)
        rep = verify_identities(ctx, term, point, budget, expected=entry["expected"])
        assert rep.ok, entry["name"]


# A witness keeps its rigid point, so no query builds a polarized morphism to
# it, however many distinct contexts its witnesses have.  The memos start
# empty, so every query counts its triples afresh.
@pytest.mark.parametrize("point, contexts", [
    (fanout_point(2), 2),
    (fanout_point(3), 1),
    (fanout_point(8), 0),
    (distinct_g_point(3), 6),
], ids=["fanout-2", "fanout-3", "fanout-8", "distinct-g-3"])
def test_negative_morphisms_per_witness_context(monkeypatch, cold_memo, point, contexts):
    refuse_morphisms(monkeypatch)
    ctx, term, _, pt = point_subject(*point)
    rep = verify_identities(ctx, term, pt)
    assert rep.ok
    assert len({w.theta for w in rep.report.witnesses}) == contexts



def enumerator_misses(monkeypatch, ctx, term, point, budget=None, coefficient=1):
    """Verify at the point from cold memos, checking the coefficient; the
    number of subproblems the enumerator solved."""
    sizes = []
    clear_memos()
    with monkeypatch.context() as m:
        m.setattr(thinspan.derivation, "_enum_raw",
                  counting(thinspan.derivation._enum_raw, sizes))
        rep = verify_identities(ctx, term, point, budget)
    assert rep.ok and rep.wrel.value == coefficient
    return len(sizes)


# church-two-twice guesses the cut at its outer redex, and its context gives
# g four elements.  Guessing every split of the context among the subterms
# missed the enumerator cache 4618 times at budget 3 and 38,485 times at
# budget 4; splitting only among the subterms that use each variable, 380
# and 2,763 times.
def test_cut_guessing_stays_small(monkeypatch):
    entry = next(e for e in load_corpus() if e["name"] == "church-two-twice")
    ctx, term, _, point = parse_entry(entry)
    for budget, bound in ((3, 600), (4, 4000)):
        misses = enumerator_misses(monkeypatch, ctx, term, point, budget)
        assert misses <= bound, (budget, misses)


# Splitting the context among the subterms that use each variable missed
# 10,451 times at fan-out n = 5 and 486 times at distinct-g k = 4.
@pytest.mark.parametrize("point, coefficient, bound", [
    (fanout_point(5), 0, 3000),
    (distinct_g_point(4), 24, 200),
], ids=["fanout-5", "distinct-g-4"])
def test_threaded_enumeration_stays_small(monkeypatch, point, coefficient, bound):
    ctx, term, _, pt = point_subject(*point)
    misses = enumerator_misses(monkeypatch, ctx, term, pt, coefficient=coefficient)
    assert misses <= bound, misses


# Guessing every decomposition of every bag among the argument copies made
# 4.1 M coefficient calls at distinct-g k = 5 and 2,364 uncached ones at
# fan-out n = 8; threading the leftovers solves 42 and 37 subproblems.
@pytest.mark.parametrize("point, coefficient", [
    (distinct_g_point(5), 120),
    (fanout_point(8), 0),
], ids=["distinct-g-5", "fanout-8"])
def test_threaded_coefficient_stays_small(monkeypatch, point, coefficient):
    ctx, term, _, pt = point_subject(*point)
    sizes = []
    clear_memos()
    monkeypatch.setattr(thinspan.wrel, "_leftovers_raw",
                        counting(thinspan.wrel._leftovers_raw, sizes))
    assert wrel_coefficient(prepare(ctx, term, pt)).value == coefficient
    assert len(sizes) <= 200, len(sizes)


# What a query's input needs is derived once per node and kept on it, and
# a parsed point keeps its check.  So a repeated query, parsed again as the
# benchmark parses it, normalizes nothing, renames no binder and extends no
# typing context, and checks its new point once, in point_from_json.  Even
# the first time, the annotate in prepare reuses the type the caller's
# annotate found.  church-two-twice and nested-redex reach wrel's
# beta_normalize; eta-expanded-identity has a binder and a given type.
@pytest.mark.parametrize("name", ["church-two-twice", "nested-redex", "eta-expanded-identity",
                                  "shared-head-two-ways"])
def test_a_repeated_query_checks_its_input_once(name):
    entry = next(e for e in load_corpus() if e["name"] == name)
    watched = {thinspan.syntax._nf.__wrapped__.__code__: "_nf",
               thinspan.syntax._freshen.__code__: "_freshen",
               thinspan.syntax.annotate.__code__: "annotate",
               thinspan.syntax.TypingContext.extend.__code__: "extend",
               thinspan.rigidtypes._rigid_point.__code__: "_rigid_point"}
    runs = []
    for _ in range(2):
        ran = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                ran.append(watched[frame.f_code])

        sys.setprofile(profile)
        try:
            ctx, term, _, point = parse_entry(entry)
            budget = None if is_beta_normal(term) else entry_budget(entry)
            assert verify_identities(ctx, term, point, budget).ok
        finally:
            sys.setprofile(None)
        runs.append(ran)
    first, second = runs
    # parse_entry's annotate, then prepare's, which extends nothing
    second_annotate = [i for i, n in enumerate(first) if n == "annotate"][1]
    assert first[second_annotate + 1:second_annotate + 2] != ["extend"], first
    assert first.count("_rigid_point") == 1, first
    assert second == ["annotate", "_rigid_point", "annotate"], second


# What a query kept lives as long as its text is kept: once TEXTS_KEPT
# other queries have been read, the first ones' parsed terms are dropped,
# and with them the annotated copies they were verified on and all that
# those kept.  The queries are renamed as the benchmark's stream renames
# them, each context variable with a suffix of its own, and beta-normal,
# so that each is quick.
def test_a_dropped_query_keeps_nothing_alive():
    bound = thinspan.interning.TEXTS_KEPT
    expected = thinspan.syntax.parse_simple_type("o -> o")
    first = []
    for i in range(bound + 10):
        ctx = thinspan.syntax.parse_context(f"g_{i}:o->o")
        parsed = thinspan.syntax.parse_term(f"\\x. g_{i} x")
        term, ty = thinspan.syntax.annotate(ctx, parsed, expected)
        point = thinspan.rigidtypes.point_from_json(
            {"ctx": {f"g_{i}": "[[*]-o*]"}, "type": "[*]-o*"}, ctx, ty)
        assert verify_identities(ctx, term, point).wrel.value == 1
        if i < 10:
            assert term is not parsed
            first += [weakref.ref(parsed), weakref.ref(term)]
    assert [ref() for ref in first] == [None] * len(first)


# The facts keep no dead node alive: once a query's caches are filled, running
# it again leaves the intern table as it was.
@pytest.mark.parametrize("name", ["church-two-twice", "lambda-argument-redex", "fan-out"])
def test_a_repeated_query_keeps_the_intern_table_bounded(name):
    entry = next(e for e in load_corpus() if e["name"] == name)
    sizes = []
    for _ in range(3):
        ctx, term, _, point = parse_entry(entry)
        assert verify_identities(ctx, term, point, entry_budget(entry)).ok
        del ctx, term, point
        sizes.append(len(thinspan.interning._table))
    assert sizes[1] == sizes[2], sizes
