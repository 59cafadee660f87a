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

import gc
import importlib
import subprocess
import sys
import weakref
from itertools import permutations
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
from thinspan.interning import memo
from thinspan.rigidtypes import STAR, IArrow, canonicalize_point
from thinspan.syntax import beta_normalize, free_vars
from thinspan.wrel import wrel_coefficient

import reference
from support import (
    built_nodes, chain_point, child_env, church_point, church_tower_point, clear_memos,
    distinct_g_point, fanout_point, higher_order_cut_point, third_order_cut_point,
    third_order_label_point, load_corpus, load_tracing, parse_entry, point_subject,
    positive_source_point, stars, symmetric_point, WORKLOADS_PATH,
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
    def counted(*args, **kwargs):
        seen.append(args)
        return fn(*args, **kwargs)
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
    else:
        entry = next(e for e in load_corpus() if e["name"] == name)
        ctx, term, _, point = parse_entry(entry)
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
    checked = verify_identities(ctx, term, point)
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
@pytest.mark.parametrize("point", [symmetric_point(6), fanout_point(3), church_point(7)],
                         ids=["symmetric-6", "fanout-3", "church-7"])
def test_no_factorial_products_of_morphisms(monkeypatch, cold_memo, point):
    for name in ("enumerate_homs_ctx", "enumerate_homs_it"):
        monkeypatch.setattr(thinspan.collapse, name, refuse)
    ctx, term, _, pt = point_subject(*point)
    assert verify_identities(ctx, term, pt).ok


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
# type and endomorphism count are kept on the node, and the witness report
# on the term: asked again while the first report holds its nodes, a query
# reads no derivation back, renders none and computes no degree.
def test_repeated_query_recomputes_no_fact():
    bodies = {thinspan.derivation._read_back.__code__,
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
        return parsed, expected, verify_identities(ctx, term, point)

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
    monkeypatch.setattr(thinspan.groupoid.SeqMorphism, "_check", refuse_built)


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
        rep = verify_identities(ctx, term, point, expected=entry["expected"])
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
            m.setattr(thinspan.derivation, "_count_morphisms", refuse)
            return partition(derivations)

    def counted(r):
        endos.append(r)
        return endo_count(r)

    monkeypatch.setattr(thinspan.collapse, "partition_by_symmetry", keyed)
    monkeypatch.setattr(thinspan.collapse, "endo_count", counted)
    subjects = []
    for entry in load_corpus():
        ctx, term, _, point = parse_entry(entry)
        subjects.append((entry["name"], ctx, term, point))
    ctx, term, _, point = point_subject(*distinct_g_point(6))
    subjects.append(("distinct-g-6", ctx, term, point))
    for label, ctx, term, point in subjects:
        endos.clear()
        rep = verify_identities(ctx, term, point)
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
        rep = verify_identities(ctx, term, point, expected=entry["expected"])
        assert rep.ok, entry["name"]


def refuse_sources(*args):
    raise AssertionError("positive sources listed on the query path")


# The result is read up to symmetry as the context is: a query enumerates
# once, however many rigid results a positive morphism takes to it.  At
# k = 6 the result has 720 positive sources, and the enumeration ran once
# for each of them.  The memos start empty, so every query enumerates.
def test_positive_sources_are_not_listed(monkeypatch, cold_memo):
    monkeypatch.setattr(thinspan.collapse, "pos_sources_it", refuse_sources)
    calls = []
    monkeypatch.setattr(thinspan.collapse, "normal_witnesses",
                        counting_calls(thinspan.collapse.normal_witnesses, calls))
    ctx, term, _, point = point_subject(*positive_source_point(6))
    rep = verify_identities(ctx, term, point)
    assert rep.ok and rep.wrel.value == 1
    assert len(calls) == 1
    for entry in load_corpus():
        calls.clear()
        ctx, term, _, point = parse_entry(entry)
        assert verify_identities(ctx, term, point).ok, entry["name"]
        assert len(calls) == 1, entry["name"]


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



def enumerator_misses(monkeypatch, ctx, term, point, coefficient=1):
    """Verify at the point from cold memos, checking the coefficient; the
    number of subproblems the enumerator solved."""
    sizes = []
    clear_memos()
    with monkeypatch.context() as m:
        m.setattr(thinspan.derivation, "_enum_raw",
                  counting(thinspan.derivation._enum_raw, sizes))
        rep = verify_identities(ctx, term, point)
    assert rep.ok and rep.wrel.value == coefficient
    return len(sizes)


# church-two-twice once guessed the cut at its outer redex, and its context
# gives g four elements.  Guessing every split of the context among the
# subterms missed the enumerator cache 4618 times at budget 3 and 38,485
# times at budget 4; splitting only among the subterms that use each
# variable, 380 and 2,763 times.  Its normal form g (g (g (g y))), read
# back, guesses no cut: five subproblems, one per spine.
def test_cut_guessing_stays_small(monkeypatch):
    entry = next(e for e in load_corpus() if e["name"] == "church-two-twice")
    ctx, term, _, point = parse_entry(entry)
    misses = enumerator_misses(monkeypatch, ctx, term, point)
    assert misses <= 10, misses


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


# The first argv[2] queries of the benchmark's stream of seed 3, loaded
# from its file argv[1], verified in a child as the benchmark verifies
# them.
STREAM = """
import gc, importlib.util, sys
from pathlib import Path

import thinspan
from thinspan import derivation, interning, wrel

spec = importlib.util.spec_from_file_location("perfbench_workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)

def verify_stream():
    for q in workloads.stream(Path(sys.argv[1]).parent.parent, 3, int(sys.argv[2])):
        ctx = thinspan.parse_context(q["ctx"])
        expected = thinspan.parse_simple_type(q["type"]) if "type" in q else None
        term, ty = thinspan.annotate(ctx, thinspan.parse_term(q["term"]), expected)
        point = thinspan.point_from_json(q["point"], ctx, ty)
        rep = thinspan.verify_identities(ctx, term, point, q["budget"])
        assert rep.ok and rep.wrel.value == q["ref"], q["name"]
"""

# A child's work on the first queries of the stream: the subproblems the
# enumerator and the coefficient recursion solve, counted by their calls.
STREAM_WORK = STREAM + """
calls = {"_enum_raw": 0, "_leftovers_raw": 0}

def count(module, name):
    fn = getattr(module, name)
    def counted(*args):
        calls[name] += 1
        return fn(*args)
    setattr(module, name, counted)

count(derivation, "_enum_raw")
count(wrel, "_leftovers_raw")
verify_stream()
print(calls["_enum_raw"], calls["_leftovers_raw"])
"""


# The work a query stream takes depends on its queries alone, not on the
# order of a set or of a dict of strings, which PYTHONHASHSEED changes from
# one process to the next.  So a change in work counts, measured in one
# process, is the change's and not the seed's.
def test_work_on_the_stream_does_not_depend_on_hash_seeds():
    counts = []
    for seed in ("0", "1"):
        res = subprocess.run(
            [sys.executable, "-c", STREAM_WORK, str(WORKLOADS_PATH), "500"],
            capture_output=True, text=True, timeout=120,
            env={**child_env(), "PYTHONHASHSEED": seed})
        assert res.returncode == 0, res.stderr
        counts.append(tuple(map(int, res.stdout.split())))
    assert counts[0] == counts[1] and all(counts[0]), counts


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
            assert verify_identities(ctx, term, point).ok
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
        assert verify_identities(ctx, term, point).ok
        del ctx, term, point
        sizes.append(len(thinspan.interning._table))
    assert sizes[1] == sizes[2], sizes


def subterms(t):
    yield t
    if isinstance(t, thinspan.syntax.App):
        yield from subterms(t.fn)
        yield from subterms(t.arg)
    elif isinstance(t, thinspan.syntax.Lam):
        yield from subterms(t.body)


def renamed_church_two(suffix: str):
    """church-two-applied with its context variables renamed, as the
    benchmark's stream renames a fresh query."""
    term, point_ctx = church_point(2)
    return point_subject(term.replace(" g y", f" g{suffix} y{suffix}"),
                         {f"{x}{suffix}": v for x, v in point_ctx.items()},
                         f"g{suffix}:o->o, y{suffix}:o")


# A subproblem is kept only as long as a query can read it.  No later
# query meets a subterm that names a context variable, since a repeat is
# answered from the report and a fresh query renames the context: what the
# enumerator solved there dies with the call.  Of such subterms only the
# normal form keeps wrel's answer, the coefficient.  The numeral is closed
# but reduced away before the enumerator runs, so it keeps no enumerator
# subproblem either.  No subterm keeps an enumerator subproblem or wrel's
# leftovers, closed or not: they die with the call, and f (\x:o. x) has a
# closed subterm that both the enumerator and the recursion reach.
def test_a_subproblem_under_context_names_dies_with_its_call(cold_memo):
    ctx, term, _, point = renamed_church_two("_kept")
    assert verify_identities(ctx, term, point).ok
    nf = beta_normalize(term, set(ctx.names()))
    numeral = term.fn.fn
    assert not free_vars(numeral)
    named = {t for root in (term, nf) for t in subterms(root)
             if set(free_vars(t)) & set(ctx.names())}
    assert numeral not in named and len(named) >= 6
    for t in named:
        keys = [k for k in memo(t) if isinstance(k, tuple)]
        assert not [k for k in keys if not isinstance(k[0], str)], t
        assert len([k for k in keys if k[0] == "coefficient"]) == (t is nf), t
    assert not any(isinstance(k, tuple) and not isinstance(k[0], str) for k in memo(numeral))
    ctx2, term2, _, point2 = point_subject("f (\\x:o. x)", {"f": "[[[*]-o*]-o*]"}, "f:(o->o)->o")
    held = verify_identities(ctx2, term2, point2)
    assert held.ok and held.wrel.value == 1
    nf2 = beta_normalize(term2, set(ctx2.names()))
    closed = nf2.arg
    assert not free_vars(closed)
    for t in {t for root in (term, nf, term2, nf2) for t in subterms(root)}:
        keys = [k for k in memo(t) if isinstance(k, tuple)]
        assert not [k for k in keys if k[0] == "wrel" or not isinstance(k[0], str)], t


# A kept query holds only what a later query reads.  Its listed witness
# keeps no contractum, the derivation of the normal form it was read back
# from, which the counts read: the report drops the normal form's
# derivations once it lists the witnesses.  Its normal form keeps the
# coefficient alone, not the leftovers it was read from.
def test_a_kept_query_holds_no_contractum_and_the_coefficient_alone(cold_memo):
    entry = next(e for e in load_corpus() if e["name"] == "church-two-twice")
    ctx = thinspan.syntax.parse_context("g_held:o->o, y_held:o")
    term, ty = thinspan.syntax.annotate(ctx, thinspan.syntax.parse_term(
        entry["term"].replace(") g) y", ") g_held) y_held")))
    point = thinspan.rigidtypes.point_from_json(
        {"ctx": {f"{x}_held": v for x, v in entry["point"]["ctx"].items()},
         "type": entry["point"]["type"]}, ctx, ty)
    held = verify_identities(ctx, term, point)
    assert held.ok and held.report.wit_plus == 1
    derivation = held.report.witnesses[0].derivation
    contractum = weakref.ref(reference.contract(derivation))
    assert contractum() is not derivation
    gc.collect()
    assert contractum() is None
    nf = beta_normalize(held.report.subject.term, set(ctx.names()))
    kept = {k: v for k, v in memo(nf).items() if k[0] in ("wrel", "coefficient")}
    assert list(kept.values()) == [1] and [k[0] for k in kept] == ["coefficient"], kept


# A kept query keeps counts, not witnesses: what its term's memo holds for
# the report names no derivation, so the witnesses die with the report that
# listed them.  A repeat reads the counts and enumerates nothing, and lists
# its witnesses only when they are read, once: the same witnesses in the
# same order.  The higher-order cut's are read back from its normal form
# again.
@pytest.mark.parametrize("point", [fanout_point(2), higher_order_cut_point(2)],
                         ids=["fanout-2", "higher-order-cut-2"])
def test_a_kept_query_keeps_its_counts_not_its_witnesses(monkeypatch, cold_memo, point):
    ctx, term, _, pt = point_subject(*point)
    first = verify_identities(ctx, term, pt)
    assert first.ok
    enumerated, listed = [], []
    monkeypatch.setattr(thinspan.derivation, "_enum_raw",
                        counting_calls(thinspan.derivation._enum_raw, enumerated))
    monkeypatch.setattr(thinspan.collapse, "normal_witnesses",
                        counting_calls(thinspan.collapse.normal_witnesses, listed))
    second = verify_identities(ctx, term, pt)
    assert second.checks == first.checks and second.report == first.report
    assert not enumerated and not listed
    assert second.report.witnesses == first.report.witnesses
    assert second.report.witnesses is second.report.witnesses
    assert len(listed) == 1 and enumerated
    derivations = [weakref.ref(w.derivation) for w in first.report.witnesses]
    assert len(derivations) == first.report.wit_plus > 0
    # the calls' arguments hold the enumeration's run
    del first, second, enumerated[:], listed[:]
    gc.collect()
    assert [d() for d in derivations] == [None] * len(derivations)


# verify reads counts only: where a point has several witnesses, it renders
# no derivation's text and keys no witness.  The report sorts its
# witnesses when they are read, into the order `thinspan witnesses` prints.
FANOUT_2_WITNESSES = [
    "g^{<*,*>-o*} <g^{<*>-o*} <g^{<*>-o*} <y^{*}>>,g^{<*>-o*} <g^{<*,*>-o*} <y^{*},y^{*}>>>",
    "g^{<*,*>-o*} <g^{<*>-o*} <g^{<*,*>-o*} <y^{*},y^{*}>>,g^{<*>-o*} <g^{<*>-o*} <y^{*}>>>",
]
DISTINCT_G_3_WITNESSES = [
    f"f^{{<*,*,*>-o*}} <{a},{b},{c}>" for a, b, c in permutations(
        ("g^{<>-o*} <>", "g^{<*>-o*} <y^{*}>", "g^{<*,*>-o*} <y^{*},y^{*}>"))
]


@pytest.mark.parametrize("point, golden", [
    (fanout_point(2), FANOUT_2_WITNESSES),
    (distinct_g_point(3), DISTINCT_G_3_WITNESSES),
], ids=["fanout-2", "distinct-g-3"])
def test_verify_orders_no_witnesses(cold_memo, point, golden):
    ctx, term, _, pt = point_subject(*point)
    watched = {thinspan.derivation.resource_to_text.__code__: "resource_to_text",
               thinspan.collapse._witness_key.__code__: "_witness_key"}
    ran = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            ran.append(watched[frame.f_code])

    sys.setprofile(profile)
    try:
        rep = verify_identities(ctx, term, pt)
    finally:
        sys.setprofile(None)
    assert rep.ok and rep.report.wit_plus == len(golden) > 1 and not ran, ran
    texts = [thinspan.derivation.resource_to_text(w.derivation) for w in rep.report.witnesses]
    assert texts == golden
    assert rep.report.classes == (tuple(range(len(golden))),)


# Taking from a bag skips a value equal to the one before it: a bag is
# canonical, so equal values sit together.  A bag of 512 equal values, as
# the Church tower at m = 9 gives g, is taken from once, and no value's
# position is looked up.
def test_a_bag_of_equal_values_is_taken_from_in_one_pass():
    value = IArrow((STAR,), STAR)
    looked_up = []

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", None) == "index":
            looked_up.append(arg)

    sys.setprofile(profile)
    try:
        takes = thinspan.derivation._takes((value,) * 512, True, thinspan.derivation._Run())
    finally:
        sys.setprofile(None)
    assert takes == [(value, (value,) * 511)] and not looked_up, len(looked_up)


# The first 1,000 queries of the stream keep their answers, not the
# derivations that gave them: what stays is the enumerator's subproblems at
# closed subterms, such as a Church numeral, which keep some resource
# terms alive for the next query under other names.
STREAM_KEPT = STREAM + """
verify_stream()
gc.collect()
print(sum(isinstance(entry(), derivation._RTNode) for entry in list(interning._table.values())))
"""


def test_the_stream_keeps_few_resource_terms():
    res = subprocess.run(
        [sys.executable, "-c", STREAM_KEPT, str(WORKLOADS_PATH), "1000"],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) <= 100, res.stdout


# The coefficient of a normal form is kept apart from its leftovers: a
# later query may meet the same normal form as a subterm free only in its
# binders, where it needs the leftovers in which a bag is not used up.
# Here `h (g y) y` leaves one y of two to its second argument.
def test_a_normal_form_met_again_under_binders_reads_all_its_leftovers(cold_memo):
    ctx, term, _, point = point_subject("g y", {"g": "[[*]-o*]", "y": "[*,*]"})
    assert verify_identities(ctx, term, point).wrel.value == 0
    ctx = thinspan.syntax.parse_context("h:o->o->o")
    term, ty = thinspan.syntax.annotate(ctx, thinspan.syntax.parse_term(
        "\\g:o->o. \\y:o. h (g y) y"))
    point = thinspan.rigidtypes.point_from_json(
        {"ctx": {"h": "[[*]-o[*]-o*]"}, "type": "[[*]-o*]-o[*,*]-o*"}, ctx, ty)
    second = verify_identities(ctx, term, point)
    assert second.ok and second.wrel.value == 1


# The labels a query lists die with it.  At budget 5 the third-order cut
# once listed about 9,300 refinements of (o->o)->o for its open binder h;
# its normal form g y lists none, and the labels of the read-back, like
# those of the bag values, outlive no query.  A first query keeps what any
# query keeps: the texts read and the types they parsed to.
def test_an_open_binders_labels_die_with_the_query(cold_memo):
    def live_arrows():
        gc.collect()
        return sum(1 for key, entry in list(thinspan.interning._table.items())
                   if key[0] is IArrow and entry() is not None)

    counts = []
    for _ in range(2):
        counts.append(live_arrows())
        ctx, term, _, point = point_subject(*third_order_cut_point())
        assert verify_identities(ctx, term, point).ok
        del ctx, term, point
    assert live_arrows() <= counts[1], counts


# A bag value's labels, its negative targets, are listed by the enumeration
# that takes the value and die with it.  At k = 6,
# F's value has 720 labels, the orders of D; after the query, the only
# arrows alive that were not before are the point's own types.
def test_a_bag_values_labels_die_with_the_query(cold_memo):
    def live_arrows():
        gc.collect()
        return [node for key, entry in list(thinspan.interning._table.items())
                if key[0] is IArrow and (node := entry()) is not None]

    def arrows(a, out):
        if isinstance(a, IArrow):
            out.add(a)
            for b in (*a.domain, a.codomain):
                arrows(b, out)
        return out

    before = weakref.WeakSet(live_arrows())
    d = "[" + ",".join(f"{stars(i)}-o*" for i in range(6)) + "]"
    ctx, term, ty, point = point_subject(
        "F (\\h:o->o. f h)", {"F": f"[[{d}-o*]-o*]", "f": f"[{d}-o*]"},
        "F:((o->o)->o)->o, f:(o->o)->o")
    held = verify_identities(ctx, term, point)
    assert held.ok and held.wrel.value == 1
    del held
    own = set()
    for _, bag in point.ctx:
        for a in bag:
            arrows(a, own)
    new = [a for a in live_arrows() if a not in before and a not in own]
    assert len(own) == 8 and not new, len(new)


# An enumeration lists each bag value's labels once, however many
# occurrences take the value.  Fan-out n = 2 has three distinct values.
def test_a_bag_values_labels_are_listed_once_per_run(monkeypatch, cold_memo):
    ctx, term, ty, point = point_subject(*fanout_point(2))
    gamma, a = canonicalize_point(point, ctx, ty)
    calls = []
    monkeypatch.setattr(thinspan.derivation, "neg_targets_it",
                        counting_calls(thinspan.derivation.neg_targets_it, calls))
    assert thinspan.derivation.normal_witnesses(term, gamma, a)[0]
    values = {v for _, seq, _ in gamma.entries for v in seq}
    assert len(values) == 3 and len(calls) == len(set(calls)) <= len(values), calls


# The enumerator keeps nothing across queries: after a query no subterm's
# memo holds an enumerator subproblem, not even a subterm of the normal
# form that names no context variable, such as x, bound in the normal form
# \x:o. g (g x) of the numeral two applied to g alone.  So a renamed query,
# which no kept report answers, solves as many subproblems as the first.
def test_a_renamed_query_solves_its_subproblems_afresh(monkeypatch, cold_memo):
    sizes = []
    monkeypatch.setattr(thinspan.derivation, "_enum_raw",
                        counting(thinspan.derivation._enum_raw, sizes))
    runs = []
    for suffix in ("_first", "_second"):
        ctx, term, _, point = point_subject(
            f"(\\f:o->o. \\x:o. f (f x)) g{suffix}", {f"g{suffix}": "[[*]-o*,[*]-o*]"},
            f"g{suffix}:o->o", "[*]-o*")
        before = len(sizes)
        assert verify_identities(ctx, term, point).wrel.value == 1
        runs.append(len(sizes) - before)
        nf = beta_normalize(term, set(ctx.names()))
        for t in {t for root in (term, nf) for t in subterms(root)}:
            assert not [k for k in memo(t)
                        if isinstance(k, tuple) and not isinstance(k[0], str)], t
    assert runs[0] == runs[1] > 0, runs


# A query leaves no garbage that only the cyclic collector could free:
# everything it dropped, reference counting frees.  Contracting a redex
# once made a reference cycle each time.
def test_a_query_leaves_no_cyclic_garbage(cold_memo):
    points = ([parse_entry(e) for e in load_corpus()]
              + [point_subject(*symmetric_point(n)) for n in range(1, 7)]
              + [point_subject(*fanout_point(n)) for n in range(1, 4)]
              + [point_subject(*church_point(k)) for k in range(1, 6)]
              + [point_subject(*higher_order_cut_point(n)) for n in (1, 2)]
              + [point_subject(*third_order_cut_point())])
    gc.collect()
    gc.disable()
    try:
        for ctx, term, _, point in points:
            assert verify_identities(ctx, term, point).ok
        assert gc.collect() == 0
    finally:
        gc.enable()


# Work-growth guards: the nodes verify_identities builds with cold memos,
# a deterministic measure of its work, at consecutive rungs of a family.
# Symmetric, Church, chain and fan-out grow at most linearly: rung n
# builds at most 2 * n times what rung 1 builds (today at most 1, 1, 1
# and 1.4 times).  Distinct-g and the third-order label still do
# factorial work, so the bound fails on them; when it holds, the marker
# must come off.
def nodes_built(point) -> int:
    ctx, term, _, pt = point_subject(*point)
    clear_memos()
    with built_nodes() as built:
        assert verify_identities(ctx, term, pt).ok
    return len(built)


@pytest.mark.parametrize("family, top", [
    pytest.param(symmetric_point, 6, id="symmetric"),
    pytest.param(church_point, 8, id="church"),
    pytest.param(chain_point, 8, id="chain"),
    pytest.param(fanout_point, 4, id="fanout"),
    pytest.param(distinct_g_point, 5, id="distinct-g", marks=pytest.mark.xfail(
        strict=True, reason="lists its k! witnesses and counts them one by one "
                            "(ROADMAP items 11 and 32)")),
    pytest.param(third_order_label_point, 5, id="third-order-label", marks=pytest.mark.xfail(
        strict=True, reason="lists the k! orders of F's label (ROADMAP item 21)")),
])
def test_work_grows_at_most_linearly(cold_memo, family, top):
    built = [nodes_built(family(n)) for n in range(1, top + 1)]
    assert all(b <= 2 * n * built[0] for n, b in enumerate(built, 1)), built


# The Church tower's normal form doubles with each m, and its work at most
# doubles too: rung m + 1 builds at most twice what rung m builds, plus
# what rung 1 builds (today 27, 59, 121, ..., 967 nodes up to m = 6).
def test_the_church_towers_work_at_most_doubles_per_step(cold_memo):
    built = [nodes_built(church_tower_point(m)) for m in range(1, 7)]
    assert all(b <= 2 * a + built[0] for a, b in zip(built, built[1:])), built
