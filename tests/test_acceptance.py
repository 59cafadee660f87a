"""End-to-end acceptance battery.

One test per headline property, so a verbose run reads as a checklist.
Each test prints a PASS line with the counts it verified.
"""

import random
import time

from thinspan.syntax import (
    annotate, is_beta_normal, parse_context, parse_simple_type, parse_term,
)
from thinspan.rigidtypes import IArrow, Star, canonicalize_point, parse_itype, point_from_json
from thinspan.symmetry import pos_targets_it, sym_degrees_ctx, sym_degrees_it
from thinspan.derivation import (
    RApp, RLam, RVar, count_derivation_morphisms, multiset_collapse_term,
)
from thinspan.groupoid import enumerate_homs_it
from thinspan.wrel import wrel_coefficient
from thinspan.collapse import esp_explicit, positive_witnesses, prepare, verify_identities

from reference import (
    compose_dm, compose_it, enumerate_derivation_morphisms, identity_dm, identity_it, invert_dm,
    invert_it, is_negative_it, is_positive_it, polar_factorize_it, src_it, tgt_it,
)
from support import entry_budget, load_corpus, parse_entry, rand_canonical, rand_reorder, rand_stype

S = Star()
CORPUS = load_corpus()
BY_NAME = {e["name"]: e for e in CORPUS}


def subject(name):
    return parse_entry(BY_NAME[name])


def test_first_order_shared_head_counts_two():
    started = time.monotonic()
    ctx, term, ty, point = subject("shared-head-two-ways")
    prepared = prepare(ctx, term, point)
    coeff = wrel_coefficient(prepared)
    rep = positive_witnesses(prepared)
    elapsed = time.monotonic() - started
    assert coeff.value == 2
    assert rep.wit_plus == 2
    assert len(rep.classes) == 2
    assert elapsed < 1.0
    print(f"PASS first-order shared head: coefficient 2 = 2 witnesses ({elapsed:.3f}s)")


def test_higher_order_pair_and_bound_variant():
    started = time.monotonic()
    ctx, term, ty, point = subject("one-term-two-witnesses")
    prepared = prepare(ctx, term, point)
    coeff = wrel_coefficient(prepared)
    rep = positive_witnesses(prepared)
    assert coeff.value == 2 and rep.wit_plus == 2
    assert rep.classes == ((0, 1),)
    ctx2, term2, ty2, point2 = subject("bound-argument-collapse")
    prepared2 = prepare(ctx2, term2, point2)
    coeff2 = wrel_coefficient(prepared2)
    rep2 = positive_witnesses(prepared2)
    assert coeff2.value == 1 and rep2.wit_plus == 1
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"PASS higher-order pair: 2 vs 1 once the argument is bound ({elapsed:.3f}s)")


def test_identity_battery_over_corpus():
    started = time.monotonic()
    for entry in CORPUS:
        ctx, term, ty, point = parse_entry(entry)
        budget = None if is_beta_normal(term) else entry_budget(entry)
        rep = verify_identities(ctx, term, point, budget, expected=entry["expected"])
        assert rep.ok, (entry["name"], [c for c in rep.checks if not c.ok])
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"PASS identity battery: {len(CORPUS)} corpus points, "
          f"every check green ({elapsed:.2f}s)")


def test_degrees_factor_into_polarized_parts():
    cases = 0
    for entry in CORPUS:
        ctx, term, ty, point = parse_entry(entry)
        gamma, a = canonicalize_point(point, ctx, ty)
        d = sym_degrees_ctx(gamma)
        assert d.total == d.positive * d.negative, entry["name"]
        r = sym_degrees_it(a, ty)
        assert r.total == r.positive * r.negative, entry["name"]
        cases += 2
    rng = random.Random(7)
    for _ in range(200):
        t = rand_stype(rng, 3)
        a = rand_canonical(rng, t, 3)
        d = sym_degrees_it(a, t)
        assert d.total == d.positive * d.negative
        cases += 1
    print(f"PASS degree factorization: m = m+ * m- in {cases} cases")


def brute_polar_factorizations(phi, t):
    a = src_it(phi)
    out = []
    for mid in pos_targets_it(a, t):
        for p in enumerate_homs_it(a, mid):
            if not is_positive_it(p, t):
                continue
            for n in enumerate_homs_it(mid, tgt_it(phi)):
                if is_negative_it(n, t) and compose_it(n, p) == phi:
                    out.append((p, n))
    return out


def test_polar_factorization_exists_uniquely():
    rng = random.Random(41)
    for case in range(500):
        t = rand_stype(rng, 2)
        a = rand_canonical(rng, t, 2)
        b = rand_reorder(rng, a)
        homs = enumerate_homs_it(a, b)
        phi = homs[rng.randrange(len(homs))]
        pos, neg = polar_factorize_it(phi, t)
        assert compose_it(neg, pos) == phi
        assert is_positive_it(pos, t) and is_negative_it(neg, t)
        assert brute_polar_factorizations(phi, t) == [(pos, neg)]
    print("PASS polar factorization: unique positive-then-negative split, 500 cases")


def test_groupoid_laws_in_bulk():
    # rigid type morphisms: a four-element sequence of equal refinements has
    # the full symmetric group as its automorphisms
    t = parse_simple_type("(o->o)->o")
    a = parse_itype("<<*>-o*,<*>-o*,<*>-o*,<*>-o*>-o*")
    endos = enumerate_homs_it(a, a)
    assert len(endos) == 24
    it_cases = 0
    ida = identity_it(a)
    for f in endos:
        assert compose_it(f, invert_it(f)) == ida
        assert compose_it(invert_it(f), f) == ida
        assert compose_it(f, ida) == f and compose_it(ida, f) == f
        it_cases += 4
    for f in endos:
        for g in endos:
            for h in endos:
                assert compose_it(h, compose_it(g, f)) == compose_it(compose_it(h, g), f)
                it_cases += 1
    assert it_cases >= 1000

    # derivation morphisms: same story one level up, driven by the witness
    # of a point whose context has a four-fold symmetry
    ctx = parse_context("g:o->o, y:o")
    point = point_from_json(
        {"ctx": {"g": "[[*,*,*,*]-o*]", "y": "[*,*,*,*]"}, "type": "*"}, ctx,
        parse_simple_type("o"))
    term, _ = annotate(ctx, parse_term("g y"))
    rep = positive_witnesses(prepare(ctx, term, point))
    [w] = [pw.derivation for pw in rep.witnesses]
    dendos = enumerate_derivation_morphisms(w, w)
    assert len(dendos) == 24
    dm_cases = 0
    idw = identity_dm(w)
    for f in dendos:
        assert compose_dm(f, invert_dm(f)) == idw
        assert compose_dm(invert_dm(f), f) == idw
        dm_cases += 2
    for f in dendos:
        for g in dendos:
            for h in dendos:
                assert compose_dm(h, compose_dm(g, f)) == compose_dm(compose_dm(h, g), f)
                dm_cases += 1
    # and across distinct witnesses, where the permutation part is forced
    ctx2, term2, ty2, point2 = subject("one-term-two-witnesses")
    rep2 = positive_witnesses(prepare(ctx2, term2, point2))
    ds = [pw.derivation for pw in rep2.witnesses]
    for d1 in ds:
        for d2 in ds:
            for m in enumerate_derivation_morphisms(d1, d2):
                assert compose_dm(m, identity_dm(d1)) == m
                assert compose_dm(identity_dm(d2), m) == m
                assert compose_dm(invert_dm(m), m) == identity_dm(d1)
                dm_cases += 3
    assert dm_cases >= 1000
    print(f"PASS groupoid laws: {it_cases} type-level and {dm_cases} "
          f"derivation-level instances")


def test_triple_counts_factor_through_witnesses():
    for entry in CORPUS:
        ctx, term, ty, point = parse_entry(entry)
        budget = None if is_beta_normal(term) else entry_budget(entry)
        rep = positive_witnesses(prepare(ctx, term, point), budget)
        assert esp_explicit(rep) == rep.esp, entry["name"]
        assert rep.esp == rep.ctx_degrees.negative * rep.wit_plus * rep.res_degrees.positive
    print(f"PASS triple counts: explicit enumeration matches the torsor "
          f"formula on {len(CORPUS)} points")


def test_division_identity():
    for entry in CORPUS:
        ctx, term, ty, point = parse_entry(entry)
        budget = None if is_beta_normal(term) else entry_budget(entry)
        prepared = prepare(ctx, term, point)
        rep = positive_witnesses(prepared, budget)
        coeff = wrel_coefficient(prepared)
        lhs = coeff.value * rep.ctx_degrees.negative * rep.res_degrees.positive
        assert lhs == rep.esp, entry["name"]
    print(f"PASS division identity: coefficient * m-(ctx) * m+(result) = triples "
          f"on {len(CORPUS)} points")


def test_symmetry_matches_multiset_collapse_on_normal_forms():
    pairs = 0
    for entry in CORPUS:
        ctx, term, ty, point = parse_entry(entry)
        if not is_beta_normal(term):
            continue
        rep = positive_witnesses(prepare(ctx, term, point))
        rs = [pw.derivation for pw in rep.witnesses]
        for i in range(len(rs)):
            for j in range(i + 1, len(rs)):
                same_class = count_derivation_morphisms(rs[i], rs[j]) > 0
                same_collapse = multiset_collapse_term(rs[i]) == multiset_collapse_term(rs[j])
                assert same_class == same_collapse, entry["name"]
                pairs += 1
    # with a cut the collapse is coarser: these two rigid terms collapse
    # together but admit no morphism
    xl = IArrow((S,), IArrow((S,), S))
    body = RApp(RApp(RVar("x", xl), (RVar("y", S),)), (RVar("y", S),))
    cut = RLam("y", body, parse_simple_type("o"))
    m1 = RApp(cut, (RVar("z", S), RVar("w", S)))
    m2 = RApp(cut, (RVar("w", S), RVar("z", S)))
    assert multiset_collapse_term(m1) == multiset_collapse_term(m2)
    assert enumerate_derivation_morphisms(m1, m2) == ()
    assert count_derivation_morphisms(m1, m2) == 0
    print(f"PASS collapse correspondence: {pairs} beta-normal witness pairs, "
          f"plus the strictness example at a cut")
