import random
from collections import Counter
from math import factorial

import pytest

from thinspan import derivation
from thinspan.syntax import (
    App, Arrow, Base, Lam, Var, annotate, beta_normalize, fresh_name, is_beta_normal, parse_context,
    parse_simple_type, parse_term, substitute, term_to_text,
)
from thinspan.rigidtypes import (
    IArrow, ResourceContext, Star, canonicalize_point, is_canonical, parse_itype,
    point_from_json,
)
from thinspan.symmetry import neg_targets_it, polar_class, pos_sources_it
from thinspan.derivation import (
    DerivationError, RApp, RLam, RVar, endo_count, enumerate_witnesses, multiset_collapse_term,
    partition_by_symmetry, resource_to_text, rt_context, rt_occurrence_labels, rt_type,
)
from thinspan.collapse import positive_witnesses, prepare, verify_identities

from reference import (
    check_derivation, contract, count_derivation_morphisms, dm_occurrences,
    enumerate_bag_witnesses, enumerate_derivation_morphisms, identity_dm, omega_substitute,
    src_it, src_seq, stepwise_witness_set, tgt_it, tgt_seq, traced_witness_set,
)
from support import (
    across_points, binders, bounded_refinements, bounded_seqs, built_nodes, church_point,
    church_tower_point, clear_memos, copies_in_every_order, distinct_g_point, fanout_point,
    generated_points, guessed_cut_point, higher_order_cut_point, load_corpus, pairwise_partition,
    parse_entry, per_target_witnesses, point_subject, point_width, rand_canonical, rand_reorder,
    rand_stype, redex_subjects, small_points, small_terms, split_witnesses, swept_points,
    symmetric_point, third_order_cut_point, third_order_label_point,
)

S = Star()
CORPUS = load_corpus()
BY_NAME = {e["name"]: e for e in CORPUS}


def subject(name):
    ctx, term, ty, point = parse_entry(BY_NAME[name])
    gamma, alpha = canonicalize_point(point, ctx, ty)
    return ctx, term, ty, gamma, alpha


def at_point(name):
    """Witness set at the canonical rigid point itself."""
    ctx, term, _, gamma, alpha = subject(name)
    return ctx, term, enumerate_witnesses(ctx, term, gamma, alpha)


def texts(ds):
    return sorted(resource_to_text(r) for r in ds)


def replace_var(r, name, new):
    """r with every occurrence of the variable `name` replaced by `new`."""
    match r:
        case RVar(x, _):
            return new if x == name else r
        case RLam(x, b, t):
            return RLam(x, replace_var(b, name, new), t)
        case RApp(f, args):
            return RApp(replace_var(f, name, new), tuple(replace_var(a, name, new) for a in args))


def test_witnesses_shared_head():
    _, _, ds = across_points("shared-head-two-ways")
    assert texts(ds) == [
        "f^{<*>-o<>-o*} <f^{<>-o<*>-o*} <> <x^{*}>> <>",
        "f^{<>-o<*>-o*} <> <f^{<*>-o<>-o*} <x^{*}> <>>",
    ]
    # the canonical representative itself carries exactly one of the two
    _, _, ws = at_point("shared-head-two-ways")
    assert len(ws) == 1


def test_witnesses_one_term_two_ways():
    _, _, ds = across_points("one-term-two-witnesses")
    assert texts(ds) == [
        "f^{<*,*>-o*} <g^{<*>-o*} <y^{*}>,g^{<>-o*} <>>",
        "f^{<*,*>-o*} <g^{<>-o*} <>,g^{<*>-o*} <y^{*}>>",
    ]


def test_witnesses_fan():
    _, _, ds = across_points("fan-out")
    assert texts(ds) == ["g^{<*,*>-o*} <g^{<*>-o*} <y^{*}>,g^{<*>-o*} <y^{*}>>"]
    assert endo_count(ds[0]) == 2


def test_every_witness_checks():
    for name in ("shared-head-two-ways", "one-term-two-witnesses", "vacuous-binder-pair",
                 "bound-argument-collapse", "eta-expanded-identity", "fan-out"):
        ctx, term, ds = across_points(name)
        assert ds
        for r in ds:
            assert check_derivation(ctx, term, r)


def test_tampered_derivation_fails_check():
    ctx, term, ds = across_points("one-term-two-witnesses")
    r = ds[0]
    assert isinstance(r, RApp) and check_derivation(ctx, term, r)
    # a label that does not refine its variable's simple type
    res = check_derivation(ctx, term, replace_var(r, "y", RVar("y", IArrow((), S))))
    assert not res.ok and res.message
    # a label that refines, but whose domain does not fit the arguments
    assert not check_derivation(ctx, term, replace_var(r, "f", RVar("f", IArrow((S,), S))))
    # a variable that is not in scope
    assert not check_derivation(ctx, term, replace_var(r, "y", RVar("zz", S)))
    # a derivation of another term
    assert not check_derivation(ctx, parse_term("f y"), r)
    # a wrong binder, by name or by simple type
    ctx, term, ds = across_points("vacuous-binder-pair")
    r = ds[0]
    lam = r.args[0]
    assert isinstance(lam, RLam) and check_derivation(ctx, term, r)
    for bad in (RLam("z", lam.body, lam.annot),
                RLam(lam.binder, lam.body, parse_simple_type("o->o"))):
        res = check_derivation(ctx, term, RApp(r.fn, (bad,) + r.args[1:]))
        assert not res.ok and res.message


def test_check_enforces_each_rule():
    ctx = parse_context("f:o->o, x:o")
    f, x = RVar("f", IArrow((S,), S)), RVar("x", S)
    # var: the label refines the variable's simple type, and names match
    assert check_derivation(ctx, parse_term("x"), x)
    assert not check_derivation(ctx, parse_term("x"), RVar("g", S))
    assert not check_derivation(ctx, parse_term("f"), RVar("f", S))
    # app: the function part concludes an arrow whose domain the arguments fit
    with pytest.raises(DerivationError):
        rt_type(RApp(x, ()))
    assert not check_derivation(ctx, parse_term("f x"), RApp(f, ()))
    app = RApp(f, (x,))
    assert check_derivation(ctx, parse_term("f x"), app)
    assert rt_type(app) == S
    # lam: the binder's occurrences move into the arrow domain
    lam_term = parse_term("\\y:o. f x")
    assert not check_derivation(ctx, lam_term, RLam("z", app, Base()))
    assert not check_derivation(ctx, lam_term, RLam("y", app, parse_simple_type("o->o")))
    assert check_derivation(ctx, lam_term, RLam("y", app, Base()))
    assert rt_type(RLam("y", app, Base())) == IArrow((), S)


def test_resource_round_trip():
    # every witness enumerated across the corpus checks against its term and
    # concludes exactly the point it was enumerated at
    seen = 0
    for entry in CORPUS:
        ctx, term, ty, point = parse_entry(entry)
        gamma, alpha = canonicalize_point(point, ctx, ty)
        for th, al, r in per_target_witnesses(ctx, term, gamma, alpha):
            assert check_derivation(ctx, term, r), entry["name"]
            assert rt_context(th.shape(), r) == th, entry["name"]
            assert rt_type(r) == al, entry["name"]
            seen += 1
    assert seen >= len(CORPUS)


def test_rt_basics():
    ctx, _, ds = across_points("fan-out")
    r = ds[0]
    assert rt_type(r) == S
    labels = rt_occurrence_labels(r, "g")
    assert labels == [IArrow((S, S), S), IArrow((S,), S), IArrow((S,), S)]
    assert rt_occurrence_labels(r, "y") == [S, S]
    theta = rt_context(tuple(ctx.bindings), r)
    assert theta.lookup("g") == tuple(labels) and theta.lookup("y") == (S, S)
    assert rt_context((), r) == ResourceContext()


def test_rt_context_gathers_every_entry_in_one_walk():
    # each entry lists the labels rt_occurrence_labels gives its variable,
    # on every witness of the corpus and of the generated points, and under
    # an inner binder of the same name
    checked = 0
    subjects = [(e, *parse_entry(e)) for e in CORPUS] + list(generated_points())
    for entry, ctx, term, _, point in subjects:
        for w in positive_witnesses(prepare(ctx, term, point)).witnesses:
            theta = rt_context(tuple(ctx.bindings), w.derivation)
            assert theta.names() == ctx.names()
            for x, seq, _ in theta.entries:
                assert seq == tuple(rt_occurrence_labels(w.derivation, x)), entry["name"]
            checked += 1
    assert checked >= 70, checked
    r = RApp(RVar("x", IArrow((S,), S)), (RApp(RLam("x", RVar("x", S), Base()), (RVar("x", S),)),))
    shape = (("x", Base()), ("z", Base()))
    assert rt_context(shape, r).entries == (("x", (IArrow((S,), S), S), Base()), ("z", (), Base()))


def test_contract_returns_a_redex_free_derivation_itself():
    seen = {"redex-free": 0, "with a redex": 0}
    for entry in CORPUS:
        ctx, term, _, point = parse_entry(entry)
        for w in positive_witnesses(prepare(ctx, term, point)).witnesses:
            r = w.derivation
            if has_redex(r):
                assert contract(r) is not r and not has_redex(contract(r))
                seen["with a redex"] += 1
            else:
                with built_nodes() as built:
                    assert contract(r) is r, entry["name"]
                assert built == [], entry["name"]
                seen["redex-free"] += 1
    assert min(seen.values()) >= 10, seen


def test_dm_occurrences_match_context_entries():
    # the sequence morphism a derivation morphism induces on a variable's
    # occurrences runs between the two witnesses' entries for that variable
    checked = 0
    for entry in CORPUS:
        ctx, term, ty, point = parse_entry(entry)
        ws = positive_witnesses(prepare(ctx, term, point)).witnesses
        for w1 in ws:
            for w2 in ws:
                th1, th2 = w1.theta, w2.theta
                for m in enumerate_derivation_morphisms(w1.derivation, w2.derivation):
                    assert src_it(m.phi) == rt_type(w1.derivation)
                    assert tgt_it(m.phi) == rt_type(w2.derivation)
                    for x, seq, _ in th1.entries:
                        sm = dm_occurrences(m, x)
                        assert src_seq(sm) == seq, entry["name"]
                        assert tgt_seq(sm) == th2.lookup(x), entry["name"]
                        checked += 1
    assert checked >= len(CORPUS)
    # an inner binder of the same name hides its occurrences, as in
    # rt_occurrence_labels
    r = RApp(RVar("x", IArrow((S,), S)), (RApp(RLam("x", RVar("x", S), Base()), (RVar("x", S),)),))
    seq = dm_occurrences(identity_dm(r), "x")
    assert src_seq(seq) == tuple(rt_occurrence_labels(r, "x")) == (IArrow((S,), S), S)


def test_omega_substitute_contracts_redex():
    ctx, term, ws = at_point("duplicating-redex")
    [r] = ws.derivations
    fl = IArrow((S,), IArrow((S,), S))
    contracted = omega_substitute(r)
    assert contracted == RApp(RApp(RVar("f", fl), (RVar("y", S),)), (RVar("y", S),))


def test_omega_substitute_errors():
    with pytest.raises(DerivationError):
        omega_substitute(RVar("x", S))
    with pytest.raises(DerivationError):
        omega_substitute(RApp(RLam("x", RVar("x", S), Base()), ()))
    with pytest.raises(DerivationError):
        omega_substitute(RApp(RLam("x", RVar("x", S), Base()),
                              (RVar("z", IArrow((), S)),)))


def test_multiset_collapse_identifies_the_pair():
    _, _, ds = across_points("one-term-two-witnesses")
    r1, r2 = ds
    assert r1 != r2
    assert multiset_collapse_term(r1) == multiset_collapse_term(r2)
    _, _, shared = across_points("shared-head-two-ways")
    s1, s2 = shared
    assert multiset_collapse_term(s1) != multiset_collapse_term(s2)
    # the collapse is a canonical resource term, so collapsing is idempotent
    c1 = multiset_collapse_term(r1)
    assert multiset_collapse_term(c1) == c1
    assert resource_to_text(c1)


def test_collapse_equal_but_not_symmetric():
    # a pair of rigid terms with equal multiset collapse and no morphism
    # between them: the collapse loses the pairing of cut copies
    xl = IArrow((S,), IArrow((S,), S))
    body = RApp(RApp(RVar("x", xl), (RVar("y", S),)), (RVar("y", S),))
    cut = RLam("y", body, Base())
    m1 = RApp(cut, (RVar("z", S), RVar("w", S)))
    m2 = RApp(cut, (RVar("w", S), RVar("z", S)))
    assert multiset_collapse_term(m1) == multiset_collapse_term(m2)
    assert enumerate_derivation_morphisms(m1, m2) == ()
    assert len(enumerate_derivation_morphisms(m1, m1)) == 1
    assert len(enumerate_derivation_morphisms(m2, m2)) == 1
    c1, c2 = omega_substitute(m1), omega_substitute(m2)
    assert c1 == RApp(RApp(RVar("x", xl), (RVar("z", S),)), (RVar("w", S),))
    assert c2 == RApp(RApp(RVar("x", xl), (RVar("w", S),)), (RVar("z", S),))
    assert enumerate_derivation_morphisms(c1, c2) == ()
    # and so on the counting path, which counts a redex by its contractum
    # and partitions the contracta, derivations of the normal form
    assert contract(m1) == c1 and contract(m2) == c2
    assert count_derivation_morphisms(m1, m2) == 0
    assert count_derivation_morphisms(m1, m1) == count_derivation_morphisms(m2, m2) == 1
    assert endo_count(c1) == endo_count(c2) == 1
    assert partition_by_symmetry((c1, c2)) == ((c1,), (c2,))


def test_forced_cuts_ignore_budget():
    # the cut for a bare-variable argument is a window of that variable's
    # remaining elements, a three element cut here; a lambda argument's is
    # read back from the normal form, church-two-twice's two <*>-o* and the
    # higher-order cut's <<*,*>-o*>-o*
    for name in ("church-two-at-fan", "church-two-twice"):
        _, _, ds = across_points(name)
        assert len(ds) == 1, name
    ctx, term, ty, point = point_subject(*higher_order_cut_point(2))
    gamma, a = canonicalize_point(point, ctx, ty)
    [(_, _, d)] = per_target_witnesses(ctx, term, gamma, a)
    assert rt_type(d.fn).domain == (parse_itype("<<*,*>-o*>-o*"),)


# Redexes nested in a redex's argument, and function parts that are
# redexes themselves: a step inside an argument is undone in each copy.
NESTED_REDEXES = [
    ("(\\k:o->o. k y) (\\z:o. (\\w:o. g w) z)", {"g": "[[*]-o*]", "y": "[*]"}, "g:o->o, y:o"),
    ("(\\k:o->o. k y) (\\z:o. (\\w:o. f w w) z)", {"f": "[[*]-o[*]-o*]", "y": "[*,*]"},
     "f:o->o->o, y:o"),
    ("(\\k:(o->o)->o. k g) (\\h:o->o. (\\m:o->o. m y) h)", {"g": "[[*]-o*]", "y": "[*]"},
     "g:o->o, y:o"),
    ("(\\k:o->o. k c) (\\y:o. (\\x:o->o. x) g y)", {"g": "[[*]-o*]", "c": "[*]"},
     "g:o->o, c:o"),
    ("(\\k:o->o. k c) (\\y:o. (\\x:o. g) b y)", {"g": "[[*]-o*]", "c": "[*]", "b": "[]"},
     "g:o->o, c:o, b:o"),
    ("(\\k:o->o. k c) (\\z:o. (\\x:o->o. x) g y)", {"g": "[[*]-o*]", "y": "[*]", "c": "[]"},
     "g:o->o, y:o, c:o"),
]


def test_guessed_cut_family_tries_one_type():
    # the binder k of the guessed-cut family takes the one type [*^n]-o*
    # its argument concludes, read back from the normal form, and so do the
    # binders of redexes nested in arguments
    for n in range(1, 7):
        ctx, term, ty, point = point_subject(*guessed_cut_point(n))
        rep = verify_identities(ctx, term, point)
        assert rep.ok and rep.wrel.value == rep.report.wit_plus == 1, n
        [w] = rep.report.witnesses
        assert rt_type(w.derivation.fn).domain == (parse_itype(f"<{','.join('*' * n)}>-o*"),)
    for term, point_ctx, ctx_text in NESTED_REDEXES:
        ctx, term, ty, point = point_subject(term, point_ctx, ctx_text)
        rep = verify_identities(ctx, term, point)
        assert rep.ok and rep.wrel.value == rep.report.wit_plus == 1, term_to_text(term)
        gamma, a = canonicalize_point(point, ctx, ty)
        split = per_target_witnesses(ctx, term, gamma, a,
                                     lambda *args: split_witnesses(*args, point_width(point)))
        assert [w.derivation for w in rep.report.witnesses] == [d for _, _, d in split]
    # the split oracle tries every sequence over the b + 1 refinements of
    # o->o no longer than its bound b
    o_o = parse_simple_type("o->o")
    assert all(len(bounded_refinements(o_o, b)) == b + 1 for b in (2, 3, 4, 6, 8))
    assert [len(bounded_seqs(o_o, b)) for b in (2, 3, 4)] == [13, 85, 781]


def rigid(beta) -> bool:
    """Whether beta is a rigid type all the way down."""
    return isinstance(beta, Star) or (isinstance(beta, IArrow) and rigid(beta.codomain)
                                      and all(map(rigid, beta.domain)))


def well_formed_target(alpha) -> bool:
    """Whether alpha is a target the enumerator knows: up to symmetry at a
    canonical arrow type, or a rigid type.  No target is open or a cut."""
    if isinstance(alpha, derivation._Pos):
        return isinstance(alpha.a, IArrow) and rigid(alpha.a) and is_canonical(alpha.a)
    return rigid(alpha)


def test_every_target_is_open_a_cut_or_rigid():
    # the enumerator meets normal forms only, so a target is rigid or up to
    # symmetry: never open, and never a cut
    targets = []

    def recorded(term, ctx, alpha, run, must):
        targets.append(alpha)
        return enum(term, ctx, alpha, run, must)

    enum, derivation._enum = derivation._enum, recorded
    try:
        clear_memos()
        for entry in CORPUS:
            ctx, term, _, point = parse_entry(entry)
            verify_identities(ctx, term, point)
        for _, ctx, term, _, point in redex_subjects():
            verify_identities(ctx, term, point)
        for point in (higher_order_cut_point(2), third_order_cut_point()):
            ctx, term, _, pt = point_subject(*point)
            verify_identities(ctx, term, pt)
    finally:
        derivation._enum = enum
    bad = sum(not well_formed_target(alpha) for alpha in targets)
    assert bad == 0, f"{bad} of {len(targets)} targets are ill-formed"
    assert any(isinstance(alpha, derivation._Pos) for alpha in targets)
    assert any(isinstance(alpha, IArrow) for alpha in targets)


def test_a_function_part_meets_its_cut_target():
    # the body x of the function part concludes h's label, an arrow whose
    # codomain must fit the redex's target
    ctx = parse_context("h:o->o->o, a:o")
    term, ty = annotate(ctx, parse_term("(\\x:o->o->o. x) h a"))
    for result, count in (("[*]-o*", 1), ("[]-o*", 0)):
        point = point_from_json({"ctx": {"h": "[[*]-o[*]-o*]", "a": "[*]"}, "type": result},
                                ctx, ty)
        rep = verify_identities(ctx, term, point)
        assert rep.ok and rep.wrel.value == rep.report.wit_plus == count, result
    # and whose domain must hold the type a copy of `\\z:o. g z` concludes:
    # [*,*,*]-o* when g takes three copies of z, which h's domain holds,
    # and [*,*]-o* when it takes two, which it does not
    ctx = parse_context("h:(o->o)->o, g:o->o")
    term, ty = annotate(ctx, parse_term("(\\x:(o->o)->o. x) h (\\z:o. g z)"))
    for g, count in (("[[*,*,*]-o*]", 1), ("[[*,*]-o*]", 0)):
        point = point_from_json({"ctx": {"h": "[[[*,*,*]-o*]-o*]", "g": g}, "type": "*"}, ctx, ty)
        rep = verify_identities(ctx, term, point)
        assert rep.ok and rep.wrel.value == rep.report.wit_plus == count, g


def test_a_result_up_to_symmetry_is_met_by_its_positive_sources():
    # a spine meets a canonical result up to symmetry at every type that
    # pos_sources_it lists, and at a reordering of the result only if the
    # listing holds it; the negative key holds alike for neg_targets_it
    rng = random.Random(36)
    listed, reordered, negative = 0, Counter(), Counter()
    for _ in range(3000):
        t = rand_stype(rng, 3)
        a = rand_canonical(rng, t, 3)
        target = derivation._Pos(a) if isinstance(a, IArrow) else a
        sources = pos_sources_it(a)
        assert all(derivation._fits(beta, target) for beta in sources), a
        listed += len(sources)
        targets = neg_targets_it(a)
        key = polar_class(a, False)
        assert all(polar_class(beta, False) == key for beta in targets), a
        for _ in range(2):
            beta = rand_reorder(rng, a)
            fits = derivation._fits(beta, target)
            assert fits == (beta in sources), (a, beta)
            reordered[fits] += beta != a
            same = polar_class(beta, False) == key
            assert same == (beta in targets), (a, beta)
            negative[same] += beta != a
    assert listed >= 5000 and reordered[True] >= 300 and reordered[False] >= 300, (
        listed, reordered)
    assert negative[True] >= 100 and negative[False] >= 300, negative


# The longest cut the split oracle tries at a corpus term's redexes: two
# where the redex's binder has two occurrences, and four, the widest bag
# of a corpus point, elsewhere.
ORACLE_BOUNDS = {"church-two-twice": 2, "lambda-argument-redex": 2}


def oracle_bound(entry: dict) -> int:
    return ORACLE_BOUNDS.get(entry["name"], 4)


def oracle_subjects():
    """{(label, bound): (ctx, term, type, point)} for the comparison with the
    split-guessing oracle, which tries cuts no longer than the bound."""
    out = {}
    for entry in CORPUS:
        for bound in (oracle_bound(entry), oracle_bound(entry) + 1):
            out[entry["name"], bound] = parse_entry(entry)
    out["church-two-twice", 3] = parse_entry(BY_NAME["church-two-twice"])
    for k in range(1, 5):
        out[f"church-{k}", k] = point_subject(*church_point(k))
    for n in (1, 2):
        out[f"fanout-{n}", None] = point_subject(*fanout_point(n))
    for n in (1, 2, 3):
        out[f"symmetric-{n}", None] = point_subject(*symmetric_point(n))
    for k in (1, 2, 3):
        out[f"distinct-g-{k}", None] = point_subject(*distinct_g_point(k))
    # the function part uses g before the argument's window of it starts
    out["argument-free-in-function", 1] = point_subject(
        "(\\h:o->o. h (g y)) g", {"g": "[[*]-o*,[*]-o*]", "y": "[*]"})
    # the redex's window of y ends before y's last element, which the second
    # argument takes
    out["window-before-a-later-use", 1] = point_subject(
        "f ((\\x:o. x) y) y", {"f": "[[*]-o[*]-o*]", "y": "[*,*]"}, "f:o->o->o, y:o")
    # z holds an element but `g y` does not use it: no derivation at all
    out["unused-z", None] = point_subject(
        "g y", {"g": "[[*]-o*]", "y": "[*]", "z": "[*]"}, "g:o->o, y:o, z:o")
    return out


def witnesses_everywhere(ctx, term, ty, point, bound):
    """The derivations at every negative target and positive source of the
    point: (threaded enumerator's, split oracle's, which tries cuts no
    longer than the bound)."""
    gamma, alpha = canonicalize_point(point, ctx, ty)
    cache: dict = {}
    return (per_target_witnesses(ctx, term, gamma, alpha),
            per_target_witnesses(ctx, term, gamma, alpha,
                                 lambda *args: split_witnesses(*args, bound, cache=cache)))


def test_threaded_enumeration_matches_split_oracle():
    # the enumerator threads the context through the term left to right; the
    # oracle guesses every split of it among the subterms instead
    counts = {"unused-z": 0, "distinct-g-3": 6, "argument-free-in-function": 1,
              "window-before-a-later-use": 1}
    compared = 0
    for (label, bound), (ctx, term, ty, point) in oracle_subjects().items():
        threaded, oracle = witnesses_everywhere(ctx, term, ty, point, bound)
        assert threaded == oracle, (label, bound)
        assert len(set(threaded)) == len(threaded), (label, bound)
        found = len(threaded)
        assert found == counts.get(label, found), label
        compared += found
    assert compared >= len(CORPUS)


def test_generated_points_match_split_oracle():
    inhabited = 0
    for entry, ctx, term, ty, point in generated_points():
        threaded, oracle = witnesses_everywhere(ctx, term, ty, point, oracle_bound(entry))
        assert threaded == oracle, (entry["name"], point)
        assert len(set(threaded)) == len(threaded)
        inhabited += bool(threaded)
        assert verify_identities(ctx, term, point).ok, (entry["name"], point)
    assert inhabited >= 20


def test_enumeration_validates_inputs():
    ctx, term, ty, gamma, alpha = subject("fan-out")
    with pytest.raises(DerivationError):
        enumerate_witnesses(ctx, term, gamma, IArrow((), S))
    with pytest.raises(DerivationError):
        enumerate_witnesses(ctx, term, ResourceContext(), alpha)
    flipped = ResourceContext(tuple(reversed(gamma.entries)))
    with pytest.raises(DerivationError):
        enumerate_witnesses(ctx, term, flipped, alpha)
    # the bag enumerator takes a canonical context, with every bag sorted
    unsorted = ResourceContext(tuple((x, tuple(reversed(seq)), t)
                                     for x, seq, t in gamma.entries))
    assert unsorted != gamma
    with pytest.raises(DerivationError):
        enumerate_bag_witnesses(ctx, term, unsorted, alpha)
    assert len(enumerate_bag_witnesses(ctx, term, gamma, alpha)) == 1


def test_symmetry_partition():
    _, _, ds = across_points("one-term-two-witnesses")
    d1, d2 = ds
    assert count_derivation_morphisms(d1, d2) > 0
    assert partition_by_symmetry(ds) == ((d1, d2),)
    _, _, shared = across_points("shared-head-two-ways")
    s1, s2 = shared
    assert count_derivation_morphisms(s1, s2) == count_derivation_morphisms(s2, s1) == 0
    assert partition_by_symmetry(shared) == ((s1,), (s2,))
    assert partition_by_symmetry(()) == ()


def nodes(r):
    yield r
    match r:
        case RLam(_, b, _):
            yield from nodes(b)
        case RApp(f, args):
            yield from nodes(f)
            for a in args:
                yield from nodes(a)


def has_redex(r):
    return any(isinstance(n, RApp) and isinstance(n.fn, RLam) for n in nodes(r))


def beta_expansions(ctx, term):
    """For each context variable v of type T, (\\u:T. M[u/v]) v and
    (\\u:T. (\\w:T. M[w/v]) u) v, where M is term."""
    taken = set(ctx.names()) | set(binders(term))
    u = fresh_name("u", taken)
    w = fresh_name("w", taken | {u})
    for v, t in ctx.bindings:
        yield App(Lam(u, substitute(term, v, Var(u)), t), Var(v))
        yield App(Lam(u, App(Lam(w, substitute(term, v, Var(w)), t), Var(u)), t), Var(v))


def expansion_subjects():
    """(label, ctx, redex, point): the beta-expansions of each normal corpus
    term at its point."""
    for entry in CORPUS:
        ctx, term, _, point = parse_entry(entry)
        if is_beta_normal(term):
            for i, expanded in enumerate(beta_expansions(ctx, term)):
                yield f"{entry['name']}-expanded-{i}", ctx, expanded, point


def beta_invariance_subjects():
    """(label, ctx, redex, point): the corpus entries that are not
    beta-normal, also at generated points, the expansions of those that
    are, and the redexes whose argument copies meet in every order."""
    for entry in CORPUS:
        ctx, term, _, point = parse_entry(entry)
        if not is_beta_normal(term):
            yield entry["name"], ctx, term, point
    yield from expansion_subjects()
    for label, ctx, term, point, _ in copies_in_every_order():
        yield label, ctx, term, point
    for entry, ctx, term, _, point in generated_points():
        if not is_beta_normal(term):
            yield entry["name"], ctx, term, point


def test_counts_are_beta_invariant():
    # a redex passes every identity and has the coefficient, the witness
    # count and the symmetry classes (size and endomorphisms) of its
    # beta-normal form
    def counts(rep):
        return rep.wit_plus, sorted(zip(map(len, rep.classes), rep.class_endos))

    seen = dict.fromkeys(("subjects", "with witnesses", "several classes"), 0)
    for label, ctx, term, point in beta_invariance_subjects():
        normal = positive_witnesses(prepare(ctx, beta_normalize(term), point))
        checked = verify_identities(ctx, term, point)
        assert checked.ok, label
        assert checked.wrel.value == normal.wit_plus, label
        assert counts(checked.report) == counts(normal), label
        seen["subjects"] += 1
        seen["with witnesses"] += normal.wit_plus > 0
        seen["several classes"] += len(normal.classes) > 1
    assert seen["subjects"] >= 350 and seen["with witnesses"] >= 90, seen
    assert seen["several classes"] >= 10, seen


def beta_bijection_subjects():
    """(label, ctx, redex, point): the corpus redexes, the redexes whose
    argument copies meet in every order, the higher-order cuts at n = 1 to
    3, the third-order cut, and the corpus redexes at every point of the
    N = M = 3 sweep."""
    for entry in CORPUS:
        ctx, term, _, point = parse_entry(entry)
        if not is_beta_normal(term):
            yield entry["name"], ctx, term, point
    for label, ctx, term, point, _ in copies_in_every_order():
        yield label, ctx, term, point
    for n in (1, 2, 3):
        ctx, term, _, point = point_subject(*higher_order_cut_point(n))
        yield f"higher-order-cut-{n}", ctx, term, point
    ctx, term, _, point = point_subject(*third_order_cut_point())
    yield "third-order-cut", ctx, term, point
    parsed = {}
    for entry, point in swept_points(3, 3):
        if entry["name"] not in parsed:
            parsed[entry["name"]] = parse_entry(entry)
        ctx, term, _, _ = parsed[entry["name"]]
        if not is_beta_normal(term):
            yield entry["name"], ctx, term, point


def check_read_back(label, ctx, term, point, split=None, cache=None) -> tuple[int, int]:
    """Check the read-back at a point of a redex: contract takes each
    witness back to the derivation of the normal form it was read from, so
    the read-back is one-to-one onto the normal form's witnesses, and each
    symmetry class goes to a class of the same size and the same degree.
    With a split bound, the witnesses read back are those the split oracle
    lists, without normalizing, at every rigid point the canonical one
    reaches, with cuts no longer than the bound; the oracle keeps its
    subproblems in cache, which the checks of one term may share.  The
    number of witnesses and of classes."""
    term, ty = annotate(ctx, term)
    gamma, a = canonicalize_point(point, ctx, ty)
    pairs = traced_witness_set(term, gamma, a)
    ds, normal = [d for d, _ in pairs], [n for _, n in pairs]
    assert [contract(d) for d in ds] == normal, label
    nf = beta_normalize(term, set(ctx.names()))
    assert sorted(normal, key=resource_to_text) == list(
        enumerate_bag_witnesses(ctx, nf, gamma, a).derivations), label
    index = {d: i for i, d in enumerate(ds)}
    classes = partition_by_symmetry(normal)
    assert [tuple(map(normal.index, cls)) for cls in classes] == [
        tuple(map(index.get, cls)) for cls in pairwise_partition(ds)], label
    assert [endo_count(cls[0]) for cls in classes] == [
        count_derivation_morphisms(ds[normal.index(cls[0])], ds[normal.index(cls[0])])
        for cls in classes], label
    if split is not None:
        found = per_target_witnesses(
            ctx, term, gamma, a, lambda *args: split_witnesses(*args, split, cache=cache))
        assert sorted(ds, key=resource_to_text) == sorted(
            (d for _, _, d in found), key=resource_to_text), label
    return len(ds), len(classes)


def test_contraction_is_a_class_keeping_bijection():
    # the split oracle tries cuts no longer than the point's width, but not
    # the 614,656 of the higher-order cut at n = 3, which take too long
    seen = Counter()
    for label, ctx, term, point in beta_bijection_subjects():
        split = None if label == "higher-order-cut-3" else point_width(point)
        witnesses, classes = check_read_back(label, ctx, term, point, split)
        seen["subjects"] += 1
        seen["witnesses"] += witnesses
        seen["several classes"] += classes > 1
    assert seen["subjects"] >= 500 and seen["witnesses"] >= 60, seen
    assert seen["several classes"] >= 4, seen


# Undoing the step at the redex (\\k:o. g k (z y)) (h (z y)) moves the
# second occurrence of z before the first, so the lambda binding z
# concludes its domain in the other order, and f's label follows it.  The
# read-back derivations are the term's own, as the split oracle lists
# them, and contract, which retypes f's label back, undoes the read-back.
def test_a_head_above_the_redex_takes_the_types_its_arguments_now_conclude():
    ctx = parse_context("f:((o->o)->o)->o, g:o->o->o, h:o->o, y:o")
    term, ty = annotate(ctx, parse_term("f (\\z:o->o. (\\k:o. g k (z y)) (h (z y)))"))
    point = point_from_json({"ctx": {"f": "[[[[*]-o*,[]-o*]-o*]-o*]", "g": "[[*]-o[*]-o*]",
                                     "h": "[[*]-o*]", "y": "[*]"}, "type": "*"}, ctx, ty)
    rep = verify_identities(ctx, term, point)
    assert rep.ok and rep.wrel.value == rep.report.wit_plus == 2
    gamma, a = canonicalize_point(point, ctx, ty)
    pairs = traced_witness_set(term, gamma, a)
    split = per_target_witnesses(ctx, term, gamma, a,
                                 lambda *args: split_witnesses(*args, point_width(point)))
    assert {d for d, _ in pairs} == {d for _, _, d in split} and len(pairs) == len(split) == 2
    for d, normal in pairs:
        assert check_derivation(ctx, term, d)
        assert rt_occurrence_labels(d, "f") != rt_occurrence_labels(normal, "f")
        assert contract(d) is normal


def arrow_binder_argument(t) -> bool:
    """Whether some argument in t is a lambda whose binder has an arrow
    type."""
    match t:
        case App(f, a):
            return ((isinstance(a, Lam) and isinstance(a.annot, Arrow))
                    or arrow_binder_argument(f) or arrow_binder_argument(a))
        case Lam(_, b, _):
            return arrow_binder_argument(b)
    return False


def read_back_subjects():
    """(label, ctx, redex, point): the corpus redexes at their points and at
    every point of the N = M = 3 sweep, the small terms' redexes at theirs,
    and the Church towers up to m = 6."""
    parsed = {}
    for entry, point in [(e, None) for e in CORPUS] + list(swept_points(3, 3)):
        if entry["name"] not in parsed:
            parsed[entry["name"]] = parse_entry(entry)
        ctx, term, _, own = parsed[entry["name"]]
        if not is_beta_normal(term):
            yield entry["name"], ctx, term, point or own
    ctx = parse_context("f:o->o, g:o->o->o, y:o")
    for term in small_terms(ctx, Base(), 8):
        if not is_beta_normal(term):
            for point in small_points(ctx, term):
                yield term_to_text(term), ctx, term, point
    for m in range(1, 7):
        ctx, term, _, point = point_subject(*church_tower_point(m))
        yield f"church-tower-{m}", ctx, term, point


def read_back_summary(pairs):
    """What a read-back decides: its witnesses, and each symmetry class, the
    witnesses read back from it, with its degree, all as multisets."""
    read_from = dict(map(reversed, pairs))
    classes = partition_by_symmetry(n for _, n in pairs)
    return (Counter(d for d, _ in pairs),
            Counter((frozenset(Counter(map(read_from.get, cls)).items()), endo_count(cls[0]))
                    for cls in classes))


def test_the_trace_reads_back_what_the_steps_read_back():
    # the one-pass read-back along the normal form's trace against the
    # step-by-step one: the same witnesses, classes and degrees
    seen = Counter()
    for label, ctx, term, point in read_back_subjects():
        gamma, a = canonicalize_point(point, ctx, annotate(ctx, term)[1])
        traced = traced_witness_set(term, gamma, a)
        assert read_back_summary(traced) == read_back_summary(
            stepwise_witness_set(term, gamma, a)), (label, point)
        seen["subjects"] += 1
        seen["witnesses"] += len(traced)
        seen["towers"] += label.startswith("church-tower")
    assert seen["subjects"] >= 4400 and seen["witnesses"] >= 400 and seen["towers"] == 6, seen


def test_the_tower_and_the_third_order_label_have_one_witness():
    for point in ([church_tower_point(m) for m in range(1, 6)]
                  + [third_order_label_point(k) for k in range(1, 6)]):
        ctx, term, _, pt = point_subject(*point)
        rep = verify_identities(ctx, term, pt)
        assert rep.ok and rep.wrel.value == rep.report.wit_plus == 1, point[0]


def test_every_small_term_passes_the_identities_and_the_bijection():
    # every term of type o over f, g and y up to size 8, arguments of type
    # o, o->o and (o->o)->o, at every point whose free variables hold bags
    # of at most two elements and three stars; the split oracle tries cuts
    # no longer than the point's width
    ctx = parse_context("f:o->o, g:o->o->o, y:o")
    seen = Counter()
    for term in small_terms(ctx, Base(), 8):
        label = term_to_text(term)
        cache: dict = {}
        for point in small_points(ctx, term):
            rep = verify_identities(ctx, term, point)
            assert rep.ok, (label, point)
            if not is_beta_normal(term):
                witnesses, _ = check_read_back(label, ctx, term, point, point_width(point),
                                               cache)
                assert witnesses == rep.report.wit_plus, (label, point)
                seen["redex witnesses"] += witnesses
            seen["points"] += 1
            seen["non-zero"] += rep.wrel.value != 0
        seen["terms"] += 1
        seen["redexes"] += not is_beta_normal(term)
        seen["arrow binders in arguments"] += arrow_binder_argument(term)
    assert seen == {"terms": 204, "redexes": 196, "points": 4590, "non-zero": 409,
                    "redex witnesses": 365, "arrow binders in arguments": 35}, seen


def morphism_count_subjects():
    """(label, ctx, term, point) for comparing the morphism count with the
    listing."""
    for entry in CORPUS:
        ctx, term, _, point = parse_entry(entry)
        yield entry["name"], ctx, term, point
    # redexes with several witnesses, some in several classes
    yield from expansion_subjects()
    families = ([(f"symmetric-{n}", symmetric_point(n)) for n in range(1, 6)]
                + [(f"fanout-{n}", fanout_point(n)) for n in range(1, 4)]
                + [(f"church-{k}", church_point(k)) for k in range(1, 6)]
                + [(f"distinct-g-{k}", distinct_g_point(k)) for k in range(1, 4)])
    # arguments of arrow type: a bare variable, and partial applications
    # whose codomains have endomorphisms of their own
    ho = "k:(o->o)->o, f:o->o->o, g:o->o, x:o"
    families += [
        ("bare-higher-order-argument",
         ("k g", {"k": "[[[*,*]-o*]-o*]", "g": "[[*,*]-o*]"}, ho)),
        ("partial-applications",
         ("k (f x)", {"k": "[[[*,*]-o*,[*,*]-o*]-o*]",
                      "f": "[[*]-o[*,*]-o*,[*]-o[*,*]-o*]", "x": "[*,*]"}, ho)),
        ("partial-applications-apart",
         ("k (f x)", {"k": "[[[*,*]-o*,[*]-o*]-o*]",
                      "f": "[[*]-o[*,*]-o*,[*]-o[*]-o*]", "x": "[*,*]"}, ho)),
    ]
    for label, pt in families:
        ctx, term, _, point = point_subject(*pt)
        yield label, ctx, term, point
    for entry, ctx, term, _, point in generated_points():
        yield entry["name"], ctx, term, point


def test_morphism_count_matches_listing():
    # every witness with itself, and both ways with the two witnesses of the
    # same term before it, at its point or at the one before; at a subject
    # whose witnesses have a redex, every ordered pair of its first five
    # witnesses; at every subject with several witnesses, the partition by
    # the collapse key against the pairwise ones by counts and by listing
    seen = dict.fromkeys(("redex", "lambda-argument", "symmetric", "asymmetric"), 0)
    partitioned = dict.fromkeys(("several witnesses", "with a redex", "several classes"), 0)
    window: list = []
    last_term = None
    for label, ctx, term, point in morphism_count_subjects():
        if term != last_term:
            window, last_term = [], term
        rep = positive_witnesses(prepare(ctx, term, point))
        ds = [w.derivation for w in rep.witnesses]
        if len(ds) > 1:
            # the library partitions the contracta, derivations of the
            # normal form
            classes = partition_by_symmetry(map(contract, ds))
            for pairwise in (pairwise_partition(ds),
                             pairwise_partition(ds, enumerate_derivation_morphisms)):
                assert classes == tuple(tuple(map(contract, c)) for c in pairwise), label
            partitioned["several witnesses"] += 1
            partitioned["several classes"] += len(classes) > 1
            if any(map(has_redex, ds)):
                for x in ds[:5]:
                    for y in ds[:5]:
                        assert count_derivation_morphisms(x, y) == len(
                            enumerate_derivation_morphisms(x, y)), (
                            label, resource_to_text(x), resource_to_text(y))
                partitioned["with a redex"] += 1
        for d in ds:
            assert count_derivation_morphisms(d, d) == len(
                enumerate_derivation_morphisms(d, d)), (label, resource_to_text(d))
            if has_redex(d):
                seen["redex"] += 1
            elif any(isinstance(n, RApp) and any(isinstance(a, RLam) for a in n.args)
                     for n in nodes(d)):
                seen["lambda-argument"] += 1
            for e in window:
                for x, y in ((d, e), (e, d)):
                    n = count_derivation_morphisms(x, y)
                    assert n == len(enumerate_derivation_morphisms(x, y)), (
                        label, resource_to_text(x), resource_to_text(y))
                    seen["symmetric" if n else "asymmetric"] += 1
            window = [d] + window[:1]
    assert min(seen.values()) >= 3, seen
    assert partitioned["several witnesses"] >= 33, partitioned
    assert partitioned["with a redex"] >= 25, partitioned
    assert partitioned["several classes"] >= 7, partitioned
    # k! witnesses in one class, too many endomorphisms each to list them
    for k in (4, 5):
        ctx, term, _, point = point_subject(*distinct_g_point(k))
        ds = [w.derivation for w in positive_witnesses(prepare(ctx, term, point)).witnesses]
        assert len(ds) == factorial(k)
        assert partition_by_symmetry(ds) == pairwise_partition(ds) == (tuple(ds),), k
