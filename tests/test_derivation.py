import random
from collections import Counter
from functools import partial
from math import factorial

import pytest

from thinspan import derivation
from thinspan.syntax import (
    App, Base, Lam, Var, annotate, beta_normalize, fresh_name, is_beta_normal, parse_context,
    parse_simple_type, parse_term, substitute, term_to_text,
)
from thinspan.rigidtypes import (
    IArrow, ResourceContext, Star, canonicalize_point, is_canonical, parse_itype,
    point_from_json,
)
from thinspan.symmetry import neg_targets_it, polar_class, pos_sources_it
from thinspan.derivation import (
    BudgetRequiredError, DerivationError, RApp, RLam, RVar,
    contract, count_derivation_morphisms, endo_count,
    enumerate_witnesses, multiset_collapse_term, omega_substitute,
    partition_by_symmetry, resource_to_text, rt_context, rt_occurrence_labels, rt_type,
)
from thinspan.collapse import positive_witnesses, prepare, verify_identities

from reference import (
    check_derivation, dm_occurrences, enumerate_bag_witnesses, enumerate_derivation_morphisms,
    identity_dm, src_it, src_seq, tgt_it, tgt_seq,
)
from support import (
    across_points, argument_type, binders, bounded_refinements, bounded_seqs, built_nodes,
    church_point, clear_memos, copies_in_every_order, distinct_g_point, entry_budget,
    fanout_point, generated_points, guessed_cut_point, guessed_cut_subjects,
    higher_order_cut_point, load_corpus, pairwise_partition, parse_entry, per_target_witnesses,
    point_subject, point_width, probed_pool, rand_canonical, rand_reorder, rand_stype,
    split_witnesses, subject_types, symmetric_point,
)

S = Star()
CORPUS = load_corpus()
BY_NAME = {e["name"]: e for e in CORPUS}


def subject(name):
    ctx, term, ty, point = parse_entry(BY_NAME[name])
    gamma, alpha = canonicalize_point(point, ctx, ty)
    return ctx, term, ty, gamma, alpha


def at_point(name, budget=None):
    """Witness set at the canonical rigid point itself."""
    ctx, term, _, gamma, alpha = subject(name)
    return ctx, term, enumerate_witnesses(ctx, term, gamma, alpha, budget)


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
    assert ws.bounded_at is None
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
        budget = entry_budget(entry)
        for th, al, r in per_target_witnesses(ctx, term, gamma, alpha, budget):
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
        budget = entry_budget(entry)
        for w in positive_witnesses(prepare(ctx, term, point), budget).witnesses:
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
        budget = entry_budget(entry)
        for w in positive_witnesses(prepare(ctx, term, point), budget).witnesses:
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
        budget = entry_budget(entry)
        ws = positive_witnesses(prepare(ctx, term, point), budget).witnesses
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
    # the cut is read off the argument's copies, so a budget given goes unread
    ctx, term, ws = at_point("duplicating-redex", budget=1)
    assert ws.bounded_at is None
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
    assert contract(m1) == c1 and contract(m2) == c2
    assert count_derivation_morphisms(m1, m2) == 0
    assert endo_count(m1) == endo_count(m2) == 1
    assert partition_by_symmetry((m1, m2)) == ((m1,), (m2,))


def test_budget_required_for_redexes():
    # a redex whose cut the point fixes is exact, with or without a budget
    ctx, term, _, gamma, alpha = subject("identity-redex")
    ws = enumerate_witnesses(ctx, term, gamma, alpha)
    assert len(ws) == 1 and ws.bounded_at is None
    assert enumerate_witnesses(ctx, term, gamma, alpha, 1) == ws
    # the labels of an open binder of arrow type, h here, only a budget bounds
    ctx, term, ty, point = point_subject(*higher_order_cut_point())
    gamma, alpha = canonicalize_point(point, ctx, ty)
    with pytest.raises(BudgetRequiredError, match="open binder of type o -> o"):
        enumerate_witnesses(ctx, term, gamma, alpha)
    ws = enumerate_witnesses(ctx, term, gamma, alpha, 1)
    assert len(ws) == 1 and ws.bounded_at == 1


@pytest.mark.parametrize("budget", [-1, True, False, 2.0, "2"])
def test_budget_must_be_a_non_negative_int(budget):
    # also where the term is normal and no cut reads the budget
    for point, term_budget in ((church_point(2), 2), (symmetric_point(2), None)):
        ctx, term, _, pt = point_subject(*point)
        assert verify_identities(ctx, term, pt, term_budget).ok
        with pytest.raises(DerivationError, match="budget"):
            verify_identities(ctx, term, pt, budget)
        with pytest.raises(DerivationError, match="budget"):
            positive_witnesses(prepare(ctx, term, pt), budget)


def test_forced_cuts_ignore_budget():
    # the cut for a bare-variable argument is a window of that variable's
    # remaining elements, so even a three element cut appears at budget 1
    _, _, ds = across_points("church-two-at-fan", budget=1)
    assert len(ds) == 1


def test_candidate_cuts_respect_budget():
    # a cut over a lambda argument is read off its copies, whatever the
    # budget: church-two-twice's cut of two <*>-o* appears at budget 0
    for budget in (None, 0, 1, 4):
        _, _, ds = across_points("church-two-twice", budget=budget)
        assert len(ds) == 1, budget
    # only an open binder of arrow type respects the budget: h's label in
    # the higher-order cut at n = 2 is [*,*]-o*, which budget 1 does not admit
    ctx, term, ty, point = point_subject(*higher_order_cut_point(2))
    gamma, a = canonicalize_point(point, ctx, ty)
    for budget, count in ((1, 0), (2, 1), (3, 1)):
        assert len(per_target_witnesses(ctx, term, gamma, a, budget)) == count, budget


# The pool a redex's function part draws its cut from: the types one copy
# of its argument concludes.  Every refinement of the argument's type whose
# sequences are no longer than the point's longest sequence is its oracle,
# through which the function part tries every such cut: the two must give
# the same derivations, in bags and in sequences.

CUT_POOL = derivation._cut_pool


def full_pool(a, ctx, run, types, width):
    """Every refinement of a's type no wider than the point; a variable's
    pool, every label it may take, is the real one."""
    if isinstance(a, Var):
        return CUT_POOL(a, ctx, run)
    return bounded_refinements(argument_type(a, types), width)


def whole_context_pool(a, ctx, run, types, width):
    """A pool pruned against the whole context alone, which misses the types
    a copy concludes from a suffix of a sequence only."""
    return tuple(beta for beta in bounded_refinements(argument_type(a, types), width)
                 if derivation._enum(a, ctx, beta, run, frozenset()))


def pool_without_its_last_type(a, ctx, run, types, width):
    return CUT_POOL(a, ctx, run)[:-1]


def guessed_cut_derivations(subjects, budgets, pool=None):
    """{(label, budget): (derivations from the bags at the canonical point,
    derivations at each rigid point they reach)}, computed afresh with the
    pool given, or the enumerator's own.  A pool given is called as
    pool(a, ctx, run, types, width), with the subject's types
    (subject_types) and its point's width (point_width)."""
    clear_memos()
    saved = derivation._cut_pool
    try:
        out = {}
        for label, ctx, term, ty, point in subjects:
            derivation._cut_pool = (partial(pool, types=subject_types(ctx, term),
                                            width=point_width(point)) if pool else saved)
            gamma, a = canonicalize_point(point, ctx, ty)
            for budget in budgets:
                bags = enumerate_bag_witnesses(ctx, term, gamma, a, budget).derivations
                out[label, budget] = bags, per_target_witnesses(ctx, term, gamma, a, budget)
        return out
    finally:
        derivation._cut_pool = saved
        clear_memos()


def test_pruned_cuts_match_the_full_listing():
    # no subject has an open binder of arrow type, so none needs a budget
    subjects = list(guessed_cut_subjects())
    pruned = guessed_cut_derivations(subjects, (None,))
    assert pruned == guessed_cut_derivations(subjects, (None,), pool=full_pool)
    found = {label: len(pruned[label, None][0]) for label, *_ in subjects}
    assert found["copies-down-a-sequence"] == found["copies-down-a-binder"] == 2, found
    assert found["binder-in-argument"] == found["lambda-argument-redex"] == 1, found
    assert sum(map(bool, found.values())) >= 25, found
    # a pool that misses a type, or is pruned against the whole context
    # alone, loses derivations
    for mutant in (pool_without_its_last_type, whole_context_pool):
        lost = guessed_cut_derivations(subjects, (None,), pool=mutant)
        assert sorted(k for k in pruned if lost[k] != pruned[k]), mutant.__name__


def pools_checked(subjects, budgets):
    """The pools of the redexes whose argument is not a variable that the
    subjects meet at the budgets.  Each pool of a run without a budget is
    checked, as it is computed, against probed_pool at the point's width:
    the same types in the same order.  A variable's pool is every label it
    may take; a run under a budget has an open binder of arrow type, whose
    labels the budget bounds."""
    pools = []

    def checked(a, ctx, run, types, width):
        pool = CUT_POOL(a, ctx, run)
        if not isinstance(a, Var):
            if run.budget is None:
                assert pool == probed_pool(a, ctx, run, types, width), term_to_text(a)
            pools.append(pool)
        return pool

    guessed_cut_derivations(subjects, budgets, pool=checked)
    return pools


def test_synthesized_pool_is_the_probed_pool():
    assert len(pools_checked(list(guessed_cut_subjects()), (None,))) >= 25
    for n in range(1, 7):
        subject = (f"guessed-cut-{n}", *point_subject(*guessed_cut_point(n)))
        pools = pools_checked([subject], (None, 0, n - 1))
        assert set(pools) == {(parse_itype(f"<{','.join('*' * n)}>-o*"),)}, n
    # an open binder as the argument of a redex inside the argument: its
    # copies are the occurrences of the redex's binder
    for term, point_ctx, ctx_text in (
            ("(\\k:o->o. k y) (\\z:o. (\\w:o. g w) z)", {"g": "[[*]-o*]", "y": "[*]"},
             "g:o->o, y:o"),
            ("(\\k:o->o. k y) (\\z:o. (\\w:o. f w w) z)", {"f": "[[*]-o[*]-o*]", "y": "[*,*]"},
             "f:o->o->o, y:o"),
            ("(\\k:(o->o)->o. k g) (\\h:o->o. (\\m:o->o. m y) h)", {"g": "[[*]-o*]", "y": "[*]"},
             "g:o->o, y:o"),
            # and the function part is a redex, not a lambda, whose body
            # concludes what the open binder's copies lead to
            ("(\\k:o->o. k c) (\\y:o. (\\x:o->o. x) g y)", {"g": "[[*]-o*]", "c": "[*]"},
             "g:o->o, c:o"),
            ("(\\k:o->o. k c) (\\y:o. (\\x:o. g) b y)", {"g": "[[*]-o*]", "c": "[*]", "b": "[]"},
             "g:o->o, c:o, b:o"),
            # the function part of the inner redex is itself a redex, whose
            # argument g is taken from a bag: the copies conclude <>-o*
            ("(\\k:o->o. k c) (\\z:o. (\\x:o->o. x) g y)", {"g": "[[*]-o*]", "y": "[*]", "c": "[]"},
             "g:o->o, y:o, c:o")):
        ctx, term, ty, point = point_subject(term, point_ctx, ctx_text)
        assert pools_checked([(term_to_text(term), ctx, term, ty, point)], (1, 2, 3))
        rep = verify_identities(ctx, term, point, 2)
        assert rep.ok and rep.wrel.value == rep.report.wit_plus == 1
    # the binder of the argument's lambda has an arrow type, so its
    # occurrence takes any refinement of o->o the budget admits, and y's n
    # elements bound its domain
    for n, budgets in ((1, (3, 4, 5)), (2, (1, 2, 3))):
        subject = (f"higher-order-cut-{n}", *point_subject(*higher_order_cut_point(n)))
        for budget in budgets:
            pools = pools_checked([subject], (budget,))
            assert set(pools) == {tuple(parse_itype(f"<<{','.join('*' * m)}>-o*>-o*")
                                        for m in range(min(n, budget) + 1))}, (n, budget)


def pools_tried(ctx, term, point, budget):
    """The verified report of a subject, computed afresh, and the pool of
    each redex whose argument is not a variable."""
    pools = []

    def recorded(a, ctx, run):
        pool = cut_pool(a, ctx, run)
        if not isinstance(a, Var):
            pools.append(pool)
        return pool

    clear_memos()
    cut_pool, derivation._cut_pool = derivation._cut_pool, recorded
    try:
        return verify_identities(ctx, term, point, budget), pools
    finally:
        derivation._cut_pool = cut_pool


def listed(budget, pool):
    """How many sequences of length at most the budget a pool gives."""
    return sum(pool ** n for n in range(budget + 1))


def test_guessed_cut_family_tries_one_type():
    o_o = parse_simple_type("o->o")
    for n in range(1, 7):
        ctx, term, _, point = point_subject(*guessed_cut_point(n))
        # at any budget, none or one narrower than the cut, the binder takes
        # the one type [*^n]-o*, not every refinement of o->o, and the
        # report is exact
        for budget in (None, 0, n - 1, n, 8):
            rep, pools = pools_tried(ctx, term, point, budget)
            assert rep.ok and rep.wrel.value == rep.report.wit_plus == 1, (n, budget)
            assert rep.report.bounded_at is None, (n, budget)
            assert pools == [(parse_itype(f"<{','.join('*' * n)}>-o*"),)], (n, budget, pools)
    # a full listing would try every sequence over the b + 1 refinements of
    # o->o
    assert all(len(bounded_refinements(o_o, b)) == b + 1 for b in (2, 3, 4, 6, 8))
    assert [listed(b, b + 1) for b in (2, 3, 4, 6, 8)] == [13, 85, 781, 137_257, 48_427_561]
    assert [len(bounded_seqs(o_o, b)) for b in (2, 3, 4)] == [13, 85, 781]
    ctx, term, _, point = parse_entry(BY_NAME["church-two-twice"])
    for budget in (None, 0, 2, 3, 4):
        rep, pools = pools_tried(ctx, term, point, budget)
        assert rep.ok and pools == [(parse_itype("<*>-o*"),)], (budget, pools)


def rigid(beta) -> bool:
    """Whether beta is a rigid type all the way down."""
    return isinstance(beta, Star) or (isinstance(beta, IArrow) and rigid(beta.codomain)
                                      and all(map(rigid, beta.domain)))


def well_formed_target(alpha) -> bool:
    """Whether alpha is a target the enumerator knows: open, a cut over
    rigid types whose result is a target, up to symmetry at a canonical
    arrow type, or a rigid type."""
    if isinstance(alpha, derivation._Cut):
        return all(map(rigid, alpha.pool)) and well_formed_target(alpha.result)
    if isinstance(alpha, derivation._Pos):
        return isinstance(alpha.a, IArrow) and rigid(alpha.a) and is_canonical(alpha.a)
    return alpha is None or rigid(alpha)


def test_every_target_is_open_a_cut_or_rigid():
    # an arrow with an open codomain is none of them, and no spine meets it
    targets = []

    def recorded(term, ctx, alpha, run, must):
        targets.append(alpha)
        return enum(term, ctx, alpha, run, must)

    enum, derivation._enum = derivation._enum, recorded
    try:
        clear_memos()
        for entry in CORPUS:
            ctx, term, _, point = parse_entry(entry)
            verify_identities(ctx, term, point, entry_budget(entry))
        guessed_cut_derivations(list(guessed_cut_subjects()), (None,))
    finally:
        derivation._enum = enum
    bad = sum(not well_formed_target(alpha) for alpha in targets)
    assert bad == 0, f"{bad} of {len(targets)} targets are ill-formed"
    assert None in targets and any(isinstance(alpha, derivation._Cut) for alpha in targets)
    assert any(isinstance(alpha, derivation._Pos) for alpha in targets)


def test_a_function_part_meets_its_cut_target():
    # the body x of the function part concludes h's label, an arrow that
    # meets the cut target only if its codomain fits the redex's target
    ctx = parse_context("h:o->o->o, a:o")
    term, ty = annotate(ctx, parse_term("(\\x:o->o->o. x) h a"))
    for result, count in (("[*]-o*", 1), ("[]-o*", 0)):
        point = point_from_json({"ctx": {"h": "[[*]-o[*]-o*]", "a": "[*]"}, "type": result},
                                ctx, ty)
        rep = verify_identities(ctx, term, point, 2)
        assert rep.ok and rep.wrel.value == rep.report.wit_plus == count, result
    # and only if its domain draws on the pool, the one type a copy of
    # `\\z:o. g z` concludes, whatever the budget: [*,*,*]-o* when g takes
    # three copies of z, which h's domain holds, and [*,*]-o* when it takes
    # two, which it does not
    ctx = parse_context("h:(o->o)->o, g:o->o")
    term, ty = annotate(ctx, parse_term("(\\x:(o->o)->o. x) h (\\z:o. g z)"))
    for g, count in (("[[*,*,*]-o*]", 1), ("[[*,*]-o*]", 0)):
        point = point_from_json({"ctx": {"h": "[[[*,*,*]-o*]-o*]", "g": g}, "type": "*"}, ctx, ty)
        for budget in (None, 0, 2):
            rep = verify_identities(ctx, term, point, budget)
            assert rep.ok and rep.report.bounded_at is None, (g, budget)
            assert rep.wrel.value == rep.report.wit_plus == count, (g, budget)


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


def oracle_subjects():
    """{(label, budget): (ctx, term, type, point)} for the comparison with the
    split-guessing oracle."""
    out = {}
    for entry in CORPUS:
        for budget in (entry_budget(entry), entry_budget(entry) + 1):
            out[entry["name"], budget] = parse_entry(entry)
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


def witnesses_everywhere(ctx, term, ty, point, budget):
    """The derivations at every negative target and positive source of the
    point: (threaded enumerator's, split oracle's)."""
    gamma, alpha = canonicalize_point(point, ctx, ty)
    cache: dict = {}
    return (per_target_witnesses(ctx, term, gamma, alpha, budget),
            per_target_witnesses(ctx, term, gamma, alpha, budget,
                                 lambda *args: split_witnesses(*args, cache=cache)))


def test_threaded_enumeration_matches_split_oracle():
    # the enumerator threads the context through the term left to right; the
    # oracle guesses every split of it among the subterms instead
    counts = {"unused-z": 0, "distinct-g-3": 6, "argument-free-in-function": 1,
              "window-before-a-later-use": 1}
    compared = 0
    for (label, budget), (ctx, term, ty, point) in oracle_subjects().items():
        threaded, oracle = witnesses_everywhere(ctx, term, ty, point, budget)
        assert threaded == oracle, (label, budget)
        assert len(set(threaded)) == len(threaded), (label, budget)
        found = len(threaded)
        assert found == counts.get(label, found), label
        compared += found
    assert compared >= len(CORPUS)


def test_generated_points_match_split_oracle():
    inhabited = 0
    for entry, ctx, term, ty, point in generated_points():
        threaded, oracle = witnesses_everywhere(ctx, term, ty, point, entry_budget(entry))
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
    """(label, ctx, redex, point, budget): the beta-expansions of each normal
    corpus term at its point, at budgets 2 and 3."""
    for entry in CORPUS:
        ctx, term, _, point = parse_entry(entry)
        if is_beta_normal(term):
            for i, expanded in enumerate(beta_expansions(ctx, term)):
                for budget in (2, 3):
                    yield f"{entry['name']}-expanded-{i}", ctx, expanded, point, budget


def beta_invariance_subjects():
    """(label, ctx, redex, point, budget): the corpus entries that are not
    beta-normal, also at generated points, the expansions of those that
    are, and the redexes whose argument copies meet in every order."""
    for entry in CORPUS:
        ctx, term, _, point = parse_entry(entry)
        if not is_beta_normal(term):
            yield entry["name"], ctx, term, point, entry_budget(entry)
    yield from expansion_subjects()
    for label, ctx, term, point, budget, _ in copies_in_every_order():
        yield label, ctx, term, point, budget
    for entry, ctx, term, _, point in generated_points():
        if not is_beta_normal(term):
            yield entry["name"], ctx, term, point, entry_budget(entry)


def test_counts_are_beta_invariant():
    # a redex passes every identity and has the coefficient, the witness
    # count and the symmetry classes (size and endomorphisms) of its
    # beta-normal form, at its budget and at one more
    def counts(rep):
        return rep.wit_plus, sorted(zip(map(len, rep.classes), rep.class_endos))

    seen = dict.fromkeys(("subjects", "with witnesses", "several classes"), 0)
    for label, ctx, term, point, budget in beta_invariance_subjects():
        normal = positive_witnesses(prepare(ctx, beta_normalize(term), point))
        checked = verify_identities(ctx, term, point, budget)
        assert checked.ok, label
        assert checked.wrel.value == normal.wit_plus, label
        assert counts(checked.report) == counts(normal), label
        wider = positive_witnesses(prepare(ctx, term, point), budget + 1)
        assert counts(wider) == counts(normal), label
        seen["subjects"] += 1
        seen["with witnesses"] += normal.wit_plus > 0
        seen["several classes"] += len(normal.classes) > 1
    assert seen["subjects"] >= 380 and seen["with witnesses"] >= 120, seen
    assert seen["several classes"] >= 10, seen


def morphism_count_subjects():
    """(label, ctx, term, point, budget) for comparing the morphism count with
    the listing."""
    for entry in CORPUS:
        ctx, term, _, point = parse_entry(entry)
        yield (entry["name"], ctx, term, point, entry_budget(entry))
    # redexes with several witnesses, some in several classes
    yield from expansion_subjects()
    families = ([(f"symmetric-{n}", symmetric_point(n), None) for n in range(1, 6)]
                + [(f"fanout-{n}", fanout_point(n), None) for n in range(1, 4)]
                + [(f"church-{k}", church_point(k), k) for k in range(1, 6)]
                + [(f"distinct-g-{k}", distinct_g_point(k), None) for k in range(1, 4)])
    # arguments of arrow type: a bare variable, and partial applications
    # whose codomains have endomorphisms of their own
    ho = "k:(o->o)->o, f:o->o->o, g:o->o, x:o"
    families += [
        ("bare-higher-order-argument",
         ("k g", {"k": "[[[*,*]-o*]-o*]", "g": "[[*,*]-o*]"}, ho), None),
        ("partial-applications",
         ("k (f x)", {"k": "[[[*,*]-o*,[*,*]-o*]-o*]",
                      "f": "[[*]-o[*,*]-o*,[*]-o[*,*]-o*]", "x": "[*,*]"}, ho), None),
        ("partial-applications-apart",
         ("k (f x)", {"k": "[[[*,*]-o*,[*]-o*]-o*]",
                      "f": "[[*]-o[*,*]-o*,[*]-o[*]-o*]", "x": "[*,*]"}, ho), None),
    ]
    for label, pt, budget in families:
        ctx, term, _, point = point_subject(*pt)
        yield label, ctx, term, point, budget
    for entry, ctx, term, _, point in generated_points():
        yield (entry["name"], ctx, term, point, entry_budget(entry))


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
    for label, ctx, term, point, budget in morphism_count_subjects():
        if term != last_term:
            window, last_term = [], term
        rep = positive_witnesses(prepare(ctx, term, point), budget)
        ds = [w.derivation for w in rep.witnesses]
        if len(ds) > 1:
            classes = partition_by_symmetry(ds)
            assert classes == pairwise_partition(ds), label
            assert classes == pairwise_partition(ds, enumerate_derivation_morphisms), label
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
    assert partitioned["several witnesses"] >= 55, partitioned
    assert partitioned["with a redex"] >= 40, partitioned
    assert partitioned["several classes"] >= 10, partitioned
    # k! witnesses in one class, too many endomorphisms each to list them
    for k in (4, 5):
        ctx, term, _, point = point_subject(*distinct_g_point(k))
        ds = [w.derivation for w in positive_witnesses(prepare(ctx, term, point)).witnesses]
        assert len(ds) == factorial(k)
        assert partition_by_symmetry(ds) == pairwise_partition(ds) == (tuple(ds),), k
