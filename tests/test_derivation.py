import dataclasses
from math import factorial

import pytest

from thinspan import derivation
from thinspan.syntax import (
    App, Base, Lam, Var, annotate, beta_normalize, fresh_name, is_beta_normal, parse_context,
    parse_simple_type, parse_term, substitute,
)
from thinspan.rigidtypes import IArrow, ResourceContext, Star, canonicalize_point, point_from_json
from thinspan.symmetry import pos_sources_it
from thinspan.derivation import (
    BoundedAt, BudgetRequiredError, DerivationError, Exact, RApp, RLam, RVar,
    _bounded_refinements, _bounded_seqs, contract, count_derivation_morphisms, endo_count,
    enumerate_witnesses, multiset_collapse_term, omega_substitute,
    partition_by_symmetry, resource_to_text, rt_context, rt_occurrence_labels, rt_type,
)
from thinspan.collapse import positive_witnesses, prepare, verify_identities

from reference import (
    check_derivation, dm_occurrences, enumerate_bag_witnesses, enumerate_derivation_morphisms,
    identity_dm, src_it, src_seq, tgt_it, tgt_seq,
)
from support import (
    COPIES_IN_EVERY_ORDER, across_points, binders, built_nodes, church_point, clear_memos,
    copies_in_every_order, distinct_g_point, entry_budget, fanout_point, guessed_cut_point,
    load_corpus, pairwise_partition, parse_entry, generated_points, per_target_witnesses,
    point_subject, split_witnesses, symmetric_point,
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
    assert isinstance(ws.completeness, Exact)
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
    for bad in (dataclasses.replace(lam, binder="z"),
                dataclasses.replace(lam, annot=parse_simple_type("o->o"))):
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
        budget = None if is_beta_normal(term) else entry_budget(entry)
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
        budget = None if is_beta_normal(term) else entry_budget(entry)
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
        budget = None if is_beta_normal(term) else entry_budget(entry)
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
        budget = None if is_beta_normal(term) else entry_budget(entry)
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
    ctx, term, ws = at_point("duplicating-redex", budget=1)
    assert ws.completeness == BoundedAt(1)
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
    ctx, term, _, gamma, alpha = subject("identity-redex")
    with pytest.raises(BudgetRequiredError):
        enumerate_witnesses(ctx, term, gamma, alpha)
    ws = enumerate_witnesses(ctx, term, gamma, alpha, 1)
    assert len(ws) == 1 and ws.completeness == BoundedAt(1)


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
    _, _, tight = across_points("church-two-twice", budget=1)
    assert tight == []
    for budget in (2, 3, 4):
        _, _, ds = across_points("church-two-twice", budget=budget)
        assert len(ds) == 1, budget


# The cuts a redex tries: the sequences over the types one copy of its
# argument concludes.  The full listing of the budget's sequence types is
# their oracle: the two must give the same derivations, in bags and in
# sequences.

CUT_POOL = derivation._cut_pool


def full_cut_listing(a, ctx, aty, budget):
    return _bounded_seqs(aty, budget)


def whole_context_pool(a, ctx, aty, budget):
    """A pool pruned against the whole context alone, which misses the types
    a copy concludes from a suffix of a sequence only."""
    return tuple(beta for beta in _bounded_refinements(aty, budget)
                 if derivation._enum(a, ctx, beta, budget, frozenset()))


def pool_without_its_last_type(a, ctx, aty, budget):
    return CUT_POOL(a, ctx, aty, budget)[:-1]


def guessed_cut_subjects():
    """(label, ctx, term, type, point): every corpus redex, the redexes whose
    copies meet in every order, the redexes among the generated points, and
    redexes whose argument's copies start from a suffix of a sequence."""
    for entry in CORPUS:
        ctx, term, ty, point = parse_entry(entry)
        if not is_beta_normal(term):
            yield entry["name"], ctx, term, ty, point
    for label, (term, point_ctx, ctx_text, _, _) in COPIES_IN_EVERY_ORDER.items():
        yield label, *point_subject(term, point_ctx, ctx_text)
    for i, (entry, ctx, term, ty, point) in enumerate(generated_points()):
        if not is_beta_normal(term):
            yield f"{entry['name']}-{i}", ctx, term, ty, point
    # a binder free in the argument
    ctx = parse_context("f:o->o, g:o->o")
    term, ty = annotate(ctx, parse_term("\\z:o. (\\k:o. f k) (g z)"))
    yield "binder-in-argument", ctx, term, ty, point_from_json(
        {"ctx": {"f": "[[*]-o*]", "g": "[[*]-o*]"}, "type": "[*]-o*"}, ctx, ty)
    # the second copy of `h w` takes the second element of h, so at a rigid
    # point it concludes a type that no copy concludes from all of h
    yield "copies-down-a-sequence", *point_subject(
        "(\\k:o->o. f (k y) (k y)) (h w)",
        {"f": "[[*]-o[*]-o*]", "h": "[[*]-o[*]-o*,[]-o[]-o*]", "w": "[*]", "y": "[*]"},
        "f:o->o->o, h:o->o->o, w:o, y:o")
    # the same with a binder for h: in bags too, the copies consume it in order
    ctx = parse_context("f:o->o->o, w:o, y:o")
    term, ty = annotate(ctx, parse_term("\\h:o->o->o. (\\k:o->o. f (k y) (k y)) (h w)"))
    yield "copies-down-a-binder", ctx, term, ty, point_from_json(
        {"ctx": {"f": "[[*]-o[*]-o*]", "w": "[*]", "y": "[*]"},
         "type": "[[*]-o[*]-o*,[]-o[]-o*]-o*"}, ctx, ty)


def guessed_cut_derivations(subjects, budgets, pool=None, cuts=None):
    """{(label, budget): (derivations from the bags at each positive source,
    derivations at each rigid point they reach)}, computed afresh with the
    pool or the cut listing given, or the enumerator's own."""
    clear_memos()
    saved = derivation._cut_pool, derivation._cuts
    derivation._cut_pool = pool or saved[0]
    derivation._cuts = cuts or saved[1]
    try:
        out = {}
        for label, ctx, term, ty, point in subjects:
            gamma, a = canonicalize_point(point, ctx, ty)
            for budget in budgets:
                bags = tuple(enumerate_bag_witnesses(ctx, term, gamma, alpha, budget).derivations
                             for alpha in pos_sources_it(a, ty))
                out[label, budget] = bags, per_target_witnesses(ctx, term, gamma, a, budget)
        return out
    finally:
        derivation._cut_pool, derivation._cuts = saved
        clear_memos()


def test_pruned_cuts_match_the_full_listing():
    subjects = list(guessed_cut_subjects())
    budgets = (1, 2, 3, 4)
    pruned = guessed_cut_derivations(subjects, budgets)
    assert pruned == guessed_cut_derivations(subjects, budgets, cuts=full_cut_listing)
    found = {label: sum(len(bags) for bags in pruned[label, 4][0]) for label, *_ in subjects}
    assert found["copies-down-a-sequence"] == found["copies-down-a-binder"] == 2, found
    assert found["binder-in-argument"] == found["lambda-argument-redex"] == 1, found
    assert sum(map(bool, found.values())) >= 25, found
    # a pool that misses a type, or is pruned against the whole context
    # alone, loses derivations
    for mutant in (pool_without_its_last_type, whole_context_pool):
        lost = guessed_cut_derivations(subjects, budgets, pool=mutant)
        assert sorted(k for k in pruned if lost[k] != pruned[k]), mutant.__name__


def cuts_tried(ctx, term, point, budget):
    """The verified report of a subject, computed afresh, and the number of
    cuts tried at each guessed cut."""
    tried = []

    def counted(*args):
        cuts = cut_listing(*args)
        tried.append(len(cuts))
        return cuts

    clear_memos()
    cut_listing, derivation._cuts = derivation._cuts, counted
    try:
        return verify_identities(ctx, term, point, budget), tried
    finally:
        derivation._cuts = cut_listing


def listed(budget, pool):
    """How many sequences of length at most the budget a pool gives."""
    return sum(pool ** n for n in range(budget + 1))


def test_guessed_cut_family_tries_one_type():
    o_o = parse_simple_type("o->o")
    for n in range(1, 7):
        ctx, term, _, point = point_subject(*guessed_cut_point(n))
        for budget in (n, 8):
            rep, tried = cuts_tried(ctx, term, point, budget)
            assert rep.ok and rep.wrel.value == rep.report.wit_plus == 1, (n, budget)
            # the cut <[*^n]-o*> over the pool of that one type, not every
            # sequence of the budget's refinements of o->o
            assert tried == [budget + 1], (n, budget, tried)
        # below budget n no copy concludes a type the budget admits, so only
        # the empty cut is tried, and the shortfall shows
        rep, tried = cuts_tried(ctx, term, point, n - 1)
        assert rep.incomplete and rep.report.wit_plus == 0 and tried == [1], n
    # the full listing tried every sequence over the b + 1 refinements of o->o
    assert all(len(_bounded_refinements(o_o, b)) == b + 1 for b in (2, 3, 4, 6, 8))
    assert [listed(b, b + 1) for b in (2, 3, 4, 6, 8)] == [13, 85, 781, 137_257, 48_427_561]
    assert [len(_bounded_seqs(o_o, b)) for b in (2, 3, 4)] == [13, 85, 781]
    ctx, term, _, point = parse_entry(BY_NAME["church-two-twice"])
    for budget in (2, 3, 4):
        rep, tried = cuts_tried(ctx, term, point, budget)
        assert rep.ok and tried == [budget + 1], (budget, tried)


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
        if is_beta_normal(term):
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
        yield (entry["name"], ctx, term, point,
               None if is_beta_normal(term) else entry_budget(entry))
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
        yield (entry["name"], ctx, term, point,
               None if is_beta_normal(term) else entry_budget(entry))


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
