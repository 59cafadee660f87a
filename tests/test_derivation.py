import dataclasses

import pytest

from thinspan.syntax import Base, parse_simple_type
from thinspan.rigidtypes import IArrow, ResourceContext, Star, canonicalize_point
from thinspan.symmetry import MorphismError, neg_targets_ctx, pos_targets_it
from thinspan.derivation import (
    AppRule, BoundedAt, BudgetRequiredError, DerivationError, Exact, RApp, RLam, RVar,
    check_derivation, compose_dm, derivation_to_resource, dm_app, endo_count,
    enumerate_derivation_morphisms, enumerate_resource_morphisms, enumerate_witnesses,
    identity_dm, invert_dm, mk_app, mk_lam, mk_multi, mk_var,
    multiset_collapse_term, omega_substitute, partition_by_symmetry,
    resource_to_derivation, resource_to_text, rt_occurrence_labels, rt_type,
    src_dm, symmetric, tgt_dm,
)

from support import load_corpus, parse_entry

S = Star()
BY_NAME = {e["name"]: e for e in load_corpus()}


def subject(name):
    ctx, term, ty, point = parse_entry(BY_NAME[name])
    gamma, alpha = canonicalize_point(point, ctx, ty)
    return ctx, term, ty, gamma, alpha


def at_point(name, budget=None):
    """Witness set at the canonical rigid point itself."""
    ctx, term, _, gamma, alpha = subject(name)
    return ctx, term, enumerate_witnesses(ctx, term, gamma, alpha, budget)


def across_points(name, budget=None):
    """Derivations over every negative target of the canonical point.

    A derivation fixes the order in which each context sequence is consumed,
    so counting at the representative alone undercounts; this is the raw
    enumeration underlying the positive witness count.
    """
    ctx, term, ty, gamma, alpha = subject(name)
    out = []
    for th in neg_targets_ctx(gamma):
        for al in pos_targets_it(alpha, ty):
            out.extend(enumerate_witnesses(ctx, term, th, al, budget).derivations)
    return ctx, term, out


def texts(ds):
    return sorted(resource_to_text(derivation_to_resource(d)) for d in ds)


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
        _, _, ds = across_points(name)
        assert ds
        for d in ds:
            assert check_derivation(d)


def test_tampered_derivation_fails_check():
    _, _, ds = across_points("one-term-two-witnesses")
    d = ds[0]
    assert isinstance(d, AppRule)
    bad = dataclasses.replace(d, result=IArrow((), S))
    res = check_derivation(bad)
    assert not res.ok and res.message
    bad2 = dataclasses.replace(d, context=ResourceContext())
    assert not check_derivation(bad2)


def test_smart_constructor_validation():
    shape = (("f", parse_simple_type("o->o")), ("x", Base()))
    with pytest.raises(DerivationError):
        mk_var(shape, "g", S)
    with pytest.raises(DerivationError):
        mk_var(shape, "f", S)
    f = mk_var(shape, "f", IArrow((S,), S))
    x = mk_var(shape, "x", S)
    with pytest.raises(DerivationError):
        mk_app(x, mk_multi(shape, ()))
    with pytest.raises(DerivationError):
        mk_app(f, mk_multi(shape, ()))
    app = mk_app(f, mk_multi(shape, (x,)))
    assert app.result == S
    with pytest.raises(DerivationError):
        mk_lam("y", Base(), app)


def test_resource_round_trip():
    for name in ("shared-head-two-ways", "one-term-two-witnesses", "fan-out",
                 "eta-expanded-identity", "vacuous-binder-pair"):
        ctx, term, ds = across_points(name)
        for d in ds:
            r = derivation_to_resource(d)
            assert resource_to_derivation(ctx, term, r) == d


def test_rt_basics():
    _, _, ds = across_points("fan-out")
    r = derivation_to_resource(ds[0])
    assert rt_type(r) == S
    labels = rt_occurrence_labels(r, "g")
    assert labels == [IArrow((S, S), S), IArrow((S,), S), IArrow((S,), S)]
    assert rt_occurrence_labels(r, "y") == [S, S]


def test_omega_substitute_contracts_redex():
    ctx, term, ws = at_point("duplicating-redex", budget=1)
    assert ws.completeness == BoundedAt(1)
    [d] = ws.derivations
    r = derivation_to_resource(d)
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
    r1, r2 = (derivation_to_resource(d) for d in ds)
    assert r1 != r2
    assert multiset_collapse_term(r1) == multiset_collapse_term(r2)
    _, _, shared = across_points("shared-head-two-ways")
    s1, s2 = (derivation_to_resource(d) for d in shared)
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
    shape = (("x", parse_simple_type("o->o->o")), ("z", Base()), ("w", Base()))
    assert multiset_collapse_term(m1) == multiset_collapse_term(m2)
    assert enumerate_resource_morphisms(shape, m1, m2) == ()
    assert len(enumerate_resource_morphisms(shape, m1, m1)) == 1
    assert len(enumerate_resource_morphisms(shape, m2, m2)) == 1
    c1, c2 = omega_substitute(m1), omega_substitute(m2)
    assert c1 == RApp(RApp(RVar("x", xl), (RVar("z", S),)), (RVar("w", S),))
    assert c2 == RApp(RApp(RVar("x", xl), (RVar("w", S),)), (RVar("z", S),))
    assert enumerate_resource_morphisms(shape, c1, c2) == ()


def test_budget_required_for_redexes():
    ctx, term, _, gamma, alpha = subject("identity-redex")
    with pytest.raises(BudgetRequiredError):
        enumerate_witnesses(ctx, term, gamma, alpha)
    ws = enumerate_witnesses(ctx, term, gamma, alpha, 1)
    assert len(ws) == 1 and ws.completeness == BoundedAt(1)


def test_forced_cuts_ignore_budget():
    # the cut sequence for a bare-variable argument is fixed by the context
    # split, so even a three element cut appears at budget 1
    _, _, ds = across_points("church-two-at-fan", budget=1)
    assert len(ds) == 1


def test_candidate_cuts_respect_budget():
    _, _, tight = across_points("church-two-twice", budget=1)
    assert tight == []
    _, _, ds = across_points("church-two-twice", budget=2)
    assert len(ds) == 1


def test_enumeration_validates_inputs():
    ctx, term, ty, gamma, alpha = subject("fan-out")
    with pytest.raises(DerivationError):
        enumerate_witnesses(ctx, term, gamma, IArrow((), S))
    with pytest.raises(DerivationError):
        enumerate_witnesses(ctx, term, ResourceContext(), alpha)
    flipped = ResourceContext(tuple(reversed(gamma.entries)))
    with pytest.raises(DerivationError):
        enumerate_witnesses(ctx, term, flipped, alpha)


def test_symmetry_partition():
    _, _, ds = across_points("one-term-two-witnesses")
    d1, d2 = ds
    assert symmetric(d1, d2)
    assert partition_by_symmetry(ds) == ((d1, d2),)
    _, _, shared = across_points("shared-head-two-ways")
    assert len(partition_by_symmetry(shared)) == 2


def test_derivation_morphism_groupoid():
    _, _, ds = across_points("one-term-two-witnesses")
    d1, d2 = ds
    (m,) = enumerate_derivation_morphisms(d1, d2)
    assert src_dm(m) == d1 and tgt_dm(m) == d2
    assert compose_dm(invert_dm(m), m) == identity_dm(d1)
    assert compose_dm(m, invert_dm(m)) == identity_dm(d2)
    assert compose_dm(m, identity_dm(d1)) == m
    assert compose_dm(identity_dm(d2), m) == m


def test_multi_morphism_swap_endo():
    _, _, ds = across_points("fan-out")
    [w] = ds
    endos = enumerate_derivation_morphisms(w, w)
    assert len(endos) == 2
    ident = identity_dm(w)
    assert ident in endos
    (swap,) = [e for e in endos if e != ident]
    assert swap.arg.sigma == (1, 0)
    assert compose_dm(swap, swap) == ident
    for a in endos:
        assert invert_dm(a) in endos
        for b in endos:
            assert compose_dm(a, b) in endos


def test_app_morphism_shares_sequence_morphism():
    _, _, ds = across_points("fan-out")
    [w] = ds
    ident = identity_dm(w)
    endos = enumerate_derivation_morphisms(w, w)
    (swap,) = [e for e in endos if e != ident]
    with pytest.raises(MorphismError):
        dm_app(ident.fn, swap.arg)
