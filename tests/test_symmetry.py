import random
from itertools import permutations

import pytest

from thinspan.syntax import Base, is_beta_normal, parse_context, parse_simple_type
from thinspan.rigidtypes import (
    ResourceContext, Star, canonicalize_it, canonicalize_point, canonicalize_seq, ctx_refines,
    parse_itype, point_from_json,
)
from thinspan.symmetry import (
    MorphismError, count_homs_it, count_negative_seq, count_positive_it,
    neg_targets_ctx, neg_targets_it, neg_targets_seq, permanent, pos_targets_it,
    sym_degrees_ctx, sym_degrees_it,
)
from thinspan.groupoid import enumerate_homs_ctx, enumerate_homs_it, enumerate_homs_seq
from thinspan.derivation import rt_context, rt_type
from thinspan.collapse import esp_explicit, positive_witnesses, prepare

from reference import (
    count_negative_it, is_negative_ctx, is_negative_it, is_positive_ctx, is_positive_it,
)
from support import (
    brute_degrees_ctx, brute_degrees_it, brute_neg_targets_it, brute_neg_targets_seq,
    brute_pos_targets_it, entry_budget, load_corpus, parse_entry, rand_canonical,
    rand_context, rand_itype, rand_reorder, rand_stype, ryser_permanent,
)

S = Star()
O = Base()
OO = parse_simple_type("o->o")


def test_hom_count_is_a_permanent():
    rng = random.Random(11)
    for _ in range(25):
        t = rand_stype(rng, 2)
        n = rng.randint(0, 3)
        sa = tuple(rand_canonical(rng, t, 2) for _ in range(n))
        sb_pool = list(sa)
        rng.shuffle(sb_pool)
        sb = tuple(rand_reorder(rng, x) for x in sb_pool)
        counts = [[len(enumerate_homs_it(x, y)) for y in sb] for x in sa]
        perm_total = 0
        for p in permutations(range(n)):
            prod = 1
            for i in range(n):
                prod *= counts[i][p[i]]
            perm_total += prod
        assert len(enumerate_homs_seq(sa, sb)) == perm_total


def rand_hom_matrix(rng: random.Random) -> list[list[int]]:
    """A square matrix shaped like the hom-set sizes of a groupoid: blocks of
    equal rows, one constant per block, rows and columns shuffled.  A block
    may have more columns than rows or fewer; zero rows or zero columns
    square the matrix up."""
    blocks = []
    for _ in range(rng.randint(1, 4)):
        r = rng.randint(1, 3)
        c = r if rng.random() < 0.6 else rng.randint(max(r - 1, 1), r + 1)
        blocks.append((r, c, rng.randint(1, 5)))
    rows, cols = sum(r for r, _, _ in blocks), sum(c for _, c, _ in blocks)
    blocks.append((max(cols - rows, 0), max(rows - cols, 0), 1))
    row_of = [b for b, (r, _, _) in enumerate(blocks) for _ in range(r)]
    col_of = [b for b, (_, c, _) in enumerate(blocks) for _ in range(c)]
    rng.shuffle(row_of)
    rng.shuffle(col_of)
    return [[blocks[i][2] if i == j else 0 for j in col_of] for i in row_of]


def test_permanent_matches_ryser_on_random_hom_matrices():
    rng = random.Random(19)
    assert permanent([]) == ryser_permanent([]) == 1
    nonzero = 0
    for _ in range(400):
        m = rand_hom_matrix(rng)
        assert permanent(m) == ryser_permanent(m), m
        nonzero += permanent(m) != 0
    assert 100 <= nonzero <= 300, nonzero


@pytest.mark.parametrize("m", [[[1, 1], [0, 1]], [[2, 1, 0], [1, 2, 0], [0, 0, 1]]])
def test_permanent_refuses_rows_that_share_a_column(m):
    with pytest.raises(ValueError, match="share a column"):
        permanent(m)


def test_degrees_pinned_values():
    # two interchangeable atoms in a context entry
    d = sym_degrees_it(parse_itype("<*,*>-o*"), OO)
    assert (d.total, d.positive, d.negative) == (2, 2, 1)
    ctx = parse_context("x:o")
    p = point_from_json({"ctx": {"x": "[*,*]"}, "type": "*"}, ctx, O)
    gamma, _ = canonicalize_point(p, ctx, O)
    dc = sym_degrees_ctx(gamma)
    assert (dc.total, dc.positive, dc.negative) == (2, 1, 2)


def test_degrees_fan_context():
    ctx = parse_context("g:o->o, y:o")
    p = point_from_json(
        {"ctx": {"g": "[[*,*]-o*,[*]-o*,[*]-o*]", "y": "[*,*]"}, "type": "*"}, ctx, O)
    gamma, _ = canonicalize_point(p, ctx, O)
    d = sym_degrees_ctx(gamma)
    assert (d.total, d.positive, d.negative) == (8, 2, 4)


def test_degree_identity_random():
    rng = random.Random(23)
    for _ in range(120):
        t = rand_stype(rng, 3)
        a = rand_canonical(rng, t, 3)
        d = sym_degrees_it(a, t)
        assert d.total == d.positive * d.negative


def test_polarized_reachability_fixed_examples():
    mu0 = parse_itype("<>-o*")
    mu1 = parse_itype("<*>-o*")
    elem = parse_itype("<<>-o*,<*>-o*>-o*")
    t = parse_simple_type("(o->o)->o")
    # negative targets keep the domain order of an arrow
    assert neg_targets_it(elem, t) == (elem,)
    # positive targets include domain reorderings
    both = set(pos_targets_it(elem, t))
    assert parse_itype("<<*>-o*,<>-o*>-o*") in both and elem in both
    ctx = parse_context("g:o->o")
    p = point_from_json({"ctx": {"g": "[[]-o*, [*]-o*]"}, "type": "*"}, ctx, O)
    gamma, _ = canonicalize_point(p, ctx, O)
    thetas = neg_targets_ctx(gamma)
    seqs = {tuple(th.lookup("g")) for th in thetas}
    assert seqs == {(mu0, mu1), (mu1, mu0)}


def test_ctx_polarity_through_enumeration():
    ctx = parse_context("g:o->o")
    p = point_from_json({"ctx": {"g": "[[]-o*, [*]-o*]"}, "type": "*"}, ctx, O)
    gamma, _ = canonicalize_point(p, ctx, O)
    for theta in neg_targets_ctx(gamma):
        assert any(is_negative_ctx(cm) for cm in enumerate_homs_ctx(gamma, theta))
    endos = enumerate_homs_ctx(gamma, gamma)
    assert sum(1 for cm in endos if is_positive_ctx(cm)) == 1


MAX_ENDOS = 20_000


def test_closed_form_degrees_match_enumeration():
    rng = random.Random(2024)
    types = contexts = 0
    while types < 500:
        t = rand_stype(rng, 3)
        a = rand_canonical(rng, t, 3)
        d = sym_degrees_it(a, t)
        if d.total > MAX_ENDOS:
            continue
        assert d == brute_degrees_it(a, t), a
        types += 1
    while contexts < 200:
        theta = rand_context(rng)
        d = sym_degrees_ctx(theta)
        if d.total > MAX_ENDOS:
            continue
        assert d == brute_degrees_ctx(theta), theta
        contexts += 1


def test_degrees_reject_bad_input():
    with pytest.raises(MorphismError):
        sym_degrees_it(parse_itype("<<*>-o*,*>-o*"), OO)  # not canonical
    with pytest.raises(MorphismError):
        sym_degrees_it(parse_itype("<*>-o*"), O)  # does not refine o
    with pytest.raises(MorphismError):
        sym_degrees_ctx(ResourceContext((("x", (parse_itype("<>-o*"),), O),)))
    # both refine (o->o)->o, so only their order rejects them: an entry out
    # of order, and an element whose own domain is out of order
    unsorted = (parse_itype("<<*>-o*>-o*"), parse_itype("<>-o*"))
    noncanonical = (parse_itype("<<*>-o*,<>-o*>-o*"),)
    for seq in (unsorted, noncanonical):
        theta = ResourceContext((("f", seq, parse_simple_type("(o->o)->o")),))
        assert ctx_refines(theta)
        with pytest.raises(MorphismError, match="canonical"):
            sym_degrees_ctx(theta)


def test_reachability_matches_all_orderings_oracle():
    rng = random.Random(79)
    for _ in range(200):
        t = rand_stype(rng, 3)
        a = rand_canonical(rng, t, 3)
        assert pos_targets_it(a, t) == brute_pos_targets_it(a, t), a
        assert neg_targets_it(a, t) == brute_neg_targets_it(a, t), a
        t = rand_stype(rng, 2)
        seq = tuple(rand_itype(rng, t, 2) for _ in range(rng.randint(0, 5)))
        assert neg_targets_seq(seq, t) == brute_neg_targets_seq(seq, t), seq


def test_per_variable_triple_count_matches_whole_contexts():
    for entry in load_corpus():
        ctx, term, ty, point = parse_entry(entry)
        budget = None if is_beta_normal(term) else entry_budget(entry)
        report = positive_witnesses(prepare(ctx, term, point), budget)
        gamma, a = report.subject.gamma, report.subject.result
        whole = 0
        for w in report.witnesses:
            theta = rt_context(gamma.shape(), w.derivation)
            negs = sum(1 for cm in enumerate_homs_ctx(gamma, theta) if is_negative_ctx(cm))
            poss = sum(1 for phi in enumerate_homs_it(rt_type(w.derivation), a)
                       if is_positive_it(phi, ty))
            whole += negs * poss
        assert esp_explicit(report) == whole, entry["name"]


def test_polarized_counts_match_listing_oracle():
    # The counts of polarized morphisms and of all morphisms.  The target is
    # a reordering of the source (its hom-set is inhabited) or an
    # independent draw (often empty, often of another length); neither side
    # is canonicalized.
    rng = random.Random(83)
    seen = dict.fromkeys(("inhabited", "empty", "many", "entries", "lengths", "noncanonical"), 0)
    for _ in range(600):
        t = rand_stype(rng, 2)
        a = rand_itype(rng, t, 3)
        b = rand_reorder(rng, a) if rng.random() < 0.6 else rand_itype(rng, t, 3)
        homs = enumerate_homs_it(a, b)
        assert count_homs_it(a, b) == len(homs), (a, b)
        assert count_positive_it(a, b) == sum(1 for f in homs if is_positive_it(f, t)), (a, b)
        assert count_negative_it(a, b) == sum(1 for f in homs if is_negative_it(f, t)), (a, b)
        seen["inhabited" if homs else "empty"] += 1
        seen["many"] += len(homs) > 2
        seen["noncanonical"] += bool(homs) and canonicalize_it(a) != a and canonicalize_it(b) != b

        t = rand_stype(rng, 2)
        sa = tuple(rand_itype(rng, t, 2) for _ in range(rng.randint(0, 4)))
        if rng.random() < 0.6:
            sb = tuple(rand_reorder(rng, x) for x in rng.sample(sa, len(sa)))
        else:
            sb = tuple(rand_itype(rng, t, 2) for _ in range(rng.randint(0, 4)))
        homs = enumerate_homs_ctx(ResourceContext((("x", sa, t),)),
                                  ResourceContext((("x", sb, t),)))
        assert count_negative_seq(sa, sb) == sum(1 for cm in homs if is_negative_ctx(cm)), (sa, sb)
        seen["entries"] += bool(homs)
        seen["noncanonical"] += (bool(homs) and canonicalize_seq(sa) != sa
                                 and canonicalize_seq(sb) != sb)
        seen["lengths"] += len(sa) != len(sb)
    assert min(seen.values()) >= 20, seen
