"""Shared helpers: corpus loading, subject parsing, seeded random generators,
and brute-force oracles for what the library computes in closed form."""

from __future__ import annotations

import importlib.util
import json
import random
import re
from contextlib import contextmanager
from itertools import combinations_with_replacement, permutations, product
from math import prod
from pathlib import Path

from thinspan import interning
from thinspan.syntax import (
    App, Arrow, Base, Lam, ParseError, SimpleType, TypingContext, Var, annotate, beta_normalize,
    ensure_distinct_binders, is_beta_normal, parse_context, parse_simple_type, parse_term, spine,
    typecheck,
)
from thinspan.rigidtypes import (
    IArrow, IType, PointSpec, RefinementError, ResourceContext, SeqType, Star, canonicalize_it,
    canonicalize_point, canonicalize_seq, key_it, point_from_json,
)
from thinspan.derivation import (
    RApp, RLam, RVar, _bounded_seqs, count_derivation_morphisms, enumerate_witnesses,
    resource_to_text, rt_context, rt_type,
)
from thinspan.symmetry import Degrees, neg_targets_ctx, pos_sources_it
from thinspan.groupoid import enumerate_homs_ctx, enumerate_homs_it

from reference import is_negative_ctx, is_negative_it, is_positive_ctx, is_positive_it

CORPUS_PATH = Path(__file__).resolve().parent.parent / "corpus" / "points.json"
TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    """The benchmark's tracer module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextmanager
def built_nodes():
    """The classes of the interned nodes built inside the block, in order,
    whether the table had an equal node or not."""
    built = []
    call = interning._Interning.__call__

    def counted(cls, *args, **kwargs):
        built.append(cls)
        return call(cls, *args, **kwargs)

    interning._Interning.__call__ = counted
    try:
        yield built
    finally:
        interning._Interning.__call__ = call


def clear_memos() -> None:
    """Empty the memo of every live node, so that what the queries before
    kept is computed again."""
    for entry in list(interning._table.values()):
        kept = getattr(entry(), "_memo", None)
        if isinstance(kept, dict):
            kept.clear()


def load_corpus() -> list[dict]:
    with open(CORPUS_PATH) as f:
        return json.load(f)


def parse_entry(entry: dict):
    """Parse a corpus entry into (ctx, annotated term, type, point)."""
    ctx = parse_context(entry.get("ctx", ""))
    term = parse_term(entry["term"])
    expected = parse_simple_type(entry["type"]) if "type" in entry else None
    term, ty = annotate(ctx, term, expected)
    point = point_from_json(entry["point"], ctx, ty)
    return ctx, term, ty, point


def entry_budget(entry: dict, default: int = 4) -> int:
    return int(entry.get("budget", default))


def stars(n: int) -> str:
    return "[" + ",".join(["*"] * n) + "]"


def symmetric_point(n: int):
    """`g y` at g:[[*^n]-o*], y:[*^n]: one witness, n!*n! context endomorphisms."""
    return "g y", {"g": f"[{stars(n)}-o*]", "y": stars(n)}


def fanout_point(n: int):
    """`g (g (g y))` at g:[n x ([*,*]-o*), (n+1) x ([*]-o*)], y:[*^(n+1)]."""
    g = ",".join(["[*,*]-o*"] * n + ["[*]-o*"] * (n + 1))
    return "g (g (g y))", {"g": f"[{g}]", "y": stars(n + 1)}


def church_point(k: int):
    """The Church numeral k applied to g and y, at g:[k x ([*]-o*)], y:[*]."""
    body = "x"
    for _ in range(k):
        body = f"f {body}" if body == "x" else f"f ({body})"
    return (f"(\\f:o->o. \\x:o. {body}) g y",
            {"g": "[" + ",".join(["[*]-o*"] * k) + "]", "y": "[*]"})


def distinct_g_point(k: int):
    """`f (g y)` at f:[[*^k]-o*], g:[[]-o*, [*]-o*, ..., [*^(k-1)]-o*],
    y:[*^(k(k-1)/2)]: each copy of `g y` takes another element of g, so
    there are k! witnesses."""
    g = ",".join(f"{stars(i)}-o*" for i in range(k))
    return ("f (g y)",
            {"f": f"[{stars(k)}-o*]", "g": f"[{g}]", "y": stars(k * (k - 1) // 2)},
            "f:o->o, g:o->o, y:o")


def chain_point(d: int):
    """`f (... (f y))`, d deep, at f:[d x ([*]-o*)], y:[*]: every occurrence
    takes one of d equal elements, so the coefficient is 1."""
    term = "y"
    for _ in range(d):
        term = f"f ({term})"
    return term, {"f": "[" + ",".join(["[*]-o*"] * d) + "]", "y": "[*]"}, "f:o->o, y:o"


def guessed_cut_point(n: int):
    """`(\\k:o->o. k y) (\\x:o. g x)` at g:[[*^n]-o*], y:[*^n]: the argument
    is a lambda, so the redex's cut <[*^n]-o*> is guessed, within budget n.
    The coefficient is 1."""
    return "(\\k:o->o. k y) (\\x:o. g x)", {"g": f"[{stars(n)}-o*]", "y": stars(n)}


def point_subject(term_text: str, point_ctx: dict, ctx_text: str = "g:o->o, y:o"):
    """(ctx, annotated term, type, point) for a term at a point of result type *."""
    ctx = parse_context(ctx_text)
    term, ty = annotate(ctx, parse_term(term_text))
    return ctx, term, ty, point_from_json({"ctx": point_ctx, "type": "*"}, ctx, ty)


# Redexes whose argument copies differ but conclude one type, so that they
# meet the binder's occurrences in every order: each order is a witness of
# its own class, since the contracta put different copies in different
# places, while the redexes themselves collapse alike, the bag of copies
# forgetting which occurrence each one meets.  So only a class key taken
# after contraction tells their classes apart.  A bare-variable argument
# cannot do this: its copy is its label, so copies that differ meet
# occurrences whose labels differ too.
# label -> (term, point context, typing context, budget, coefficient)
COPIES_IN_EVERY_ORDER = {
    "two-copies-of-an-application": (
        "(\\f:o. x f f) (g y)",
        {"x": "[[*]-o[*]-o*]", "g": "[[*]-o*,[]-o*]", "y": "[*]"},
        "x:o->o->o, g:o->o, y:o", 2, 2),
    "three-copies-two-alike": (
        "(\\f:o. x f f f) (g y)",
        {"x": "[[*]-o[*]-o[*]-o*]", "g": "[[*]-o*,[]-o*,[]-o*]", "y": "[*]"},
        "x:o->o->o->o, g:o->o, y:o", 3, 3),
    "copies-using-either-variable": (
        "(\\f:o. x f f) (g y z)",
        {"x": "[[*]-o[*]-o*]", "g": "[[*]-o[]-o*,[]-o[*]-o*]", "y": "[*]", "z": "[*]"},
        "x:o->o->o, g:o->o->o, y:o, z:o", 2, 2),
    "copies-of-a-lambda": (
        "(\\f:o->o. x (f y) (f y)) (\\z:o. g z w)",
        {"x": "[[*]-o[*]-o*]", "g": "[[*]-o[*]-o*,[*]-o[]-o*]", "w": "[*]", "y": "[*,*]"},
        "x:o->o->o, g:o->o->o, w:o, y:o", 2, 2),
}


def copies_in_every_order():
    """(label, ctx, term, point, budget, coefficient) for each subject of
    COPIES_IN_EVERY_ORDER."""
    for label, (term, point_ctx, ctx_text, budget, coefficient) in COPIES_IN_EVERY_ORDER.items():
        ctx, term, _, point = point_subject(term, point_ctx, ctx_text)
        yield label, ctx, term, point, budget, coefficient


def rand_stype(rng: random.Random, depth: int) -> SimpleType:
    if depth <= 0 or rng.random() < 0.4:
        return Base()
    return Arrow(rand_stype(rng, depth - 1), rand_stype(rng, depth - 1))


def rand_itype(rng: random.Random, t: SimpleType, width: int = 3) -> IType:
    """A random rigid refinement of t, not necessarily canonical."""
    if isinstance(t, Base):
        return Star()
    seq = tuple(rand_itype(rng, t.domain, width) for _ in range(rng.randint(0, width)))
    return IArrow(seq, rand_itype(rng, t.codomain, width))


def rand_canonical(rng: random.Random, t: SimpleType, width: int = 3) -> IType:
    return canonicalize_it(rand_itype(rng, t, width))


def rand_reorder(rng: random.Random, a: IType) -> IType:
    """Shuffle sequence orders throughout, keeping the underlying multiset."""
    if isinstance(a, Star):
        return a
    elems = [rand_reorder(rng, x) for x in a.domain]
    rng.shuffle(elems)
    return IArrow(tuple(elems), rand_reorder(rng, a.codomain))


def rand_point(rng: random.Random, ctx: TypingContext, ty: SimpleType, size: int = 2,
               width: int = 2) -> PointSpec:
    """A random point over ctx at result type ty: every variable gets up to
    `size` elements, each refining its simple type."""
    bags = tuple((x, tuple(rand_itype(rng, t, width) for _ in range(rng.randint(0, size))))
                 for x, t in ctx)
    return PointSpec(bags, rand_itype(rng, ty, width))


def generated_points(seed: int = 20240, per_entry: int = 25):
    """The seeded draw of generated subjects: every corpus term at random
    points whose bags hold up to two elements, as (entry, ctx, term, ty, point)."""
    rng = random.Random(seed)
    for entry in load_corpus():
        ctx, term, ty, _ = parse_entry(entry)
        for _ in range(per_entry):
            yield entry, ctx, term, ty, rand_point(rng, ctx, ty)


def binders(t) -> list[str]:
    """Every binder name of t, repeats included, by walking it: the oracle
    for the binder names kept on a term."""
    match t:
        case Var(_):
            return []
        case App(f, a):
            return binders(f) + binders(a)
        case Lam(x, b, _):
            return [x] + binders(b)
    raise TypeError(f"not a term: {t!r}")


def walked_refines(a: IType, t: SimpleType) -> bool:
    """Whether a refines t, by walking both: the oracle for the refinement
    that reads a type's erasure."""
    match a, t:
        case Star(), Base():
            return True
        case IArrow(d, c), Arrow(td, tc):
            return all(walked_refines(x, td) for x in d) and walked_refines(c, tc)
    return False


# The tokenizers that matched one token at a time, the oracles for the
# one-scan tokenizers.  They report an error, and an arrow of the term syntax
# and every token of the type notation, at the whitespace before it.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<ident>[a-zA-Z_][a-zA-Z0-9_']*)"
    r"|(?P<punct>[\\.():,]))"
)
_IT_TOKEN_RE = re.compile(r"\s*(?:(?P<lolli>-o)|(?P<punct>[*<>\[\](),]))")


def per_token_tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        if m.lastgroup == "arrow":
            toks.append(("arrow", "->", m.start()))
        elif m.lastgroup == "ident":
            toks.append(("ident", m.group("ident"), m.start("ident")))
        else:
            toks.append((m.group("punct"), m.group("punct"), m.start("punct")))
        pos = m.end()
    toks.append(("eof", "", len(text)))
    return toks


def per_token_it_tokenize(text: str) -> list[tuple[str, int]]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _IT_TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise RefinementError(
                f"unexpected character {text[pos]!r} at position {pos} in type notation")
        toks.append(("-o" if m.lastgroup == "lolli" else m.group("punct"), m.start()))
        pos = m.end()
    toks.append(("eof", len(text)))
    return toks


def canonicalize_ctx(c: ResourceContext) -> ResourceContext:
    """Every entry of c canonicalized."""
    return ResourceContext(tuple(
        (x, canonicalize_seq(seq), t) for x, seq, t in c.entries))


def rand_context(rng: random.Random, nvars: int = 2, width: int = 3) -> ResourceContext:
    """A random canonical resource context over variables x0, x1, ..."""
    entries = []
    for i in range(rng.randint(1, nvars)):
        t = rand_stype(rng, 2)
        seq = tuple(rand_itype(rng, t, 2) for _ in range(rng.randint(0, width)))
        entries.append((f"x{i}", canonicalize_seq(seq), t))
    return ResourceContext(tuple(entries))


####################################################################
# brute-force oracles: enumerate every morphism, then classify

def ryser_permanent(m: list[list[int]]) -> int:
    """Ryser's formula, visiting the column subsets in Gray-code order so
    that each step adds or removes one column: O(2^n * n)."""
    n = len(m)
    if any(not any(row) for row in m):
        return 0
    sums = [0] * n
    total = 0 if n else 1
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        gray = k ^ (k >> 1)
        step = 1 if gray >> j & 1 else -1
        for i, row in enumerate(m):
            sums[i] += step * row[j]
        term = prod(sums)
        total += -term if (n - gray.bit_count()) & 1 else term
    return total


def brute_degrees_it(a: IType, t: SimpleType) -> Degrees:
    endos = enumerate_homs_it(a, a)
    return Degrees(len(endos),
                   sum(1 for e in endos if is_positive_it(e, t)),
                   sum(1 for e in endos if is_negative_it(e, t)))


def brute_degrees_ctx(theta: ResourceContext) -> Degrees:
    endos = enumerate_homs_ctx(theta, theta)
    return Degrees(len(endos),
                   sum(1 for e in endos if is_positive_ctx(e)),
                   sum(1 for e in endos if is_negative_ctx(e)))


def listed_esp(report) -> int:
    """The triple count with each polarized morphism listed: per witness, the
    negative context morphisms one variable at a time and the positive
    result morphisms, filtered out of the whole hom-sets."""
    gamma, a, ty = report.subject.gamma, report.subject.result, report.subject.ty
    total = 0
    for w in report.witnesses:
        theta = rt_context(gamma.shape(), w.derivation)
        negs = 1
        for x, seq, t in gamma.entries:
            homs = enumerate_homs_ctx(ResourceContext(((x, seq, t),)),
                                      ResourceContext(((x, theta.lookup(x), t),)))
            negs *= sum(1 for cm in homs if is_negative_ctx(cm))
        poss = sum(1 for phi in enumerate_homs_it(rt_type(w.derivation), a)
                   if is_positive_it(phi, ty))
        total += negs * poss
    return total


# The witness search that visited every reachable rigid point: one
# enumeration per negative target theta of the canonical context and
# positive source alpha of the canonical result.  positive_witnesses
# enumerates once over the context's bags instead; this is its oracle.

def per_target_witnesses(ctx, term, gamma: ResourceContext, a: IType, budget=None,
                         enumerator=None) -> list:
    """Every (theta, alpha, derivation) at the rigid points reachable from
    (gamma, a), in the order positive_witnesses lists its witnesses.
    `enumerator(ctx, term, theta, alpha, budget)` gives the derivations at
    one point, sorted by resource_to_text; by default enumerate_witnesses'."""
    if enumerator is None:
        def enumerator(*args):
            return enumerate_witnesses(*args).derivations
    ty = annotate(ctx, term)[1]
    return [(theta, alpha, d) for theta in neg_targets_ctx(gamma)
            for alpha in pos_sources_it(a, ty)
            for d in enumerator(ctx, term, theta, alpha, budget)]


def across_points(name: str, budget=None):
    """(ctx, term, derivations) of the corpus entry `name` over every
    negative target of its canonical point.

    A derivation fixes the order in which each context sequence is consumed,
    so counting at the representative alone undercounts; this is the raw
    enumeration underlying the positive witness count.
    """
    ctx, term, ty, point = parse_entry(next(e for e in load_corpus() if e["name"] == name))
    gamma, alpha = canonicalize_point(point, ctx, ty)
    return ctx, term, [d for _, _, d in per_target_witnesses(ctx, term, gamma, alpha, budget)]


# The symmetry partition that compared witnesses pairwise: each with the
# first member of every class found so far, by the morphisms between them.
# partition_by_symmetry keys each witness by the multiset collapse of its
# contractum instead; this is its oracle.

def pairwise_partition(derivations, morphisms=count_derivation_morphisms) -> tuple:
    """The symmetry classes of derivations, in the order of their first
    members: r joins the first class whose first member c has
    morphisms(c, r), a count or a listing, non-zero."""
    classes: list[list] = []
    for r in derivations:
        for cls in classes:
            if morphisms(cls[0], r):
                cls.append(r)
                break
        else:
            classes.append([r])
    return tuple(tuple(c) for c in classes)


# brute-force reachability: every placement of every choice, then deduplicate

def _dedup(items, key):
    return tuple(sorted(dict.fromkeys(items), key=key))


def _all_placements(pools) -> list[SeqType]:
    n = len(pools)
    out = []
    for choices in product(*pools):
        for sigma in permutations(range(n)):
            placed = [None] * n
            for i in range(n):
                placed[sigma[i]] = choices[i]
            out.append(tuple(placed))
    return out


def brute_neg_targets_it(a: IType, t: SimpleType) -> tuple[IType, ...]:
    if isinstance(a, Star):
        return (a,)
    pools = [brute_pos_targets_it(x, t.domain) for x in a.domain]
    return _dedup([IArrow(tuple(doms), c2) for doms in product(*pools)
                   for c2 in brute_neg_targets_it(a.codomain, t.codomain)], key_it)


def brute_pos_targets_it(a: IType, t: SimpleType) -> tuple[IType, ...]:
    if isinstance(a, Star):
        return (a,)
    pools = [brute_neg_targets_it(x, t.domain) for x in a.domain]
    return _dedup([IArrow(doms, c2) for doms in _all_placements(pools)
                   for c2 in brute_pos_targets_it(a.codomain, t.codomain)], key_it)


def brute_neg_targets_seq(seq: SeqType, t: SimpleType) -> tuple[SeqType, ...]:
    pools = [brute_neg_targets_it(x, t) for x in seq]
    return _dedup(_all_placements(pools), lambda s: tuple(key_it(a) for a in s))


# the unpruned context splitter: every variable's elements go to every block

def brute_split_ctx(theta: ResourceContext, terms):
    """Every way to write theta as a concatenation of len(terms) contexts.
    The terms count blocks and are otherwise ignored."""
    k = len(terms)
    per_var = []
    for x, seq, t in theta.entries:
        options = []
        for cuts in combinations_with_replacement(range(len(seq) + 1), k - 1):
            ends = (0,) + cuts + (len(seq),)
            options.append([(x, seq[ends[j]:ends[j + 1]], t) for j in range(k)])
        per_var.append(options)
    for choice in product(*per_var):
        yield tuple(ResourceContext(tuple(entries[j] for entries in choice)) for j in range(k))


# The enumerator that guessed context splits: every way to split the context
# among the subterms (brute_split_ctx), then each block solved on its own.
# derivation threads the context instead; this is its oracle.

def split_witnesses(ctx, term, theta: ResourceContext, alpha: IType, budget=None,
                    cache=None) -> tuple:
    """The derivations of term at (theta, alpha), as enumerate_witnesses
    returns them.  Subproblems are memoized in `cache`, which the calls on
    one subject may share."""
    term, _ = annotate(ctx, term)
    found = _split_enum(term, theta, alpha, None if is_beta_normal(term) else budget,
                        {} if cache is None else cache)
    return tuple(sorted(dict.fromkeys(found), key=resource_to_text))


def _split_enum(term, theta, alpha, budget, cache):
    key = (term, theta, alpha, budget)
    if key not in cache:
        cache[key] = _split_enum_raw(term, theta, alpha, budget, cache)
    return cache[key]


def _split_enum_raw(term, theta, alpha, budget, cache):
    match term:
        case Lam(x, b, ann):
            if not isinstance(alpha, IArrow):
                return []
            inner = ResourceContext(theta.entries + ((x, alpha.domain, ann),))
            return [RLam(x, r, ann) for r in _split_enum(b, inner, alpha.codomain, budget, cache)]
        case Var(_) | App(_, _):
            head, args = spine(term)
            if isinstance(head, Var):
                return _split_enum_spine(head.name, args, theta, alpha, budget, cache)
            f, a = term.fn, term.arg
            aty = typecheck(TypingContext(theta.shape()), a)
            out = []
            for th_f, th_a in brute_split_ctx(theta, [f, a]):
                cuts = (th_a.lookup(a.name),) if isinstance(a, Var) else _bounded_seqs(aty, budget)
                for abar in cuts:
                    fns = _split_enum(f, th_f, IArrow(abar, alpha), budget, cache)
                    if fns:
                        for m in _split_enum_multi(a, th_a, abar, budget, cache):
                            out.extend(RApp(rf, m) for rf in fns)
            return out
    raise TypeError(f"not a term: {term!r}")


def _split_enum_spine(name, args, theta, alpha, budget, cache):
    seq = theta.lookup(name)
    if not seq:
        return []
    label = seq[0]
    doms = []
    cur = label
    for _ in args:
        if not isinstance(cur, IArrow):
            return []
        doms.append(cur.domain)
        cur = cur.codomain
    if cur != alpha:
        return []
    rest = ResourceContext(tuple(
        (x, s[1:] if x == name else s, t) for x, s, t in theta.entries))
    if not args:
        return [] if any(s for _, s, _ in rest.entries) else [RVar(name, label)]
    out = []
    for parts in brute_split_ctx(rest, args):
        multis = [_split_enum_multi(arg, parts[j], doms[j], budget, cache)
                  for j, arg in enumerate(args)]
        for choice in product(*multis):
            r = RVar(name, label)
            for m in choice:
                r = RApp(r, m)
            out.append(r)
    return out


def _split_enum_multi(term, theta, targets, budget, cache):
    key = (term, theta, targets, budget, "multi")
    if key not in cache:
        if not targets:
            cache[key] = [] if any(s for _, s, _ in theta.entries) else [()]
        else:
            cache[key] = [m for blocks in brute_split_ctx(theta, [term] * len(targets))
                          for m in product(*[_split_enum(term, blocks[i], targets[i], budget, cache)
                                             for i in range(len(targets))])]
    return cache[key]


# The coefficient recursion that guessed decompositions: at a spine, every
# ordered decomposition of every variable's bag among all the argument
# copies, each copy then solved on its own.  wrel threads the leftovers
# instead; this is its oracle.

def split_wrel_coefficient(ctx, term, point: PointSpec, memo=None) -> int:
    """The coefficient of term at point, as wrel_coefficient gives it.
    Subproblems are memoized in `memo`, which the calls may share."""
    term, ty = annotate(ctx, term)
    gamma, result = canonicalize_point(point, ctx, ty)
    nf = ensure_distinct_binders(beta_normalize(term), set(ctx.names()))
    env = tuple(sorted((x, seq) for x, seq, _ in gamma.entries))
    return _split_coeff(env, nf, result, {} if memo is None else memo)


def _split_coeff(env, term, target, memo):
    key = (env, term, target)
    if key not in memo:
        memo[key] = _split_coeff_raw(env, term, target, memo)
    return memo[key]


def _split_coeff_raw(env, term, target, memo):
    if isinstance(term, Lam):
        if not isinstance(target, IArrow):
            return 0
        inner = tuple(sorted(env + ((term.binder, target.domain),)))
        return _split_coeff(inner, term.body, target.codomain, memo)
    head, args = spine(term)
    bag = dict(env)[head.name]
    total = 0
    for b in dict.fromkeys(bag):
        doms = []
        cur = b
        for _ in args:
            if not isinstance(cur, IArrow):
                break
            doms.append(cur.domain)
            cur = cur.codomain
        if len(doms) < len(args) or cur != target:
            continue
        rest = list(bag)
        rest.remove(b)
        residual = tuple((x, tuple(rest) if x == head.name else seq) for x, seq in env)
        targets = [(arg, d) for arg, dom in zip(args, doms) for d in dom]
        total += _split_distribute(residual, targets, memo)
    return total


def _split_distribute(env, targets, memo):
    """Sum over ordered decompositions of env across the targets of the
    product of the recursive coefficients."""
    if not targets:
        return 1 if all(not seq for _, seq in env) else 0
    per_var = [mset_decompositions(seq, len(targets)) for _, seq in env]
    total = 0
    for choice in product(*per_var):
        prod = 1
        for j, (sub, tgt) in enumerate(targets):
            part = tuple((x, choice[v][j]) for v, (x, _) in enumerate(env))
            prod *= _split_coeff(part, sub, tgt, memo)
            if not prod:
                break
        total += prod
    return total


def mset_decompositions(ms: SeqType, k: int) -> tuple:
    """All ways to split a sorted multiset into an ordered tuple of k
    sub-multisets.  Equal elements are interchangeable, so each distinct
    value contributes the compositions of its multiplicity."""
    groups: list[tuple[IType, int]] = []
    for v in ms:
        if groups and groups[-1][0] == v:
            groups[-1] = (v, groups[-1][1] + 1)
        else:
            groups.append((v, 1))
    out = []
    for counts in product(*(_ncompositions(mult, k) for _, mult in groups)):
        out.append(tuple(tuple(v for g, (v, _) in enumerate(groups) for _ in range(counts[g][j]))
                         for j in range(k)))
    return tuple(out)


def _ncompositions(total: int, k: int) -> tuple[tuple[int, ...], ...]:
    if k == 0:
        return ((),) if total == 0 else ()
    if k == 1:
        return ((total,),)
    return tuple((first,) + rest for first in range(total + 1)
                 for rest in _ncompositions(total - first, k - 1))


def _past_space(text: str, pos: int) -> int:
    return len(text) - len(text[pos:].lstrip())


def assert_same_scan(scan, oracle, error, text: str) -> None:
    """scan gives oracle's tokens and errors on text, with every position
    that oracle put at the whitespace before a token or a bad character
    moved past that whitespace."""
    try:
        want = oracle(text)
    except error as e:
        pos = int(re.search(r"at position (\d+)", str(e)).group(1))
        moved = _past_space(text, pos)
        try:
            scan(text)
        except error as got:
            assert str(got) == str(e).replace(f"{text[pos]!r} at position {pos}",
                                              f"{text[moved]!r} at position {moved}"), text
            return
        raise AssertionError(f"no error on {text!r}")
    got = scan(text)
    assert [tok[:-1] for tok in got] == [tok[:-1] for tok in want], text
    assert [tok[-1] for tok in got] == [_past_space(text, tok[-1]) for tok in want], text


def random_texts(seed: int, pieces: list[str], n: int = 2000, length: int = 12) -> list[str]:
    """n seeded random strings, each up to length pieces drawn from pieces."""
    rng = random.Random(seed)
    return ["".join(rng.choice(pieces) for _ in range(rng.randint(0, length)))
            for _ in range(n)]
