"""Shared helpers: corpus loading, subject parsing, seeded random generators,
and brute-force oracles for what the library computes in closed form."""

from __future__ import annotations

import importlib.util
import io
import json
import os
import random
import re
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from math import prod
from pathlib import Path
from typing import NamedTuple

import thinspan
from thinspan import cli, interning
from thinspan.syntax import (
    App, Arrow, Base, Lam, ParseError, SimpleType, TypingContext, Var, annotate, beta_normalize,
    ensure_distinct_binders, free_vars, is_beta_normal, parse_context, parse_simple_type,
    parse_term, spine,
)
from thinspan.rigidtypes import (
    IArrow, IType, PointSpec, RefinementError, ResourceContext, SeqType, Star, canonicalize_it,
    canonicalize_point, canonicalize_seq, key_it, point_from_json,
)
from thinspan.derivation import (
    RApp, RLam, RVar, enumerate_witnesses, resource_to_text, rt_context, rt_type,
)
from thinspan.symmetry import Degrees, neg_targets_ctx, pos_sources_it
from thinspan.groupoid import enumerate_homs_ctx, enumerate_homs_it

from reference import (
    count_derivation_morphisms, is_negative_ctx, is_negative_it, is_positive_ctx, is_positive_it,
)

CORPUS_PATH = Path(__file__).resolve().parent.parent / "corpus" / "points.json"
TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
WORKLOADS_PATH = TRACING_PATH.with_name("workloads.py")


def child_env() -> dict[str, str]:
    """The environment of a child process that imports thinspan: this
    process's own, with the package's source directory put ahead of the
    PYTHONPATH it inherits."""
    src = str(Path(thinspan.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{inherited}" if inherited else src}


class CliResult(NamedTuple):
    """How one run of the command line ended: the exception is None after
    exit 0, the SystemExit after another exit, and what escaped `main`
    otherwise (exit code 1)."""
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


@contextmanager
def environment(values: dict[str, str | None]):
    """os.environ with each of values set, or unset where it is None."""
    def put(items):
        for name, value in items:
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value

    saved = [(name, os.environ.get(name)) for name in values]
    put(values.items())
    try:
        yield
    finally:
        put(saved)


def run_cli(args, env: dict[str, str | None] | None = None) -> CliResult:
    """Run the command line on args in this process, under env (see
    `environment`).  Its streams encode as a process's do: stdout UTF-8
    strictly, stderr UTF-8 with backslashreplace."""
    out, err = io.BytesIO(), io.BytesIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8")
    stderr = io.TextIOWrapper(err, encoding="utf-8", errors="backslashreplace")
    code, exception = 0, None
    try:
        with environment(env or {}), redirect_stdout(stdout), redirect_stderr(stderr):
            cli.main(list(args))
    except SystemExit as e:
        code = e.code or 0
        exception = e if code else None
    except Exception as e:
        code, exception = 1, e
    stdout.flush()
    stderr.flush()
    return CliResult(code, out.getvalue().decode(), err.getvalue().decode(), exception)


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
    is a lambda whose binder has base type, and the redex's cut is
    <[*^n]-o*>.  The coefficient is 1."""
    return "(\\k:o->o. k y) (\\x:o. g x)", {"g": f"[{stars(n)}-o*]", "y": stars(n)}


def positive_source_point(k: int):
    """`\\h:o->o. f h` at f:[[D]-o*], result [D]-o*, with
    D = [[]-o*, [*]-o*, ..., [*^(k-1)]-o*]: the k distinct elements of D
    take every order, so the result has k! positive sources.  The
    coefficient is 1."""
    d = "[" + ",".join(f"{stars(i)}-o*" for i in range(k)) + "]"
    return "\\h:o->o. f h", {"f": f"[{d}-o*]"}, "f:(o->o)->o", f"{d}-o*"


def church_tower_point(m: int):
    """`(\\f:(o->o)->o->o. \\x:o->o. f (... (f x))) (\\h:o->o. \\z:o. h (h z)) g y`,
    m copies of f, at g:[2^m x ([*]-o*)], y:[*]: the numeral two composed
    m times, whose normal form `g (... (g y))` is 2^m deep.  The
    coefficient is 1."""
    body = "x"
    for _ in range(m):
        body = f"f {body}" if body == "x" else f"f ({body})"
    return (f"(\\f:(o->o)->o->o. \\x:o->o. {body}) (\\h:o->o. \\z:o. h (h z)) g y",
            {"g": "[" + ",".join(["[*]-o*"] * 2 ** m) + "]", "y": "[*]"})


def third_order_label_point(k: int):
    """`F (\\h:o->o. f h)` at F:[[[D]-o*]-o*], f:[[D]-o*], result *, with D
    the k distinct elements of positive_source_point: F's label lists all
    k! orders of D, of which one takes the argument.  The coefficient is
    1."""
    d = "[" + ",".join(f"{stars(i)}-o*" for i in range(k)) + "]"
    return ("F (\\h:o->o. f h)", {"F": f"[[{d}-o*]-o*]", "f": f"[{d}-o*]"},
            "F:((o->o)->o)->o, f:(o->o)->o")


def higher_order_cut_point(n: int = 1):
    """`(\\k:(o->o)->o. k g) (\\h:o->o. h y)` at g:[[*^n]-o*], y:[*^n]: the
    argument is a lambda whose binder has an arrow type, so its copies
    conclude refinements of (o->o)->o, and the cut is <<*^n>-o*>-o*.  The
    coefficient is 1."""
    return ("(\\k:(o->o)->o. k g) (\\h:o->o. h y)",
            {"g": f"[{stars(n)}-o*]", "y": stars(n)})


def third_order_cut_point():
    """`(\\k:((o->o)->o)->o. k (\\f:o->o. f y)) (\\h:(o->o)->o. h g)` at
    g:[[*]-o*], y:[*]: the argument is a lambda whose binder has a
    second-order type, and the normal form is `g y`.  The coefficient is
    1."""
    return ("(\\k:((o->o)->o)->o. k (\\f:o->o. f y)) (\\h:(o->o)->o. h g)",
            {"g": "[[*]-o*]", "y": "[*]"})


def point_subject(term_text: str, point_ctx: dict, ctx_text: str = "g:o->o, y:o",
                  result: str = "*"):
    """(ctx, annotated term, type, point) for a term at a point, of result
    type * unless another is given."""
    ctx = parse_context(ctx_text)
    term, ty = annotate(ctx, parse_term(term_text))
    return ctx, term, ty, point_from_json({"ctx": point_ctx, "type": result}, ctx, ty)


# Redexes whose argument copies differ but conclude one type, so that they
# meet the binder's occurrences in every order: each order is a witness of
# its own class, since the contracta put different copies in different
# places, while the redexes themselves collapse alike, the bag of copies
# forgetting which occurrence each one meets.  So only a class key taken
# after contraction tells their classes apart.  A bare-variable argument
# cannot do this: its copy is its label, so copies that differ meet
# occurrences whose labels differ too.
# label -> (term, point context, typing context, coefficient)
COPIES_IN_EVERY_ORDER = {
    "two-copies-of-an-application": (
        "(\\f:o. x f f) (g y)",
        {"x": "[[*]-o[*]-o*]", "g": "[[*]-o*,[]-o*]", "y": "[*]"},
        "x:o->o->o, g:o->o, y:o", 2),
    "three-copies-two-alike": (
        "(\\f:o. x f f f) (g y)",
        {"x": "[[*]-o[*]-o[*]-o*]", "g": "[[*]-o*,[]-o*,[]-o*]", "y": "[*]"},
        "x:o->o->o->o, g:o->o, y:o", 3),
    "copies-using-either-variable": (
        "(\\f:o. x f f) (g y z)",
        {"x": "[[*]-o[*]-o*]", "g": "[[*]-o[]-o*,[]-o[*]-o*]", "y": "[*]", "z": "[*]"},
        "x:o->o->o, g:o->o->o, y:o, z:o", 2),
    "copies-of-a-lambda": (
        "(\\f:o->o. x (f y) (f y)) (\\z:o. g z w)",
        {"x": "[[*]-o[*]-o*]", "g": "[[*]-o[*]-o*,[*]-o[]-o*]", "w": "[*]", "y": "[*,*]"},
        "x:o->o->o, g:o->o->o, w:o, y:o", 2),
}


def copies_in_every_order():
    """(label, ctx, term, point, coefficient) for each subject of
    COPIES_IN_EVERY_ORDER."""
    for label, (term, point_ctx, ctx_text, coefficient) in COPIES_IN_EVERY_ORDER.items():
        ctx, term, _, point = point_subject(term, point_ctx, ctx_text)
        yield label, ctx, term, point, coefficient


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


# The small-scope sweep: every canonical point of each corpus term up to a
# size, not a draw.

def star_count(a: IType) -> int:
    """How many stars a rigid type has, those in its domains included."""
    return 1 if isinstance(a, Star) else sum(map(star_count, a.domain)) + star_count(a.codomain)


def bounded_bags(t: SimpleType, m: int, n: int) -> list[SeqType]:
    """Every bag of canonical refinements of t with at most m elements and
    at most n stars in all, each in canonical order."""
    pool = bounded_canonical_refinements(t, m, n)
    return [bag for k in range(m + 1) for bag in combinations_with_replacement(pool, k)
            if sum(map(star_count, bag)) <= n]


@lru_cache(maxsize=None)
def bounded_canonical_refinements(t: SimpleType, m: int, n: int) -> tuple[IType, ...]:
    """Every canonical refinement of t with at most n stars whose domains
    are bags of at most m elements, in key_it order."""
    if n < 1:
        return ()
    if isinstance(t, Base):
        return (Star(),)
    return tuple(sorted((IArrow(dom, cod)
                         for cod in bounded_canonical_refinements(t.codomain, m, n)
                         for dom in bounded_bags(t.domain, m, n - star_count(cod))),
                        key=key_it))


def swept_points(n: int = 4, m: int = 4):
    """(entry, point) for every corpus entry and every point of its term
    where each context variable holds a bag of bounded_bags and the result
    is a canonical refinement of the term's type, each with at most n
    stars and domains of at most m elements."""
    for entry in load_corpus():
        ctx, _, ty, _ = parse_entry(entry)
        per_var = [[(x, bag) for bag in bounded_bags(t, m, n)] for x, t in ctx]
        for bags in product(*per_var):
            for result in bounded_canonical_refinements(ty, m, n):
                yield entry, PointSpec(bags, result)


# Every small term, not only the corpus's: a bounded-exhaustive battery.

O = Base()
SMALL_ARGUMENT_TYPES = (O, Arrow(O, O), Arrow(Arrow(O, O), O))


def small_terms(ctx: TypingContext, ty: SimpleType, size: int,
                argument_types=SMALL_ARGUMENT_TYPES) -> list:
    """Every annotated term of type ty over ctx whose size, its variables,
    applications and lambdas, is at most size, redexes included; each
    application's argument, and so each redex's binder, has one of
    argument_types.  The binders are distinct and apart from ctx's names."""
    @lru_cache(maxsize=None)
    def terms(env: tuple, t: SimpleType, n: int) -> tuple:
        out = [Var(x) for x, s in env if s == t] if n == 1 else []
        if isinstance(t, Arrow) and n > 1:
            x = f"x{len(env)}"
            out += [Lam(x, b, t.domain) for b in terms(env + ((x, t.domain),), t.codomain, n - 1)]
        for s in argument_types:
            for k in range(1, n - 1):
                out += [App(f, a) for f in terms(env, Arrow(s, t), k)
                        for a in terms(env, s, n - 1 - k)]
        return tuple(out)

    names = set(ctx.names())
    return [ensure_distinct_binders(t, names)
            for n in range(1, size + 1) for t in terms(tuple(ctx.bindings), ty, n)]


def small_points(ctx: TypingContext, term, m: int = 2, n: int = 3):
    """Every point of result * at which each free variable of term holds a
    bag of bounded_bags(t, m, n), and every other variable the empty bag."""
    fvs = set(free_vars(term))
    per_var = [[(x, bag) for bag in (bounded_bags(t, m, n) if x in fvs else [()])]
               for x, t in ctx]
    return [PointSpec(bags, Star()) for bags in product(*per_var)]


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

def per_target_witnesses(ctx, term, gamma: ResourceContext, a: IType, enumerator=None) -> list:
    """Every (theta, alpha, derivation) at the rigid points reachable from
    (gamma, a), in the order positive_witnesses lists its witnesses.
    `enumerator(ctx, term, theta, alpha)` gives the derivations at one
    point, sorted by resource_to_text; by default enumerate_witnesses'."""
    if enumerator is None:
        def enumerator(*args):
            return enumerate_witnesses(*args).derivations
    return [(theta, alpha, d) for theta in neg_targets_ctx(gamma)
            for alpha in pos_sources_it(a)
            for d in enumerator(ctx, term, theta, alpha)]


def across_points(name: str):
    """(ctx, term, derivations) of the corpus entry `name` over every
    negative target of its canonical point.

    A derivation fixes the order in which each context sequence is consumed,
    so counting at the representative alone undercounts; this is the raw
    enumeration underlying the positive witness count.
    """
    ctx, term, ty, point = parse_entry(next(e for e in load_corpus() if e["name"] == name))
    gamma, alpha = canonicalize_point(point, ctx, ty)
    return ctx, term, [d for _, _, d in per_target_witnesses(ctx, term, gamma, alpha)]


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


# The cuts the split oracle tries at a redex: every sequence type of
# refinements of the argument's type whose sequences are no longer than a
# budget.

@lru_cache(maxsize=None)
def bounded_refinements(t: SimpleType, budget: int) -> tuple[IType, ...]:
    """The refinements of t whose sequences have length at most the budget."""
    if isinstance(t, Base):
        return (Star(),)
    pool = bounded_refinements(t.domain, budget)
    return tuple(IArrow(s, c) for n in range(budget + 1) for s in product(pool, repeat=n)
                 for c in bounded_refinements(t.codomain, budget))


@lru_cache(maxsize=None)
def bounded_seqs(t: SimpleType, budget: int) -> tuple[SeqType, ...]:
    """Every sequence, of length at most the budget, over the refinements
    of t whose sequences have length at most the budget."""
    pool = bounded_refinements(t, budget)
    return tuple(seq for n in range(budget + 1) for seq in product(pool, repeat=n))


def point_width(point: PointSpec) -> int:
    """The longest sequence in a point: its longest bag, or the widest
    domain of a type in it, all the way down."""
    def width(a: IType) -> int:
        if isinstance(a, Star):
            return 0
        return max(len(a.domain), width(a.codomain), *map(width, a.domain))

    return max([width(point.result)] + [len(seq) for _, seq in point.ctx]
               + [width(a) for _, seq in point.ctx for a in seq])


def redex_subjects():
    """(label, ctx, term, type, point): every corpus redex, the redexes whose
    copies meet in every order, the redexes among the generated points, and
    redexes whose argument's copies start from a suffix of a sequence."""
    for entry in load_corpus():
        ctx, term, ty, point = parse_entry(entry)
        if not is_beta_normal(term):
            yield entry["name"], ctx, term, ty, point
    for label, (term, point_ctx, ctx_text, _) in COPIES_IN_EVERY_ORDER.items():
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


# The enumerator that guessed context splits: every way to split the context
# among the subterms (brute_split_ctx), then each block solved on its own.
# derivation threads the context instead, and reads a redex's derivations
# back from its normal form's; this is its oracle, which normalizes nothing.

def split_witnesses(ctx, term, theta: ResourceContext, alpha: IType, budget=None,
                    cache=None) -> tuple:
    """The derivations of term at (theta, alpha), as enumerate_witnesses
    returns them, whose redexes' cuts, tried one by one, are no longer than
    the budget: all of them once the budget reaches the longest cut.
    Subproblems are memoized in `cache`, which the calls on one subject may
    share."""
    term, _ = annotate(ctx, term)
    found = _split_enum(term, theta, alpha, None if is_beta_normal(term) else budget,
                        {} if cache is None else cache)
    return tuple(sorted(dict.fromkeys(found), key=resource_to_text))


def _split_enum(term, theta, alpha, budget, cache):
    key = (term, theta, alpha, budget)
    if key not in cache:
        # a variable not free in the term has no occurrence to use it up
        fvs = free_vars(term)
        cache[key] = ([] if any(seq for x, seq, _ in theta.entries if x not in fvs)
                      else _split_enum_raw(term, theta, alpha, budget, cache))
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
            aty = annotate(TypingContext(theta.shape()), a)[1]
            out = []
            for th_f, th_a in brute_split_ctx(theta, [f, a]):
                cuts = (th_a.lookup(a.name),) if isinstance(a, Var) else bounded_seqs(aty, budget)
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
