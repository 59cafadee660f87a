"""Simply-typed lambda-terms: parsing, typing, beta-normalization.

Terms follow the Barendregt convention: after parsing (and again after
normalization) all binders are pairwise distinct and distinct from every
free variable.  The rest of the package leans on this -- resource contexts
are keyed by variable name, so shadowing is never allowed to survive.

Simple types and terms are interned (interning.Node): equal trees are one
object, so equality is identity and a term or type hashes in constant
time however deep it is.  Alpha-equivalent terms with different binder
names are different trees.  These facts (interning.fact) are computed
once per term and kept on it:

  free_vars       its free variables, a sorted tuple;
  binder_names    its binder names, when they are pairwise distinct and
                  apart from its free variables, else None; a term whose
                  binders are apart from the reserved names too comes back
                  from ensure_distinct_binders without a walk;
  is_beta_normal  whether it is beta-normal;
  _nf             its beta-normal form, before binders are re-freshened.

A term also has a memo (interning.memo), where annotate keeps what it
found with the types of the free variables it found it under, and other
modules keep what a later query reads of the term (interning says what).
All of it dies with the term.

A text parsed before is not read again: parse_term, parse_simple_type and
parse_context keep the last interning.TEXTS_KEPT texts they read, by text.
Kept values are immutable, so callers share them.

Binder annotations are optional in the concrete syntax.  An unannotated
binder is only legal when the full simple type of the term is supplied,
in which case annotations are filled in by structural matching against
the expected type (`annotate`).
"""

from __future__ import annotations

from functools import lru_cache
import re

from .interning import TEXTS_KEPT, Node, Record, fact, memo


class ParseError(Exception):
    """Raised on malformed input text, with a position in the message."""


class TypeCheckError(Exception):
    """Raised when a term has no simple type in the given context."""


####################################################################
# simple types

class Base(Node):
    def __repr__(self) -> str:
        return "o"


class Arrow(Node):
    domain: "SimpleType"
    codomain: "SimpleType"

    def __repr__(self) -> str:
        return type_to_text(self)


SimpleType = Base | Arrow

O = Base()


def type_to_text(t: SimpleType) -> str:
    match t:
        case Base():
            return "o"
        case Arrow(d, c):
            left = type_to_text(d)
            if isinstance(d, Arrow):
                left = f"({left})"
            return f"{left} -> {type_to_text(c)}"
    raise TypeError(f"not a simple type: {t!r}")


####################################################################
# terms

class _TermNode(Node):
    """A term, with slots for its facts free_vars, binder_names,
    is_beta_normal and _nf, and for its memo."""

    __slots__ = ("free_vars", "binder_names", "is_beta_normal", "_nf", "_memo")


class Var(_TermNode):
    name: str


class App(_TermNode):
    fn: "Term"
    arg: "Term"


class Lam(_TermNode):
    binder: str
    body: "Term"
    annot: SimpleType | None = None


Term = Var | App | Lam


@fact
def free_vars(t: Term) -> tuple[str, ...]:
    """The free variables of t, sorted.  A term whose free variables are
    those of a child shares the child's tuple."""
    match t:
        case Var(x):
            return (x,)
        case App(f, a):
            vs, ws = free_vars(f), free_vars(a)
            both = tuple(sorted({*vs, *ws}))
            return vs if both == vs else ws if both == ws else both
        case Lam(x, b, _):
            vs = free_vars(b)
            return tuple(v for v in vs if v != x) if x in vs else vs
    raise TypeError(f"not a term: {t!r}")


@fact
def binder_names(t: Term) -> tuple[str, ...] | None:
    """t's binder names, when they are pairwise distinct and apart from t's
    free variables; None otherwise."""
    match t:
        case Var(_):
            return ()
        case App(f, a):
            bs, cs = binder_names(f), binder_names(a)
            if (bs is None or cs is None or not set(bs).isdisjoint((*cs, *free_vars(a)))
                    or not set(cs).isdisjoint(free_vars(f))):
                return None
            return bs + cs if bs and cs else bs or cs
        case Lam(x, b, _):
            bs = binder_names(b)
            return None if bs is None or x in bs else (x,) + bs
    raise TypeError(f"not a term: {t!r}")


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Unwind nested applications: spine(f a b) = (f, [a, b])."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def term_to_text(t: Term) -> str:
    match t:
        case Var(x):
            return x
        case Lam(x, b, ann):
            a = f":{type_to_text(ann)}" if ann is not None else ""
            return f"\\{x}{a}. {term_to_text(b)}"
        case App(_, _):
            head, args = spine(t)
            parts = [_atom_text(head)] + [_atom_text(a) for a in args]
            return " ".join(parts)
    raise TypeError(f"not a term: {t!r}")


def _atom_text(t: Term) -> str:
    s = term_to_text(t)
    return s if isinstance(t, Var) else f"({s})"


####################################################################
# tokenizer, shared by terms / simple types / contexts

_TOKEN_RE = re.compile(
    r"(?P<arrow>->)|(?P<ident>[a-zA-Z_][a-zA-Z0-9_']*)|(?P<punct>[\\.():,])|(?P<bad>\S)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """One scan of text: whitespace separates tokens, and a character that
    starts no token is an error at its own position."""
    toks = []
    for m in _TOKEN_RE.finditer(text):
        kind, value, pos = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r} at position {pos}")
        toks.append((value if kind == "punct" else kind, value, pos))
    toks.append(("eof", "", len(text)))
    return toks


class _Tokens:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def next(self) -> tuple[str, str, int]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> tuple[str, str, int]:
        k, v, p = self.next()
        if k != kind:
            raise ParseError(f"expected {kind!r} but found {v or 'end of input'!r} at position {p}")
        return k, v, p

    def done(self) -> bool:
        return self.peek()[0] == "eof"


####################################################################
# parsing

@lru_cache(maxsize=TEXTS_KEPT)
def parse_simple_type(text: str) -> SimpleType:
    ts = _Tokens(text)
    t = _parse_stype(ts)
    if not ts.done():
        k, v, p = ts.peek()
        raise ParseError(f"trailing input {v!r} at position {p}")
    return t


def _parse_stype(ts: _Tokens) -> SimpleType:
    left = _parse_stype_atom(ts)
    if ts.peek()[0] == "arrow":
        ts.next()
        return Arrow(left, _parse_stype(ts))
    return left


def _parse_stype_atom(ts: _Tokens) -> SimpleType:
    k, v, p = ts.next()
    if k == "ident":
        if v == "o":
            return O
        raise ParseError(f"unknown base type {v!r} at position {p}")
    if k == "(":
        t = _parse_stype(ts)
        ts.expect(")")
        return t
    raise ParseError(f"expected a type but found {v or 'end of input'!r} at position {p}")


@lru_cache(maxsize=TEXTS_KEPT)
def parse_term(text: str) -> Term:
    """Parse and freshen so the Barendregt convention holds."""
    ts = _Tokens(text)
    t = _parse_term(ts)
    if not ts.done():
        k, v, p = ts.peek()
        raise ParseError(f"trailing input {v!r} at position {p}")
    return ensure_distinct_binders(t)


def _parse_term(ts: _Tokens) -> Term:
    if ts.peek()[0] == "\\":
        ts.next()
        _, x, _ = ts.expect("ident")
        ann = None
        if ts.peek()[0] == ":":
            ts.next()
            ann = _parse_stype(ts)
        ts.expect(".")
        return Lam(x, _parse_term(ts), ann)
    t = _parse_atom(ts)
    while ts.peek()[0] in ("ident", "(", "\\"):
        if ts.peek()[0] == "\\":
            # juxtaposed lambda argument must be parenthesized; stop here
            break
        t = App(t, _parse_atom(ts))
    return t


def _parse_atom(ts: _Tokens) -> Term:
    k, v, p = ts.next()
    if k == "ident":
        return Var(v)
    if k == "(":
        t = _parse_term(ts)
        ts.expect(")")
        return t
    raise ParseError(f"expected a term but found {v or 'end of input'!r} at position {p}")


####################################################################
# typing contexts

class TypingContext(Record):
    __slots__ = ("bindings",)

    def __init__(self, bindings: tuple[tuple[str, SimpleType], ...] = ()):
        names = [x for x, _ in bindings]
        if len(set(names)) != len(names):
            raise TypeCheckError(f"duplicate variable in context: {names}")
        object.__setattr__(self, "bindings", bindings)

    def lookup(self, name: str) -> SimpleType | None:
        for x, t in self.bindings:
            if x == name:
                return t
        return None

    def extend(self, name: str, ty: SimpleType) -> "TypingContext":
        if self.lookup(name) is not None:
            raise TypeCheckError(f"variable {name!r} already bound in context")
        return TypingContext(self.bindings + ((name, ty),))

    def names(self) -> tuple[str, ...]:
        return tuple(x for x, _ in self.bindings)

    def __iter__(self):
        return iter(self.bindings)

    def __repr__(self) -> str:
        return context_to_text(self)


def context_to_text(ctx: TypingContext) -> str:
    return ", ".join(f"{x}:{type_to_text(t)}" for x, t in ctx.bindings)


@lru_cache(maxsize=TEXTS_KEPT)
def parse_context(text: str) -> TypingContext:
    if not text.strip():
        return TypingContext()
    ts = _Tokens(text)
    bindings = []
    while True:
        _, x, _ = ts.expect("ident")
        ts.expect(":")
        bindings.append((x, _parse_stype(ts)))
        if ts.peek()[0] != ",":
            break
        ts.next()
    if not ts.done():
        k, v, p = ts.peek()
        raise ParseError(f"trailing input {v!r} at position {p}")
    return TypingContext(tuple(bindings))


####################################################################
# freshness

def fresh_name(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    stem = base.rstrip("0123456789")
    i = 1
    while f"{stem}{i}" in taken:
        i += 1
    return f"{stem}{i}"


def ensure_distinct_binders(t: Term, reserved: set[str] | None = None) -> Term:
    """Rename binders so all are distinct from each other, from free vars and
    from reserved.  A subterm that needs no renaming comes back as it is,
    and a term that needs none comes back without a walk."""
    bs = binder_names(t)
    if bs is not None and (not reserved or reserved.isdisjoint(bs)):
        return t
    return _freshen(t, {}, {*free_vars(t), *(reserved or ())})


def _freshen(t: Term, env: dict[str, str], taken: set[str]) -> Term:
    """t with each binder renamed to the first fresh_name not in taken,
    which then joins taken, and each bound variable renamed as env says."""
    match t:
        case Var(x):
            x2 = env.get(x, x)
            return t if x2 == x else Var(x2)
        case App(f, a):
            f2, a2 = _freshen(f, env, taken), _freshen(a, env, taken)
            return t if f2 is f and a2 is a else App(f2, a2)
        case Lam(x, b, ann):
            x2 = fresh_name(x, taken)
            taken.add(x2)
            b2 = _freshen(b, {**env, x: x2}, taken)
            return t if x2 == x and b2 is b else Lam(x2, b2, ann)
    raise TypeError(f"not a term: {t!r}")


####################################################################
# typing

def annotate(ctx: TypingContext, t: Term, expected: SimpleType | None = None) -> tuple[Term, SimpleType]:
    """Return a fully annotated copy of t together with its simple type.

    With expected=None every binder must already carry an annotation.  A
    subterm already annotated comes back as it is.  The result is kept in
    t's memo, replacing the one before, with the types of t's free
    variables: besides expected, they are all that annotating t reads.  It
    answers again when they match, no binder of t is bound in ctx, where
    extending ctx would raise, and expected is the one it was found under
    or, when t came back as it is, None or t's type.  A copy is kept on the
    term it annotates, so it lives as long as that term and keeps its own
    memo.
    """
    key = tuple(map(ctx.lookup, free_vars(t)))
    kept = memo(t)
    have = kept.get("annotate")
    if have is not None and have[0] == key and expected in have[1]:
        bs = binder_names(t)
        if bs is not None and not any(map(ctx.lookup, bs)):
            return t if have[2] is None else have[2], have[3]
    t2, ty = _annotate(ctx, t, expected)
    # t itself is kept as None, so that the memo makes no reference cycle
    kept["annotate"] = ((key, (None, ty), None, ty) if t2 is t
                        else (key, (expected,), t2, ty))
    return t2, ty


def _annotate(ctx: TypingContext, t: Term, expected: SimpleType | None) -> tuple[Term, SimpleType]:
    match t:
        case Var(x):
            ty = ctx.lookup(x)
            if ty is None:
                raise TypeCheckError(f"unbound variable {x!r}")
            if expected is not None and ty != expected:
                raise TypeCheckError(
                    f"variable {x!r} has type {type_to_text(ty)}, expected {type_to_text(expected)}")
            return t, ty
        case Lam(x, b, ann):
            if expected is not None:
                if not isinstance(expected, Arrow):
                    raise TypeCheckError(
                        f"lambda \\{x} cannot have base type {type_to_text(expected)}")
                if ann is not None and ann != expected.domain:
                    raise TypeCheckError(
                        f"binder {x!r} annotated {type_to_text(ann)} but expected {type_to_text(expected.domain)}")
                b2, _ = _annotate(ctx.extend(x, expected.domain), b, expected.codomain)
                if b2 is b and ann is expected.domain:
                    return t, expected
                return Lam(x, b2, expected.domain), expected
            if ann is None:
                raise TypeCheckError(
                    f"binder {x!r} lacks an annotation and no expected type is available")
            b2, bt = _annotate(ctx.extend(x, ann), b, None)
            return t if b2 is b else Lam(x, b2, ann), Arrow(ann, bt)
        case App(f, a):
            if isinstance(f, Lam) and f.annot is None:
                # redex with an unannotated binder: the argument determines it
                a2, at = _annotate(ctx, a, None)
                b2, bt = _annotate(ctx.extend(f.binder, at), f.body, expected)
                return App(Lam(f.binder, b2, at), a2), bt
            f2, ft = _annotate(ctx, f, None)
            if not isinstance(ft, Arrow):
                raise TypeCheckError(
                    f"cannot apply {term_to_text(f)} of base type to {term_to_text(a)}")
            a2, _ = _annotate(ctx, a, ft.domain)
            if expected is not None and ft.codomain != expected:
                raise TypeCheckError(
                    f"application has type {type_to_text(ft.codomain)}, expected {type_to_text(expected)}")
            return t if f2 is f and a2 is a else App(f2, a2), ft.codomain
    raise TypeError(f"not a term: {t!r}")


####################################################################
# reduction

def substitute(t: Term, x: str, s: Term) -> Term:
    """Capture-avoiding substitution t[s/x]."""
    match t:
        case Var(y):
            return s if y == x else t
        case App(f, a):
            return App(substitute(f, x, s), substitute(a, x, s))
        case Lam(y, b, ann):
            if y == x:
                return t
            if y in free_vars(s):
                y2 = fresh_name(y, {*free_vars(s), *free_vars(b), x})
                b = substitute(b, y, Var(y2))
                return Lam(y2, substitute(b, x, s), ann)
            return Lam(y, substitute(b, x, s), ann)
    raise TypeError(f"not a term: {t!r}")


@fact
def is_beta_normal(t: Term) -> bool:
    match t:
        case Var(_):
            return True
        case Lam(_, b, _):
            return is_beta_normal(b)
        case App(f, a):
            return not isinstance(f, Lam) and is_beta_normal(f) and is_beta_normal(a)
    raise TypeError(f"not a term: {t!r}")


def _whnf(t: Term) -> Term:
    match t:
        case App(f, a):
            fh = _whnf(f)
            if isinstance(fh, Lam):
                return _whnf(substitute(fh.body, fh.binder, a))
            return App(fh, a)
        case _:
            return t


@fact
def _nf(t: Term) -> Term:
    if is_beta_normal(t):
        return t
    t = _whnf(t)
    match t:
        case Var(_):
            return t
        case Lam(x, b, ann):
            return Lam(x, _nf(b), ann)
        case App(f, a):
            # head is rigid after _whnf; normalize the pieces
            return App(_nf(f), _nf(a))
    raise TypeError(f"not a term: {t!r}")


def beta_normalize(t: Term, reserved: set[str] | None = None) -> Term:
    """Leftmost-outermost reduction to beta-normal form, then re-freshened:
    binders distinct from each other, from free vars and from reserved."""
    return ensure_distinct_binders(_nf(t), reserved)
