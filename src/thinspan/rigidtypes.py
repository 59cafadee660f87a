"""Rigid intersection types refining simple types, and multiset types as
their canonical representatives.

Rigid types use ordered sequences <a1,...,an>; collapsing the order gives
the usual non-idempotent multiset types [a1,...,an].  There is one
representation: a multiset type is the canonical rigid type, every
sequence sorted under a fixed total order.  Rigid types are interned
(interning.Node): equal types are one object, so equality is identity,
and two multiset types are equal exactly when their canonical types are
the same object.  These facts (interning.fact) are computed once per type
and kept on it:

  key_it           its place in the total order on types;
  canonicalize_it  its canonical form;
  erasure          the one simple type it refines, or None when an empty
                   domain at some depth leaves that type open, or it
                   refines none; refines walks only such a type;
  _degrees_it      its symmetry degrees (symmetry).

The [...] notation parses to and prints canonical types.  A PointSpec
keeps the check canonicalize_point last made on it, so that the checked
point a query is parsed with is not checked again when it is prepared.
A text parsed before is not read again: parse_mit and parse_mset keep
the last interning.TEXTS_KEPT texts they read, by text.

A sequence type is represented as a bare tuple of ITypes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
import re

from .interning import TEXTS_KEPT, Node, fact
from .syntax import O, Arrow, SimpleType, Term, TypingContext, type_to_text


class RefinementError(Exception):
    """Raised when a type does not refine the simple type."""


####################################################################
# rigid types

class _ITNode(Node):
    """A rigid type, with slots for its facts: key_it, canonicalize_it,
    erasure and symmetry._degrees_it."""

    __slots__ = ("key_it", "canonicalize_it", "erasure", "_degrees_it")


class Star(_ITNode):
    def __repr__(self) -> str:
        return "*"


class IArrow(_ITNode):
    domain: tuple["IType", ...]
    codomain: "IType"

    def __repr__(self) -> str:
        return it_to_text(self)


IType = Star | IArrow
SeqType = tuple[IType, ...]

STAR = Star()


####################################################################
# total orders
#
# star sorts before arrows; arrows sort by domain length, then by the
# domain components lexicographically, then by the codomain.

@fact
def key_it(a: IType):
    match a:
        case Star():
            return (0,)
        case IArrow(d, c):
            return (1, len(d), tuple(key_it(x) for x in d), key_it(c))
    raise TypeError(f"not a rigid type: {a!r}")


####################################################################
# refinement

@fact
def erasure(a: IType) -> SimpleType | None:
    """The one simple type a refines: o for the base; for an arrow, the
    arrow from the one type all its domain's components erase to, to its
    codomain's erasure.  None when the domain is empty, which leaves the
    domain's type open, when a component's erasure is None, or when the
    components' erasures differ."""
    match a:
        case Star():
            return O
        case IArrow(d, c):
            ds = set(map(erasure, d))
            cod = erasure(c)
            if len(ds) != 1 or None in ds or cod is None:
                return None
            return Arrow(ds.pop(), cod)
    raise TypeError(f"not a rigid type: {a!r}")


def refines(a: IType, t: SimpleType) -> bool:
    e = erasure(a)
    if e is not None:
        return e is t
    match a, t:
        case IArrow(d, c), Arrow(td, tc):
            return all(refines(x, td) for x in d) and refines(c, tc)
    return False


def refines_seq(seq: SeqType, t: SimpleType) -> bool:
    return all(refines(a, t) for a in seq)


####################################################################
# canonical representatives

@fact
def canonicalize_it(a: IType) -> IType:
    """Sort every sequence after canonicalizing its components."""
    match a:
        case Star():
            return a
        case IArrow(d, c):
            return IArrow(canonicalize_seq(d), canonicalize_it(c))
    raise TypeError(f"not a rigid type: {a!r}")


def canonicalize_seq(seq: SeqType) -> SeqType:
    return tuple(sorted((canonicalize_it(a) for a in seq), key=key_it))


def is_canonical(a: IType) -> bool:
    return canonicalize_it(a) is a


def is_canonical_seq(seq: SeqType) -> bool:
    """Every element canonical and the elements in key_it order, so that
    canonicalize_seq would give seq back; nothing is built."""
    return (all(map(is_canonical, seq))
            and all(key_it(a) <= key_it(b) for a, b in zip(seq, seq[1:])))


####################################################################
# resource contexts

@dataclass(frozen=True)
class ResourceContext:
    """Per-variable sequence types over a fixed list of typed variables."""

    entries: tuple[tuple[str, SeqType, SimpleType], ...] = ()

    def lookup(self, name: str) -> SeqType:
        for x, seq, _ in self.entries:
            if x == name:
                return seq
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        return tuple(x for x, _, _ in self.entries)

    def shape(self) -> tuple[tuple[str, SimpleType], ...]:
        return tuple((x, t) for x, _, t in self.entries)

    def __repr__(self) -> str:
        return ctx_to_text(self)


def ctx_refines(c: ResourceContext) -> bool:
    return all(refines_seq(seq, t) for _, seq, t in c.entries)


####################################################################
# points of the multiset web

@dataclass(frozen=True)
class PointSpec:
    """A context of per-variable multisets plus a result multiset type.

    Every entry and the result are kept canonical, so equal multisets are
    equal values whatever order they were built in.
    """

    ctx: tuple[tuple[str, SeqType], ...]
    result: IType
    # (typing context, result type, canonical rigid point): the last check
    # canonicalize_point made of this point
    _checked: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ctx", tuple(
            (x, canonicalize_seq(ms)) for x, ms in self.ctx))
        object.__setattr__(self, "result", canonicalize_it(self.result))

    def ctx_lookup(self, name: str) -> SeqType:
        for x, ms in self.ctx:
            if x == name:
                return ms
        return ()


def canonicalize_point(p: PointSpec, ctx: TypingContext,
                       result_type: SimpleType) -> tuple[ResourceContext, IType]:
    """The canonical rigid point of a multiset point, checking refinement.

    The resource context ranges over every variable of ctx, in ctx order;
    variables missing from the point get the empty sequence.  The point
    keeps the last check, which answers again for an equal ctx and the
    same result type.
    """
    have = p._checked
    if have is not None and have[1] is result_type and have[0] == ctx:
        return have[2]
    out = _rigid_point(p, ctx, result_type)
    object.__setattr__(p, "_checked", (ctx, result_type, out))
    return out


def _rigid_point(p: PointSpec, ctx: TypingContext,
                 result_type: SimpleType) -> tuple[ResourceContext, IType]:
    known = set(ctx.names())
    for x, _ in p.ctx:
        if x not in known:
            raise RefinementError(f"point mentions variable {x!r} not bound in the context")
    entries = []
    for x, t in ctx:
        ms = p.ctx_lookup(x)
        for m in ms:
            if not refines(m, t):
                raise RefinementError(
                    f"entry {mit_to_text(m)} for variable {x!r} does not refine {type_to_text(t)}")
        entries.append((x, ms, t))
    if not refines(p.result, result_type):
        raise RefinementError(
            f"result {mit_to_text(p.result)} does not refine {type_to_text(result_type)}")
    return ResourceContext(tuple(entries)), p.result


@dataclass(frozen=True)
class Subject:
    """A query prepared once (collapse.prepare): the term annotated, with its
    binders distinct and apart from the context's names, its simple type,
    the point, and the point's canonical rigid representative (gamma,
    result), whose refinement of the context and of ty has been checked.
    The witness and coefficient paths read it and check none of it again."""

    ctx: TypingContext
    term: Term
    ty: SimpleType
    point: PointSpec
    gamma: ResourceContext
    result: IType


####################################################################
# text notation
#
#   *                      base
#   <a1,...,an> -o b       rigid arrow (ordered domain)
#   [a1,...,an] -o b       multiset arrow, read and printed as the
#                          canonical rigid arrow
#
# -o is right-associative; whitespace is free.

_IT_TOKEN_RE = re.compile(r"(?P<lolli>-o)|(?P<punct>[*<>\[\](),])|(?P<bad>\S)")


def _it_tokenize(text: str) -> list[tuple[str, int]]:
    """One scan of text: whitespace separates tokens, and a character that
    starts no token is an error at its own position."""
    toks = []
    for m in _IT_TOKEN_RE.finditer(text):
        kind, value, pos = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise RefinementError(f"unexpected character {value!r} at position {pos} in type notation")
        toks.append((value, pos))
    toks.append(("eof", len(text)))
    return toks


class _ITParser:
    def __init__(self, text: str, allow_multiset: bool):
        self.toks = _it_tokenize(text)
        self.i = 0
        self.allow_multiset = allow_multiset

    def peek(self):
        return self.toks[self.i][0]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str):
        k, p = self.next()
        if k != kind:
            raise RefinementError(f"expected {kind!r} at position {p} in type notation, found {k!r}")

    def parse_type(self) -> IType:
        k = self.peek()
        if k in ("<", "["):
            seq = self.parse_seq()
            self.expect("-o")
            return IArrow(seq, self.parse_type())
        if k == "*":
            self.next()
            return STAR
        if k == "(":
            self.next()
            t = self.parse_type()
            self.expect(")")
            return t
        raise RefinementError(f"expected a type at position {self.toks[self.i][1]}, found {k!r}")

    def parse_seq(self) -> SeqType:
        k, p = self.next()
        if k not in ("<", "["):
            raise RefinementError(
                f"expected '[' or '<' at position {p} in type notation, found {k!r}")
        close = ">" if k == "<" else "]"
        if k == "[" and not self.allow_multiset:
            raise RefinementError(f"multiset brackets at position {p} where a rigid type is required")
        items: list[IType] = []
        if self.peek() == close:
            self.next()
            return ()
        while True:
            items.append(self.parse_type())
            k2, p2 = self.next()
            if k2 == close:
                return tuple(items)
            if k2 != ",":
                raise RefinementError(f"expected ',' or {close!r} at position {p2} in type notation")

    def finish(self):
        if self.peek() != "eof":
            raise RefinementError(f"trailing input at position {self.toks[self.i][1]} in type notation")


def parse_itype(text: str) -> IType:
    p = _ITParser(text, allow_multiset=False)
    t = p.parse_type()
    p.finish()
    return t


@lru_cache(maxsize=TEXTS_KEPT)
def parse_mit(text: str) -> IType:
    """Multiset type notation, as a canonical type; rigid sequence brackets
    are accepted and collapsed."""
    p = _ITParser(text, allow_multiset=True)
    t = p.parse_type()
    p.finish()
    return canonicalize_it(t)


@lru_cache(maxsize=TEXTS_KEPT)
def parse_mset(text: str) -> SeqType:
    """A bare multiset of types, e.g. "[[*,*]-o*]", as a canonical sequence;
    used for context entries."""
    p = _ITParser(text, allow_multiset=True)
    seq = p.parse_seq()
    p.finish()
    return canonicalize_seq(seq)


def it_to_text(a: IType) -> str:
    match a:
        case Star():
            return "*"
        case IArrow(d, c):
            return f"{seq_to_text(d)}-o{it_to_text(c)}"
    raise TypeError(f"not a rigid type: {a!r}")


def seq_to_text(seq: SeqType) -> str:
    return "<" + ",".join(it_to_text(a) for a in seq) + ">"


def mit_to_text(a: IType) -> str:
    """A canonical type in multiset notation."""
    match a:
        case Star():
            return "*"
        case IArrow(d, c):
            return f"{mset_to_text(d)}-o{mit_to_text(c)}"
    raise TypeError(f"not a rigid type: {a!r}")


def mset_to_text(ms: SeqType) -> str:
    return "[" + ",".join(mit_to_text(m) for m in ms) + "]"


def ctx_to_text(c: ResourceContext) -> str:
    return ", ".join(f"{x}:{seq_to_text(seq)}" for x, seq, _ in c.entries)


def point_from_json(obj: dict, ctx: TypingContext, result_type: SimpleType) -> PointSpec:
    """Build a PointSpec from {"ctx": {var: "<mset>"}, "type": "<mit>"} data."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise RefinementError('point must be an object with "ctx" and "type" fields')
    raw_ctx = obj.get("ctx", {})
    if not isinstance(raw_ctx, dict):
        raise RefinementError('point "ctx" must map variable names to multiset notation')
    entries = []
    for x, text in raw_ctx.items():
        if ctx.lookup(x) is None:
            raise RefinementError(f"point mentions variable {x!r} not bound in the context")
        if not isinstance(text, str):
            raise RefinementError(f"point entry for {x!r} must be multiset notation, got {text!r}")
        entries.append((x, parse_mset(text)))
    if not isinstance(obj["type"], str):
        raise RefinementError(f'point "type" must be multiset notation, got {obj["type"]!r}')
    result = parse_mit(obj["type"])
    p = PointSpec(tuple(entries), result)
    # fail fast on refinement errors
    canonicalize_point(p, ctx, result_type)
    return p


def point_to_json(p: PointSpec) -> dict:
    return {
        "ctx": {x: mset_to_text(ms) for x, ms in p.ctx if ms},
        "type": mit_to_text(p.result),
    }
