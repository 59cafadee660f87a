"""Positive witnesses and the quantitative collapse identities.

A point is given up to symmetry by a multiset context and a multiset result
type; its canonical rigid representative (gamma, a) is fixed by sorting.  A
positive witness for a term at that point is a derivation d at some rigid
point (Theta, alpha) such that a negative context morphism gamma -> Theta
and a positive type morphism alpha -> a exist.  Only their existence
matters, so no morphism is built.  The witnesses are enumerated once, over
the bags of gamma and of a's domains, and d determines Theta and alpha, so
neither the rigid contexts reachable from gamma nor the rigid results that
reach a are listed.

The identities checked here:

  * the weighted-relational coefficient equals the number of positive
    witnesses;
  * grouping witnesses by symmetry, each class s contributes
    deg+(gamma) * deg-(a) / deg(s) many positive witnesses, an integer;
  * the count of witness triples (theta-, d, theta+) with unconstrained
    polarized morphisms factors as deg-(gamma) * #witnesses * deg+(a),
    which is the coefficient of the term in the plain (symmetrized) model,
    so the two models differ exactly by that product of degrees.

A redex's witnesses are enumerated on its beta-normal form
(derivation.normal_witnesses).  Reading back keeps every point up to
polarized symmetry, so every count checked here is taken on the normal
form's derivations, and only a listing reads them back (read_back).

A query's inputs are checked once, by prepare: it freshens the term's
binders, annotates the term and checks the point, and the Subject it
returns carries the result.  positive_witnesses and wrel_coefficient take
that Subject and check none of it again.

A repeated query is answered from what the first one kept in the term's
memo (interning.memo), which dies with the term.  Every identity checked
here is a statement about numbers, so a query keeps counts, not
witnesses: keyed by the canonical point's entries and its result,
positive_witnesses keeps the witness count, the size and the degree of
each class and both points' degrees, and esp_explicit keeps its triple
count, keyed by the point, which fixes the witnesses.  Nothing kept holds
a derivation, a resource term or a context.  Each computation keeps only
its own result, under keys of its own, so the witness count, the
class-weighted sum, the triple count and the wrel coefficient still come
from separate computations.

A report holds the normal form's derivations in the enumerator's order,
the trace that reads them back, and their classes: verify reads no
witness back, orders none and renders no derivation's text.  Reading the
witnesses or the classes reads them back, sorts them by _witness_key and
indexes the classes into that order, once, and the listing replaces what
it was read from.  A report read back from the memo holds no derivation,
and enumerates again when they are read, which gives the same witnesses
in the same order.  A witness keeps no context and no result: both are
read off its derivation when asked for.
"""

from __future__ import annotations

from math import gcd, prod

from .syntax import Term, TypingContext, annotate, ensure_distinct_binders
from .rigidtypes import IType, PointSpec, ResourceContext, Subject, canonicalize_point, key_it
from .symmetry import (
    Degrees, count_negative_seq, count_positive_it, sym_degrees_ctx, sym_degrees_it,
)
# not called here: the tracer in perfbench/tracing.py wraps these names in this module
from .groupoid import enumerate_homs_ctx, enumerate_homs_it  # noqa: F401
from .symmetry import neg_targets_ctx, pos_sources_it  # noqa: F401
from .derivation import enumerate_witnesses  # noqa: F401
from .derivation import (
    ResourceTerm, Shape, endo_count, normal_witnesses, partition_by_symmetry, read_back,
    resource_to_text, rt_context, rt_type,
)
from .interning import Record, memo
from .wrel import NatInf, wrel_coefficient


class PositiveWitness(Record):
    # shape: the canonical context's variables and simple types
    __slots__ = ("derivation", "shape")

    def __init__(self, derivation: ResourceTerm, shape: Shape):
        object.__setattr__(self, "derivation", derivation)
        object.__setattr__(self, "shape", shape)

    @property
    def theta(self) -> ResourceContext:
        """Its context, a negative target of the canonical context."""
        return rt_context(self.shape, self.derivation)

    @property
    def alpha(self) -> IType:
        """Its result, a positive source of the canonical result."""
        return rt_type(self.derivation)


class WitnessReport(Record):
    # wit_plus is the number of witnesses, class_sizes and class_endos the
    # size and deg(s) of each class, in the order of their first members in
    # the enumerator's order, and ctx_degrees and res_degrees those of the
    # canonical context and result type.  _found holds the normal form's
    # derivations in the enumerator's order, the trace that reads them back
    # and their classes, until _listing holds the derivations read back,
    # the witnesses sorted and the classes indexed into them.  The call
    # that enumerated gives _found; a report read back from the memo
    # enumerates again when either is first read.
    __slots__ = ("subject", "wit_plus", "class_sizes", "class_endos", "ctx_degrees",
                 "res_degrees", "_found", "_listing")

    def __init__(self, subject: Subject, wit_plus: int, class_sizes: tuple[int, ...],
                 class_endos: tuple[int, ...], ctx_degrees: Degrees, res_degrees: Degrees,
                 _found: tuple | None = None):
        object.__setattr__(self, "subject", subject)
        object.__setattr__(self, "wit_plus", wit_plus)
        object.__setattr__(self, "class_sizes", class_sizes)
        object.__setattr__(self, "class_endos", class_endos)
        object.__setattr__(self, "ctx_degrees", ctx_degrees)
        object.__setattr__(self, "res_degrees", res_degrees)
        object.__setattr__(self, "_found", _found)
        object.__setattr__(self, "_listing", None)

    @property
    def normal_derivations(self) -> list[ResourceTerm]:
        """The normal form's derivations, in the enumerator's order."""
        if self._found is None:
            object.__setattr__(self, "_found", _enumerated(self.subject))
        return self._found[0]

    @property
    def derivations(self) -> tuple[ResourceTerm, ...]:
        """The witnesses' derivations, read back, in the enumerator's order."""
        return self._listed()[0]

    @property
    def witnesses(self) -> tuple[PositiveWitness, ...]:
        """The witnesses in the order of _witness_key, sorted on first read.
        A report read back from the memo enumerates them first, once, which
        gives the witnesses the first query found."""
        return self._listed()[1]

    @property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Per class, in the order of class_sizes, the indices of its
        members in witnesses."""
        return self._listed()[2]

    def _listed(self) -> tuple:
        if self._listing is None:
            normals, (_, trace, classes) = self.normal_derivations, self._found
            derivations = tuple(read_back(normals, trace))
            shape = self.subject.ctx.bindings
            order = range(len(derivations))
            # a lone witness is not keyed, which would read its context
            if len(derivations) > 1:
                keys = [_witness_key(rt_context(shape, d), rt_type(d), resource_to_text(d))
                        for d in derivations]
                order = sorted(order, key=keys.__getitem__)
            class_of = {r: c for c, cls in enumerate(classes) for r in cls}
            members: list[list[int]] = [[] for _ in classes]
            for j, i in enumerate(order):
                members[class_of[normals[i]]].append(j)
            object.__setattr__(self, "_listing", (
                derivations, tuple(PositiveWitness(derivations[i], shape) for i in order),
                tuple(map(tuple, members))))
            # the listing replaces what it was read back from
            object.__setattr__(self, "_found", None)
        return self._listing

    @property
    def esp(self) -> int:
        """Count of witness triples with both polarized morphisms free."""
        return self.ctx_degrees.negative * self.wit_plus * self.res_degrees.positive


def prepare(ctx: TypingContext, term: Term, point: PointSpec) -> Subject:
    """Check a query's subject once: the term's binders made distinct and
    apart from the context's names, the term annotated, and the point's
    canonical rigid representative checked against the context and the
    term's type."""
    term = ensure_distinct_binders(term, set(ctx.names()))
    term, ty = annotate(ctx, term)
    gamma, result = canonicalize_point(point, ctx, ty)
    return Subject(ctx, term, ty, point, gamma, result)


def positive_witnesses(subject: Subject) -> WitnessReport:
    """Enumerate positive witnesses at a point, grouped into symmetry classes.

    The enumerator runs once, on the term's normal form at the canonical
    point (gamma, a) read up to symmetry: over the bags of gamma and of a's
    domains.  Witnesses are counted and classed by the normal form's
    derivations, in the enumerator's order.  Only when they are read does
    the report read each back into one d of the term, which concludes its
    own context theta and its own result alpha, and sort them by
    _witness_key.  The report's counts, every field but the subject, are
    kept in the term's memo, and a later query at the same point reads
    them back.  Such a report lists its witnesses only if they are read.
    """
    kept = memo(subject.term)
    point = ("witnesses", subject.gamma.entries, subject.result)
    counts = kept.get(point)
    if counts is not None:
        return WitnessReport(subject, *counts)
    normals, _, classes = found = _enumerated(subject)
    counts = (len(normals), tuple(map(len, classes)),
              tuple([endo_count(cls[0]) for cls in classes]),
              sym_degrees_ctx(subject.gamma), sym_degrees_it(subject.result, subject.ty))
    kept[point] = counts
    return WitnessReport(subject, *counts, found)


def _enumerated(subject: Subject) -> tuple:
    """The derivations of the subject's normal form in the enumerator's
    order, the trace that reads them back, and their symmetry classes, in
    the order of their first members."""
    normals, trace = normal_witnesses(subject.term, subject.gamma, subject.result)
    return normals, trace, partition_by_symmetry(normals)


def _witness_key(theta: ResourceContext, alpha: IType, text: str):
    """The order of the witnesses: by context, in the order neg_targets_ctx
    lists the negative targets, then by result, in the order pos_sources_it
    lists the positive sources, then by the derivation's text."""
    return (tuple(tuple(map(key_it, seq)) for _, seq, _ in theta.entries), key_it(alpha),
            text)


def weight_by_classes(report: WitnessReport) -> int:
    """Sum over symmetry classes of deg+(ctx) * deg-(result) / deg(class).

    Each summand is the class's witness count, so the total must be an
    integer equal to the number of positive witnesses.  It is summed as one
    integer fraction num / den, whose degrees multiply into den.
    """
    product = report.ctx_degrees.positive * report.res_degrees.negative
    num, den = 0, 1
    for deg in report.class_endos:
        num, den = num * deg + product * den, den * deg
    total, rest = divmod(num, den)
    if rest:
        common = gcd(num, den)
        raise AssertionError(
            f"class weights sum to a non-integer {num // common}/{den // common}")
    return total


def class_counts_check(report: WitnessReport) -> list[str]:
    """Per class, the size must equal deg+(ctx) * deg-(result) / deg(class)."""
    problems = []
    expected_product = report.ctx_degrees.positive * report.res_degrees.negative
    for i, (size, deg) in enumerate(zip(report.class_sizes, report.class_endos)):
        want, rest = divmod(expected_product, deg)
        if rest or size != want:
            problems.append(f"class {i}: size {size}, expected {expected_product}/{deg}")
    return problems


def esp_explicit(report: WitnessReport) -> int:
    """Count witness triples by counting the polarized morphisms.

    For each derivation d of the normal form at (theta, alpha), in the
    enumerator's order and with theta read off d once, the negative
    context morphisms gamma -> theta are counted one variable at a time
    and multiplied, and the positive morphisms alpha -> a beside them.
    Reading d back changes theta by a negative isomorphism and alpha by a
    positive one, which leave both counts as they are.  The counts are
    permanents and products over the pairs of types, so this never reads
    a degree or a symmetry class.  A derivation whose theta or alpha no
    polarized morphism reaches would count 0 here, and the factorization
    would fail.  The count is kept in the term's memo under the point,
    which fixes the witnesses.
    """
    subject = report.subject
    gamma, a = subject.gamma, subject.result
    kept = memo(subject.term)
    key = ("triples", gamma.entries, a)
    total = kept.get(key)
    if total is None:
        counts: dict = {}
        total = 0
        for d in report.normal_derivations:
            theta = rt_context(subject.ctx.bindings, d)
            negs = prod(count_negative_seq(seq, theta.lookup(x), counts)
                        for x, seq, _ in gamma.entries)
            total += negs * count_positive_it(rt_type(d), a, counts)
        kept[key] = total
    return total


class IdentityCheck(Record):
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "detail", detail)


class IdentityReport(Record):
    __slots__ = ("report", "wrel", "checks")

    def __init__(self, report: WitnessReport, wrel: NatInf, checks: tuple[IdentityCheck, ...]):
        object.__setattr__(self, "report", report)
        object.__setattr__(self, "wrel", wrel)
        object.__setattr__(self, "checks", checks)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_identities(ctx: TypingContext, term: Term, point: PointSpec,
                      budget: int | None = None,
                      expected: int | None = None) -> IdentityReport:
    """Run every collapse identity at one point and report each outcome.
    The budget is ignored: every report is exact.  It stays a parameter,
    fourth by position, for callers that still pass it."""
    subject = prepare(ctx, term, point)
    report = positive_witnesses(subject)
    coeff = wrel_coefficient(subject)
    checks: list[IdentityCheck] = []

    def add(name: str, ok: bool, detail: str) -> None:
        checks.append(IdentityCheck(name, ok, detail))

    add("wrel-equals-witness-count", coeff.value == report.wit_plus,
        f"coefficient {coeff}, witnesses {report.wit_plus}")

    try:
        w = weight_by_classes(report)
        add("class-weights-sum", w == report.wit_plus,
            f"class-weighted sum {w}, witnesses {report.wit_plus}")
    except AssertionError as e:
        add("class-weights-sum", False, str(e))

    problems = class_counts_check(report)
    add("class-sizes", not problems, "; ".join(problems) or
        f"{len(report.class_sizes)} classes as predicted")

    esp = esp_explicit(report)
    add("triple-count-factors", esp == report.esp,
        f"enumerated {esp}, degrees give {report.esp}")

    divisor = report.ctx_degrees.negative * report.res_degrees.positive
    add("coefficient-division", coeff.value * divisor == esp,
        f"{esp} = {coeff} * {divisor}")

    if expected is not None:
        add("expected-value", coeff.value == expected,
            f"coefficient {coeff}, expected {expected}")

    return IdentityReport(report, coeff, tuple(checks))
