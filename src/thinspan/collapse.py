"""Positive witnesses and the quantitative collapse identities.

A point is given up to symmetry by a multiset context and a multiset result
type; its canonical rigid representative (gamma, a) is fixed by sorting.  A
positive witness for a term at that point is a derivation d at some rigid
point (Theta, alpha) such that a negative context morphism gamma -> Theta
and a positive type morphism alpha -> a exist.  Only their existence
matters, so a witness records its rigid point and no morphism is built.
The witnesses are enumerated once per alpha over the bags of gamma, and d
determines Theta, so the rigid contexts reachable from gamma are never
listed.

The identities checked here:

  * the weighted-relational coefficient equals the number of positive
    witnesses;
  * grouping witnesses by symmetry, each class s contributes
    deg+(gamma) * deg-(a) / deg(s) many positive witnesses, an integer;
  * the count of witness triples (theta-, d, theta+) with unconstrained
    polarized morphisms factors as deg-(gamma) * #witnesses * deg+(a),
    which is the coefficient of the term in the plain (symmetrized) model,
    so the two models differ exactly by that product of degrees.

A query's inputs are checked once, by prepare: it freshens the term's
binders, annotates the term and checks the point, and the Subject it
returns carries the result.  positive_witnesses and wrel_coefficient take
that Subject and check none of it again; only the budget, which comes with
positive_witnesses, is checked there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .syntax import Term, TypingContext, annotate, ensure_distinct_binders
from .rigidtypes import IType, PointSpec, ResourceContext, Subject, canonicalize_point, key_it
from .symmetry import (
    Degrees, count_negative_seq, count_positive_it, pos_sources_it, sym_degrees_ctx,
    sym_degrees_it,
)
# not called here: the tracer in perfbench/tracing.py wraps these names in this module
from .symmetry import enumerate_homs_ctx, enumerate_homs_it, neg_targets_ctx  # noqa: F401
from .derivation import enumerate_witnesses  # noqa: F401
from .derivation import (
    BoundedAt, Completeness, Exact, ResourceTerm,
    endo_count, partition_by_symmetry, rt_context, witness_set,
)
from .wrel import NatInf, wrel_coefficient


@dataclass(frozen=True)
class PositiveWitness:
    derivation: ResourceTerm
    theta: ResourceContext   # its context, a negative target of the canonical context
    alpha: IType             # its result, a positive source of the canonical result


@dataclass(frozen=True)
class WitnessReport:
    subject: Subject
    witnesses: tuple[PositiveWitness, ...]
    classes: tuple[tuple[int, ...], ...]      # indices into witnesses
    class_endos: tuple[int, ...]              # deg(s) per class
    ctx_degrees: Degrees                      # of the canonical context
    res_degrees: Degrees                      # of the canonical result type
    completeness: Completeness

    @property
    def wit_plus(self) -> int:
        return len(self.witnesses)

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


def positive_witnesses(subject: Subject, budget: int | None = None) -> WitnessReport:
    """Enumerate positive witnesses at a point, grouped into symmetry classes.

    The enumerator runs once per positive source alpha of the canonical
    result a, over the bags of the canonical context gamma.  Each
    derivation d it returns concludes its own context theta, read off its
    occurrences, and the witness records d at (theta, alpha).  Witnesses
    are ordered by _witness_key.
    """
    gamma, a, ty = subject.gamma, subject.result, subject.ty
    cdeg = sym_degrees_ctx(gamma)
    rdeg = sym_degrees_it(a, ty)

    witnesses = []
    completeness: Completeness = Exact()
    for alpha in pos_sources_it(a, ty):
        ws = witness_set(subject.ctx, subject.term, gamma, alpha, budget, bags=True)
        if isinstance(ws.completeness, BoundedAt):
            completeness = ws.completeness
        witnesses.extend(PositiveWitness(d, rt_context(gamma.shape(), d), alpha)
                         for d in ws.derivations)
    # each alpha's derivations arrive sorted by their text, and sort is stable
    witnesses.sort(key=lambda w: _witness_key(w.theta, w.alpha))

    classes = partition_by_symmetry([w.derivation for w in witnesses])
    index = {w.derivation: i for i, w in enumerate(witnesses)}
    class_ix = tuple(tuple(sorted(index[d] for d in cls)) for cls in classes)
    endos = tuple(endo_count(cls[0]) for cls in classes)
    return WitnessReport(subject, tuple(witnesses), class_ix, endos, cdeg, rdeg, completeness)


def _witness_key(theta: ResourceContext, alpha: IType):
    """The order of the witnesses: by context, in the order neg_targets_ctx
    lists the negative targets, then by result, in the order pos_sources_it
    lists the positive sources.  Ties keep the derivations' text order."""
    return (tuple(tuple(map(key_it, seq)) for _, seq, _ in theta.entries), key_it(alpha))


def weight_by_classes(report: WitnessReport) -> int:
    """Sum over symmetry classes of deg+(ctx) * deg-(result) / deg(class).

    Each summand is the class's witness count, so the total must be an
    integer equal to the number of positive witnesses.
    """
    total = Fraction(0)
    for deg in report.class_endos:
        total += Fraction(report.ctx_degrees.positive * report.res_degrees.negative, deg)
    if total.denominator != 1:
        raise AssertionError(f"class weights sum to a non-integer {total}")
    return int(total)


def class_counts_check(report: WitnessReport) -> list[str]:
    """Per class, the size must equal deg+(ctx) * deg-(result) / deg(class)."""
    problems = []
    expected_product = report.ctx_degrees.positive * report.res_degrees.negative
    for i, cls in enumerate(report.classes):
        deg = report.class_endos[i]
        want = Fraction(expected_product, deg)
        if want.denominator != 1 or len(cls) != want:
            problems.append(
                f"class {i}: size {len(cls)}, expected {expected_product}/{deg}")
    return problems


def esp_explicit(report: WitnessReport) -> int:
    """Count witness triples by counting the polarized morphisms.

    For each witness d at (theta, alpha), the negative context morphisms
    gamma -> theta are counted one variable at a time and multiplied, and
    the positive morphisms alpha -> a beside them.  The counts are
    permanents and products over the pairs of types, so this never reads a
    degree or a symmetry class.  A witness whose theta or alpha no
    polarized morphism reaches would count 0 here, and the factorization
    would fail.
    """
    gamma, a = report.subject.gamma, report.subject.result
    memo: dict = {}
    total = 0
    for w in report.witnesses:
        negs = prod(count_negative_seq(seq, w.theta.lookup(x), memo)
                    for x, seq, _ in gamma.entries)
        total += negs * count_positive_it(w.alpha, a, memo)
    return total


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class IdentityReport:
    report: WitnessReport
    wrel: NatInf
    checks: tuple[IdentityCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_identities(ctx: TypingContext, term: Term, point: PointSpec,
                      budget: int | None = None,
                      expected: int | None = None) -> IdentityReport:
    """Run every collapse identity at one point and report each outcome."""
    subject = prepare(ctx, term, point)
    report = positive_witnesses(subject, budget)
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
        f"{len(report.classes)} classes as predicted")

    esp = esp_explicit(report)
    add("triple-count-factors", esp == report.esp,
        f"enumerated {esp}, degrees give {report.esp}")

    divisor = report.ctx_degrees.negative * report.res_degrees.positive
    add("coefficient-division", coeff.value * divisor == esp,
        f"{esp} = {coeff} * {divisor}")

    if expected is not None:
        add("expected-value", coeff.value == expected,
            f"coefficient {coeff}, expected {expected}")

    return IdentityReport(report, coeff, checks)
