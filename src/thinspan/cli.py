"""Command line interface.

Exit codes: 0 success, 1 malformed input (parse, typing, refinement) or a
query too large for the memory at hand, 2 usage, 3 a budget is required
but none was given, 4 an identity check failed, 5 an enumeration bounded
by its budget found fewer witnesses than the coefficient and may be
incomplete.  The budget falls back to the THINSPAN_BUDGET environment
variable when --budget is absent; corpus entries then fall back to their
own budget field, or 4.  A negative budget is a usage error.
"""

from __future__ import annotations

import json
import os
import sys
import time

import click

from .syntax import (
    ParseError, TypeCheckError, TypingContext,
    annotate, beta_normalize, ensure_distinct_binders, is_beta_normal, parse_context,
    parse_simple_type, parse_term, term_to_text, type_to_text,
)
from .rigidtypes import (
    PointSpec, RefinementError, ctx_to_text, it_to_text, point_from_json, point_to_json,
)
from .symmetry import MorphismError
from .derivation import BoundedAt, BudgetRequiredError, DerivationError, resource_to_text
from .collapse import (
    IdentityReport, WitnessReport, positive_witnesses, prepare, verify_identities,
    weight_by_classes,
)
from .wrel import wrel_coefficient

DEFAULT_CORPUS_BUDGET = 4

_INPUT_ERRORS = (ParseError, TypeCheckError, RefinementError, DerivationError,
                 MorphismError, json.JSONDecodeError, OSError, RecursionError, MemoryError)


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _input_error(e: Exception) -> str:
    if isinstance(e, RecursionError):
        return "the input is nested too deeply for Python's recursion limit"
    if isinstance(e, MemoryError):
        return "the query ran out of memory; try a smaller budget"
    return str(e)


def _parse_subject(ctx_text: str, term_text: str, type_text: str | None):
    ctx = parse_context(ctx_text)
    term = ensure_distinct_binders(parse_term(term_text), set(ctx.names()))
    expected = parse_simple_type(type_text) if type_text else None
    term, ty = annotate(ctx, term, expected)
    return ctx, term, ty


def _point_json(point_arg: str):
    """A point given as inline JSON or as the path to a JSON file.  Text that
    parses as JSON is inline, whatever its value; text that does not is a
    path, unless it opens an object or an array."""
    try:
        return json.loads(point_arg)
    except json.JSONDecodeError:
        if point_arg.lstrip().startswith(("{", "[")):
            raise
    with open(point_arg) as f:
        return json.load(f)


def _load_point(point_arg: str, ctx: TypingContext, ty) -> PointSpec:
    return point_from_json(_point_json(point_arg), ctx, ty)


def _resolve_budget(budget: int | None) -> int | None:
    if budget is not None:
        return budget
    env = os.environ.get("THINSPAN_BUDGET")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            value = None
        if value is None or value < 0:
            _fail(f"THINSPAN_BUDGET must be a non-negative integer, got {env!r}", 2)
        return value
    return None


def _emit(obj: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        click.echo(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for line in lines:
            click.echo(line)


def _report_json(report: WitnessReport) -> dict:
    subject = report.subject
    return {
        "point": point_to_json(subject.point),
        "canonical": {"ctx": ctx_to_text(subject.gamma), "type": it_to_text(subject.result)},
        "witnesses": [
            {
                "term": resource_to_text(w.derivation),
                "ctx": ctx_to_text(w.theta),
                "type": it_to_text(w.alpha),
            }
            for w in report.witnesses
        ],
        "count": report.wit_plus,
        "classes": [
            {"witnesses": list(cls), "size": len(cls),
             "endomorphisms": report.class_endos[i]}
            for i, cls in enumerate(report.classes)
        ],
        "degrees": {
            "ctx": {"total": report.ctx_degrees.total,
                    "positive": report.ctx_degrees.positive,
                    "negative": report.ctx_degrees.negative},
            "result": {"total": report.res_degrees.total,
                       "positive": report.res_degrees.positive,
                       "negative": report.res_degrees.negative},
        },
        "triples": report.esp,
        "completeness": ("exact" if not isinstance(report.completeness, BoundedAt)
                         else {"bounded_at": report.completeness.budget}),
    }


@click.group()
def main() -> None:
    """Count rigid derivations of simply-typed terms up to polarized symmetry."""


@main.command()
@click.option("--ctx", "ctx_text", default="", help="typing context, e.g. 'f:o->o, x:o'")
@click.option("--term", "term_text", required=True, help="simply-typed term")
@click.option("--type", "type_text", default=None, help="expected simple type")
@click.option("--json", "as_json", is_flag=True, help="machine readable output")
def check(ctx_text: str, term_text: str, type_text: str | None, as_json: bool) -> None:
    """Parse and type a term, and show its beta-normal form."""
    try:
        ctx, term, ty = _parse_subject(ctx_text, term_text, type_text)
        nf = beta_normalize(term)
    except _INPUT_ERRORS as e:
        _fail(_input_error(e), 1)
    obj = {
        "term": term_to_text(term),
        "type": type_to_text(ty),
        "normal": is_beta_normal(term),
        "normal_form": term_to_text(nf),
    }
    _emit(obj, as_json, [
        f"type: {obj['type']}",
        f"beta-normal: {'yes' if obj['normal'] else 'no'}",
        f"normal form: {obj['normal_form']}",
    ])


@main.command()
@click.option("--ctx", "ctx_text", default="", help="typing context")
@click.option("--term", "term_text", required=True, help="simply-typed term")
@click.option("--type", "type_text", default=None, help="expected simple type")
@click.option("--point", "point_arg", required=True,
              help="point as inline JSON or a path to a JSON file")
@click.option("--budget", type=click.IntRange(min=0), default=None,
              help="bound on cut sequence sizes for non-normal terms")
@click.option("--json", "as_json", is_flag=True)
def witnesses(ctx_text, term_text, type_text, point_arg, budget, as_json) -> None:
    """Enumerate the positive witnesses at a point, grouped by symmetry."""
    try:
        ctx, term, ty = _parse_subject(ctx_text, term_text, type_text)
        subject = prepare(ctx, term, _load_point(point_arg, ctx, ty))
        report = positive_witnesses(subject, _resolve_budget(budget))
    except BudgetRequiredError as e:
        _fail(str(e), 3)
    except _INPUT_ERRORS as e:
        _fail(_input_error(e), 1)
    obj = _report_json(report)
    lines = [
        f"canonical point: {obj['canonical']['ctx']} |- {obj['canonical']['type']}",
        f"positive witnesses: {report.wit_plus} ({obj['completeness'] if isinstance(obj['completeness'], str) else 'bounded at ' + str(report.completeness.budget)})",
    ]
    for i, cls in enumerate(report.classes):
        lines.append(f"class {i + 1}: size {len(cls)}, "
                     f"{report.class_endos[i]} endomorphisms")
        for j in cls:
            w = report.witnesses[j]
            lines.append("  " + resource_to_text(w.derivation))
    _emit(obj, as_json, lines)


@main.command()
@click.option("--ctx", "ctx_text", default="")
@click.option("--term", "term_text", required=True)
@click.option("--type", "type_text", default=None)
@click.option("--point", "point_arg", required=True)
@click.option("--budget", type=click.IntRange(min=0), default=None)
@click.option("--json", "as_json", is_flag=True)
def weight(ctx_text, term_text, type_text, point_arg, budget, as_json) -> None:
    """Coefficient of a term at a point, by counting and by class weights."""
    try:
        ctx, term, ty = _parse_subject(ctx_text, term_text, type_text)
        subject = prepare(ctx, term, _load_point(point_arg, ctx, ty))
        coeff = wrel_coefficient(subject)
        report = positive_witnesses(subject, _resolve_budget(budget))
        by_classes = weight_by_classes(report)
    except BudgetRequiredError as e:
        _fail(str(e), 3)
    except _INPUT_ERRORS as e:
        _fail(_input_error(e), 1)
    obj = {
        "coefficient": coeff.value,
        "witnesses": report.wit_plus,
        "class_weighted": by_classes,
        "classes": len(report.classes),
        "triples": report.esp,
    }
    _emit(obj, as_json, [
        f"coefficient: {obj['coefficient']}",
        f"positive witnesses: {report.wit_plus} in {len(report.classes)} classes",
        f"class-weighted sum: {by_classes}",
        f"witness triples: {report.esp}",
    ])


# the JSON type of each corpus entry field, as docs/formats.md gives them
_ENTRY_FIELDS = (("ctx", str, "a string"), ("term", str, "a string"), ("type", str, "a string"),
                 ("point", dict, "an object"), ("expected", int, "an integer"),
                 ("budget", int, "a non-negative integer"))


def _entry_problem(entry: dict) -> str | None:
    missing = [field for field in ("term", "point") if field not in entry]
    if missing:
        return f"entry has no {' or '.join(map(repr, missing))} field"
    for field, kind, what in _ENTRY_FIELDS:
        value = entry.get(field)
        if field not in entry or (value is None and field in ("expected", "budget")):
            continue
        if (not isinstance(value, kind) or isinstance(value, bool)
                or (field == "budget" and value < 0)):
            return f"field {field!r} must be {what}, got {json.dumps(value)}"
    return None


def _entry_budget(entry: dict, budget: int | None, default: int | None) -> int | None:
    if budget is not None:
        return budget
    if entry.get("budget") is not None:
        return entry["budget"]
    return default


def _verify_entry(entry: dict, budget: int | None, default: int | None) -> IdentityReport:
    ctx = parse_context(entry.get("ctx", ""))
    term = ensure_distinct_binders(parse_term(entry["term"]), set(ctx.names()))
    expected_type = (parse_simple_type(entry["type"]) if "type" in entry else None)
    term, ty = annotate(ctx, term, expected_type)
    point = point_from_json(entry["point"], ctx, ty)
    b = None if is_beta_normal(term) else _entry_budget(entry, budget, default)
    return verify_identities(ctx, term, point, b, entry.get("expected"))


@main.command()
@click.option("--corpus", "corpus_path", type=click.Path(exists=True), default=None,
              help="JSON file with a list of named subject/point entries")
@click.option("--ctx", "ctx_text", default=None)
@click.option("--term", "term_text", default=None)
@click.option("--type", "type_text", default=None)
@click.option("--point", "point_arg", default=None)
@click.option("--expected", type=int, default=None,
              help="independently known coefficient to check against")
@click.option("--budget", type=click.IntRange(min=0), default=None)
@click.option("--json", "as_json", is_flag=True)
def verify(corpus_path, ctx_text, term_text, type_text, point_arg, expected,
           budget, as_json) -> None:
    """Check every counting identity, per corpus entry or for one subject."""
    entries: list[dict] = []
    default_budget = None
    if corpus_path:
        try:
            with open(corpus_path) as f:
                entries = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            _fail(f"{corpus_path}: {e}", 1)
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            _fail(f"{corpus_path}: a corpus must be a JSON list of objects", 1)
        default_budget = DEFAULT_CORPUS_BUDGET
    elif not (term_text and point_arg):
        _fail("need --corpus, or --term with --point", 2)
    budget = _resolve_budget(budget)
    if not corpus_path:
        try:
            point = _point_json(point_arg)
        except _INPUT_ERRORS as e:
            _fail(f"(cli): {_input_error(e)}", 1)
        entries = [{"name": "(cli)", "ctx": ctx_text or "", "term": term_text,
                    "point": point, "expected": expected}]
        if type_text:
            entries[0]["type"] = type_text

    results = []
    any_failed = any_incomplete = False
    budget_missing = False
    for entry in entries:
        name = entry.get("name", entry.get("term", "?"))
        # the options' types are click's, and point_from_json reports a
        # --point that is not an object as witnesses and weight do
        problem = _entry_problem(entry) if corpus_path else None
        if problem:
            _fail(f"{name}: {problem}", 1)
        try:
            started = time.monotonic()
            rep = _verify_entry(entry, budget, default_budget)
            elapsed = time.monotonic() - started
        except BudgetRequiredError as e:
            budget_missing = True
            results.append({"name": name, "ok": False, "error": str(e)})
            if not as_json:
                click.echo(f"FAIL {name}: {e}")
            continue
        except _INPUT_ERRORS as e:
            _fail(f"{name}: {_input_error(e)}", 1)
        ok, incomplete = rep.ok, rep.incomplete
        any_incomplete = any_incomplete or incomplete
        any_failed = any_failed or not (ok or incomplete)
        results.append({
            "name": name,
            "ok": ok,
            "coefficient": rep.wrel.value,
            "witnesses": rep.report.wit_plus,
            "classes": len(rep.report.classes),
            "seconds": round(elapsed, 3),
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                       for c in rep.checks],
        })
        if incomplete:
            results[-1]["incomplete"] = {"bounded_at": rep.report.completeness.budget}
        if not as_json:
            if ok:
                click.echo(f"PASS {name} (coefficient {rep.wrel}, "
                           f"{rep.report.wit_plus} witnesses, "
                           f"{len(rep.report.classes)} classes, {elapsed:.2f}s)")
            elif incomplete:
                click.echo(f"INCOMPLETE {name}: the enumeration, bounded at budget "
                           f"{rep.report.completeness.budget}, found {rep.report.wit_plus} "
                           f"witnesses for coefficient {rep.wrel}; a larger budget may "
                           f"find the rest")
            else:
                bad = "; ".join(f"{c.name}: {c.detail}" for c in rep.checks if not c.ok)
                click.echo(f"FAIL {name}: {bad}")
    if as_json:
        click.echo(json.dumps(results, indent=2, sort_keys=True))
    if budget_missing:
        sys.exit(3)
    if any_failed:
        sys.exit(4)
    if any_incomplete:
        sys.exit(5)


if __name__ == "__main__":
    main()
