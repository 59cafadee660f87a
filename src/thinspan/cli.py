"""Command line interface.

Exit codes: 0 success, 1 malformed input (parse, typing, refinement) or a
query too large for the memory at hand, 2 usage, 3 a budget is required
but none was given, 4 an identity check failed, 5 an enumeration bounded
by its budget found fewer witnesses than the coefficient and may be
incomplete.  One boundary, `_reading`, maps the errors of reading and
answering a query to codes 1 and 3; `verify` exits with the first of 3, 4
and 5 that one of its entries ended with.  The budget falls back to the
THINSPAN_BUDGET environment variable when --budget is absent; corpus
entries then fall back to their own budget field, or 4.  A negative budget
is a usage error.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager

import click

from .syntax import (
    ParseError, TypeCheckError, annotate, beta_normalize, ensure_distinct_binders,
    is_beta_normal, parse_context, parse_simple_type, parse_term, term_to_text, type_to_text,
)
from .rigidtypes import RefinementError, ctx_to_text, it_to_text, point_from_json, point_to_json
from .symmetry import MorphismError
from .derivation import BudgetRequiredError, DerivationError, resource_to_text
from .collapse import positive_witnesses, prepare, verify_identities, weight_by_classes
from .wrel import wrel_coefficient

DEFAULT_CORPUS_BUDGET = 4

_INPUT_ERRORS = (ParseError, TypeCheckError, RefinementError, DerivationError,
                 MorphismError, json.JSONDecodeError, OSError, RecursionError, MemoryError)


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@contextmanager
def _reading(prefix: str = ""):
    """The one boundary between a query and the exit codes: a missing budget
    exits 3, and a malformed input, or a query too large for the machine,
    exits 1.  The error line gives the prefix (an entry's name and a colon)
    before the message."""
    try:
        yield
    except BudgetRequiredError as e:
        _fail(f"{prefix}{e}", 3)
    except _INPUT_ERRORS as e:
        if isinstance(e, RecursionError):
            e = "the input is nested too deeply for Python's recursion limit"
        elif isinstance(e, MemoryError):
            e = "the query ran out of memory; try a smaller budget"
        _fail(f"{prefix}{e}", 1)


def _read(ctx_text: str, term_text: str, type_text: str | None, point=None):
    """A subject's context, its term freshened against the context and
    annotated under the expected type, if any, the term's type, and the point
    (None without one).  `point` is called for the point's JSON once the term
    is typed, so an error in the subject is reported before one in the point."""
    ctx = parse_context(ctx_text)
    term = ensure_distinct_binders(parse_term(term_text), set(ctx.names()))
    expected = parse_simple_type(type_text) if type_text is not None else None
    term, ty = annotate(ctx, term, expected)
    return ctx, term, ty, (point_from_json(point(), ctx, ty) if point else None)


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


def _resolve_budget(budget: int | None) -> int | None:
    env = os.environ.get("THINSPAN_BUDGET")
    if budget is not None or env is None:
        return budget
    try:
        value = int(env)
    except ValueError:
        value = -1
    if value < 0:
        _fail(f"THINSPAN_BUDGET must be a non-negative integer, got {env!r}", 2)
    return value


def _emit(obj: dict, as_json: bool, lines: list[str]) -> None:
    click.echo(json.dumps(obj, indent=2, sort_keys=True) if as_json else "\n".join(lines))


def _at_point(command):
    """The options of a command that reads a subject at a point."""
    for option in reversed((
            click.option("--ctx", "ctx_text", default="", help="typing context"),
            click.option("--term", "term_text", required=True, help="simply-typed term"),
            click.option("--type", "type_text", default=None, help="expected simple type"),
            click.option("--point", "point_arg", required=True,
                         help="point as inline JSON or a path to a JSON file"),
            click.option("--budget", type=click.IntRange(min=0), default=None,
                         help="bound on cut sequence sizes for non-normal terms"),
            click.option("--json", "as_json", is_flag=True))):
        command = option(command)
    return command


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
    with _reading():
        _, term, ty, _ = _read(ctx_text, term_text, type_text or None)
        nf = beta_normalize(term)
    obj = {"term": term_to_text(term), "type": type_to_text(ty), "normal": is_beta_normal(term),
           "normal_form": term_to_text(nf)}
    _emit(obj, as_json, [
        f"type: {obj['type']}",
        f"beta-normal: {'yes' if obj['normal'] else 'no'}",
        f"normal form: {obj['normal_form']}",
    ])


@main.command()
@_at_point
def witnesses(ctx_text, term_text, type_text, point_arg, budget, as_json) -> None:
    """Enumerate the positive witnesses at a point, grouped by symmetry."""
    with _reading():
        ctx, term, _, point = _read(ctx_text, term_text, type_text or None,
                                    lambda: _point_json(point_arg))
        subject = prepare(ctx, term, point)
        report = positive_witnesses(subject, _resolve_budget(budget))
    obj = {
        "point": point_to_json(subject.point),
        "canonical": {"ctx": ctx_to_text(subject.gamma), "type": it_to_text(subject.result)},
        "witnesses": [{"term": resource_to_text(w.derivation), "ctx": ctx_to_text(w.theta),
                       "type": it_to_text(w.alpha)} for w in report.witnesses],
        "count": report.wit_plus,
        "classes": [{"witnesses": list(cls), "size": len(cls), "endomorphisms": endos}
                    for cls, endos in zip(report.classes, report.class_endos)],
        "degrees": {part: {"total": d.total, "positive": d.positive, "negative": d.negative}
                    for part, d in (("ctx", report.ctx_degrees), ("result", report.res_degrees))},
        "triples": report.esp,
        "completeness": ("exact" if report.bounded_at is None
                         else {"bounded_at": report.bounded_at}),
    }
    lines = [
        f"canonical point: {obj['canonical']['ctx']} |- {obj['canonical']['type']}",
        f"positive witnesses: {report.wit_plus} "
        f"({'exact' if report.bounded_at is None else f'bounded at {report.bounded_at}'})",
    ]
    for i, (cls, endos) in enumerate(zip(report.classes, report.class_endos), 1):
        lines.append(f"class {i}: size {len(cls)}, {endos} endomorphisms")
        lines += ["  " + obj["witnesses"][j]["term"] for j in cls]
    _emit(obj, as_json, lines)


@main.command()
@_at_point
def weight(ctx_text, term_text, type_text, point_arg, budget, as_json) -> None:
    """Coefficient of a term at a point, by counting and by class weights."""
    with _reading():
        ctx, term, _, point = _read(ctx_text, term_text, type_text or None,
                                    lambda: _point_json(point_arg))
        subject = prepare(ctx, term, point)
        coeff = wrel_coefficient(subject)
        report = positive_witnesses(subject, _resolve_budget(budget))
        by_classes = weight_by_classes(report)
    obj = {"coefficient": coeff.value, "witnesses": report.wit_plus, "class_weighted": by_classes,
           "classes": len(report.classes), "triples": report.esp}
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
    stray = [option for option, value in (("--ctx", ctx_text), ("--term", term_text),
             ("--type", type_text), ("--point", point_arg), ("--expected", expected))
             if value is not None]
    if corpus_path and stray:
        _fail(f"{', '.join(stray)} cannot be used with --corpus", 2)
    default_budget = None
    if corpus_path:
        with _reading(f"{corpus_path}: "):
            with open(corpus_path) as f:
                entries = json.load(f)
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            _fail(f"{corpus_path}: a corpus must be a JSON list of objects", 1)
        default_budget = DEFAULT_CORPUS_BUDGET
    elif not (term_text and point_arg):
        _fail("need --corpus, or --term with --point", 2)
    budget = _resolve_budget(budget)
    if not corpus_path:
        with _reading("(cli): "):
            point = _point_json(point_arg)
        # an empty --type is absent, as in the other commands
        entries = [{"name": "(cli)", "ctx": ctx_text or "", "term": term_text,
                    "point": point, "expected": expected, "type": type_text or None}]

    results = []
    codes = set()  # the exit codes the entries ended with
    for entry in entries:
        name = entry.get("name", entry.get("term", "?"))
        # the options' types are click's, and point_from_json reports a
        # --point that is not an object as witnesses and weight do
        problem = _entry_problem(entry) if corpus_path else None
        if problem:
            _fail(f"{name}: {problem}", 1)
        entry_budget = next((b for b in (budget, entry.get("budget"), default_budget)
                             if b is not None), None)
        started = time.monotonic()
        with _reading(f"{name}: "):
            try:
                ctx, term, _, point = _read(entry.get("ctx", ""), entry["term"],
                                            entry.get("type"), lambda: entry["point"])
                rep = verify_identities(ctx, term, point, entry_budget, entry.get("expected"))
            except BudgetRequiredError as e:
                codes.add(3)
                results.append({"name": name, "ok": False, "error": str(e)})
                if not as_json:
                    click.echo(f"FAIL {name}: {e}")
                continue
        elapsed = time.monotonic() - started
        found, classes = rep.report.wit_plus, len(rep.report.classes)
        results.append({
            "name": name, "ok": rep.ok, "coefficient": rep.wrel.value, "witnesses": found,
            "classes": classes, "seconds": round(elapsed, 3),
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in rep.checks],
        })
        if rep.ok:
            line = (f"PASS {name} (coefficient {rep.wrel}, {found} witnesses, "
                    f"{classes} classes, {elapsed:.2f}s)")
        elif rep.incomplete:
            codes.add(5)
            results[-1]["incomplete"] = {"bounded_at": rep.report.bounded_at}
            line = (f"INCOMPLETE {name}: the enumeration, bounded at budget "
                    f"{rep.report.bounded_at}, found {found} witnesses for coefficient "
                    f"{rep.wrel}; a larger budget may find the rest")
        else:
            codes.add(4)
            line = f"FAIL {name}: " + "; ".join(
                f"{c.name}: {c.detail}" for c in rep.checks if not c.ok)
        if not as_json:
            click.echo(line)
    if as_json:
        click.echo(json.dumps(results, indent=2, sort_keys=True))
    if codes:
        sys.exit(min(codes))


if __name__ == "__main__":
    main()
