"""Command line interface, on `argparse`.

Exit codes: 0 success, 1 malformed input (parse, typing, refinement) or a
query too large for the memory at hand, 2 usage, 4 an identity check
failed (3 and 5 are no longer used).  One boundary, `_reading`, maps the
errors of reading and answering a query to code 1.  Options are never
abbreviated, help is `--help` alone, and a broken pipe or Ctrl-C exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager

from .syntax import (
    ParseError, TypeCheckError, annotate, beta_normalize, ensure_distinct_binders,
    is_beta_normal, parse_context, parse_simple_type, parse_term, term_to_text, type_to_text,
)
from .rigidtypes import RefinementError, ctx_to_text, it_to_text, point_from_json, point_to_json
from .symmetry import MorphismError
from .derivation import DerivationError, resource_to_text
from .collapse import positive_witnesses, prepare, verify_identities, weight_by_classes
from .wrel import wrel_coefficient

_INPUT_ERRORS = (ParseError, TypeCheckError, RefinementError, DerivationError, MorphismError,
                 json.JSONDecodeError, UnicodeDecodeError, OSError, RecursionError, MemoryError)


def _fail(message: str, code: int) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _echo(line: str) -> None:
    """Print a line on stdout at once, escaping what it cannot encode as stderr does."""
    encoding = sys.stdout.encoding or "utf-8"
    print(line.encode(encoding, "backslashreplace").decode(encoding), flush=True)


@contextmanager
def _reading(prefix: str = ""):
    """The one boundary between a query and the exit codes: a malformed
    input, or a query too large for the machine, exits 1.  The error line
    gives the prefix (an entry's name and a colon) before the message."""
    try:
        yield
    except _INPUT_ERRORS as e:
        if isinstance(e, RecursionError):
            e = "the input is nested too deeply for Python's recursion limit"
        elif isinstance(e, MemoryError):
            e = "the query ran out of memory; try a smaller point"
        _fail(f"{prefix}{e}", 1)


def _read(ctx_text: str | None, term_text: str, type_text: str | None, point=None):
    """A subject's context (empty for None), its term freshened against the
    context and annotated under the expected type, if any, the term's type, and
    the point (None without one).  `point` is called for the point's JSON once
    the term is typed, so an error in the subject is reported before one in it."""
    ctx = parse_context(ctx_text or "")
    term = ensure_distinct_binders(parse_term(term_text), set(ctx.names()))
    expected = parse_simple_type(type_text) if type_text is not None else None
    term, ty = annotate(ctx, term, expected)
    return ctx, term, ty, (point_from_json(point(), ctx, ty) if point else None)


def _point_json(point_arg: str):
    """A point given as inline JSON or as the path to a JSON file.  Text that
    parses as JSON is inline, whatever its value; text that does not is a
    path, unless it opens an object or an array.  A file that does not
    decode or parse is named in the error."""
    try:
        return json.loads(point_arg)
    except json.JSONDecodeError:
        if point_arg.lstrip().startswith(("{", "[")):
            raise
    with open(point_arg, encoding="utf-8") as f:
        try:
            return json.load(f)
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ParseError(f"{point_arg}: {e}") from e


def _emit(obj: dict, as_json: bool, lines: list[str]) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True) if as_json else "\n".join(lines))


def check(a: argparse.Namespace) -> None:
    """Parse and type a term, and show its beta-normal form."""
    with _reading():
        _, term, ty, _ = _read(a.ctx, a.term, a.type or None)
        nf = beta_normalize(term)
    obj = {"term": term_to_text(term), "type": type_to_text(ty), "normal": is_beta_normal(term),
           "normal_form": term_to_text(nf)}
    _emit(obj, a.json, [f"type: {obj['type']}", f"beta-normal: {'yes' if obj['normal'] else 'no'}",
                        f"normal form: {obj['normal_form']}"])


def witnesses(a: argparse.Namespace) -> None:
    """Enumerate the positive witnesses at a point, grouped by symmetry."""
    with _reading():
        ctx, term, _, point = _read(a.ctx, a.term, a.type or None, lambda: _point_json(a.point))
        subject = prepare(ctx, term, point)
        report = positive_witnesses(subject)
    obj = {
        "point": point_to_json(subject.point),
        "canonical": {"ctx": ctx_to_text(subject.gamma), "type": it_to_text(subject.result)},
        "witnesses": [{"term": resource_to_text(w.derivation), "ctx": ctx_to_text(w.theta),
                       "type": it_to_text(w.alpha)} for w in report.witnesses],
        "count": report.wit_plus,
        # classes in the order of their first witnesses
        "classes": [{"witnesses": list(cls), "size": len(cls), "endomorphisms": endos}
                    for cls, endos in sorted(zip(report.classes, report.class_endos))],
        "degrees": {part: {"total": d.total, "positive": d.positive, "negative": d.negative}
                    for part, d in (("ctx", report.ctx_degrees), ("result", report.res_degrees))},
        "triples": report.esp,
        "completeness": "exact",
    }
    lines = [
        f"canonical point: {obj['canonical']['ctx']} |- {obj['canonical']['type']}",
        f"positive witnesses: {report.wit_plus} (exact)",
    ]
    for i, cls in enumerate(obj["classes"], 1):
        lines.append(f"class {i}: size {cls['size']}, {cls['endomorphisms']} endomorphisms")
        lines += ["  " + obj["witnesses"][j]["term"] for j in cls["witnesses"]]
    _emit(obj, a.json, lines)


def weight(a: argparse.Namespace) -> None:
    """Coefficient of a term at a point, by counting and by class weights."""
    with _reading():
        ctx, term, _, point = _read(a.ctx, a.term, a.type or None, lambda: _point_json(a.point))
        subject = prepare(ctx, term, point)
        coeff = wrel_coefficient(subject)
        report = positive_witnesses(subject)
        by_classes = weight_by_classes(report)
    obj = {"coefficient": coeff.value, "witnesses": report.wit_plus, "class_weighted": by_classes,
           "classes": len(report.class_sizes), "triples": report.esp}
    _emit(obj, a.json, [
        f"coefficient: {obj['coefficient']}",
        f"positive witnesses: {report.wit_plus} in {len(report.class_sizes)} classes",
        f"class-weighted sum: {by_classes}", f"witness triples: {report.esp}"])


# the JSON type of each corpus entry field, as docs/formats.md gives them
_ENTRY_FIELDS = (("name", str, "a string"), ("ctx", str, "a string"), ("term", str, "a string"),
                 ("type", str, "a string"), ("point", dict, "an object"),
                 ("expected", int, "an integer"))


def _entry_problem(entry: dict) -> str | None:
    missing = [field for field in ("term", "point") if field not in entry]
    if missing:
        return f"entry has no {' or '.join(map(repr, missing))} field"
    for field, kind, what in _ENTRY_FIELDS:
        value = entry.get(field)
        if field not in entry or (value is None and field == "expected"):
            continue
        if not isinstance(value, kind) or isinstance(value, bool):
            return f"field {field!r} must be {what}, got {json.dumps(value)}"
    return None


def verify(a: argparse.Namespace) -> None:
    """Check every counting identity, per corpus entry or for one subject."""
    if a.corpus is None:
        if a.term is None or a.point is None:
            _fail("need --corpus, or --term with --point", 2)
        with _reading("(cli): "):
            point = _point_json(a.point)
        # an empty --type is absent, as in the other commands
        entries = [{"name": "(cli)", "ctx": a.ctx, "term": a.term,
                    "point": point, "expected": a.expected, "type": a.type or None}]
    else:
        stray = [f"--{option}" for option in ("ctx", "term", "type", "point", "expected")
                 if getattr(a, option) is not None]
        if stray:
            _fail(f"{', '.join(stray)} cannot be used with --corpus", 2)
        # a corpus file that cannot be read is an input error, as a point
        # file is, and so is an empty corpus, which would pass checking nothing
        with _reading(f"{a.corpus}: "):
            with open(a.corpus, encoding="utf-8") as f:
                entries = json.load(f)
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            _fail(f"{a.corpus}: a corpus must be a JSON list of objects", 1)
        if not entries:
            _fail(f"{a.corpus}: the corpus holds no entries", 1)

    results, failed = [], False
    for entry in entries:
        # a name of the wrong type is reported under the term's text
        name = next((v for v in (entry.get("name"), entry.get("term")) if isinstance(v, str)),
                    "?")
        # the parser gives the options their types, and point_from_json
        # reports a --point that is not an object as witnesses and weight do
        if a.corpus is not None and (problem := _entry_problem(entry)):
            _fail(f"{name}: {problem}", 1)
        started = time.monotonic()
        with _reading(f"{name}: "):
            ctx, term, _, point = _read(entry.get("ctx", ""), entry["term"],
                                        entry.get("type"), lambda: entry["point"])
            rep = verify_identities(ctx, term, point, expected=entry.get("expected"))
        elapsed = time.monotonic() - started
        found, classes = rep.report.wit_plus, len(rep.report.class_sizes)
        results.append({
            "name": name, "ok": rep.ok, "coefficient": rep.wrel.value, "witnesses": found,
            "classes": classes, "seconds": round(elapsed, 3),
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in rep.checks],
        })
        if rep.ok:
            line = (f"PASS {name} (coefficient {rep.wrel}, {found} witnesses, "
                    f"{classes} classes, {elapsed:.2f}s)")
        else:
            failed = True
            line = f"FAIL {name}: " + "; ".join(
                f"{c.name}: {c.detail}" for c in rep.checks if not c.ok)
        if not a.json:
            _echo(line)
    if a.json:
        print(json.dumps(results, indent=2, sort_keys=True))
    if failed:
        sys.exit(4)


# the subject options and their help: --term and --point are required but under verify
_SUBJECT = (("--ctx", "typing context, e.g. 'f:o->o, x:o'"), ("--term", "simply-typed term"),
            ("--type", "expected simple type"),
            ("--point", "point as inline JSON or a path to a JSON file"))


def _parser() -> argparse.ArgumentParser:
    """The parser of every command: no option is abbreviated, and no -h."""
    def parser(make, **kwargs) -> argparse.ArgumentParser:
        made = make(add_help=False, allow_abbrev=False, **kwargs)
        made.add_argument("--help", action="help", help="show this message and exit")
        # help lets an error of its write reach main, where argparse's drops it
        made.print_help = lambda file=None: (file or sys.stdout).write(made.format_help())
        return made

    top = parser(argparse.ArgumentParser, prog="thinspan", description=main.__doc__)
    commands = top.add_subparsers(required=True, metavar="COMMAND", title="commands")
    for command in (check, witnesses, weight, verify):
        sub = parser(commands.add_parser, name=command.__name__, help=command.__doc__,
                     description=command.__doc__)
        sub.set_defaults(run=command)
        for option, text in _SUBJECT:
            if option != "--point" or command is not check:
                sub.add_argument(option, help=text, required=command is not verify
                                 and option in ("--term", "--point"))
        sub.add_argument("--json", action="store_true", help="machine readable output")
    verify_parser = commands.choices["verify"]
    verify_parser.add_argument("--corpus", metavar="PATH",
                               help="JSON file with a list of named subject/point entries")
    verify_parser.add_argument("--expected", type=int,
                               help="independently known coefficient to check against")
    return top


def main(argv: list[str] | None = None) -> None:
    """Count rigid derivations of simply-typed terms up to polarized symmetry."""
    try:
        try:
            args = _parser().parse_args(argv)
            args.run(args)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader is gone: exit quietly, on devnull for the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
