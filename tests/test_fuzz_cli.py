"""Fuzz the input contract: every input ends with an exit code that
docs/formats.md documents, and no exception but SystemExit escapes the CLI.

The inputs are the corpus entries with one field mutated, fed to
`verify --corpus`, and the options of every command, built from a corpus
entry, with one of them mutated.  A mutation edits a few characters of a
text, or puts JSON of the wrong type where an object or a string belongs.
The examples are derandomized, so every run tries the same ones.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from support import load_corpus, run_cli

CORPUS = load_corpus()
EXIT_CODES = {0, 1, 2, 4}

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150,
                suppress_health_check=[HealthCheck.too_slow])

# the characters of each notation, and one that none of them uses
TERM, TYPE, RIGID = "\\:.() xyfg-o0", "()-o 0", "[]<>*,-o 0"
# the notation of each text field of an entry, and each text option
NOTATIONS = {"ctx": TERM + ",", "term": TERM, "type": TYPE}


@st.composite
def edited(draw, text: str, alphabet: str) -> str:
    """text with one to three characters deleted, inserted or replaced."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("delete", "insert", "replace")))
        c = draw(st.sampled_from(alphabet))
        if op == "insert" or not text:
            text = text[:i] + c + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + c + text[i + 1:]
    return text


def mutated_text(text: str, alphabet: str):
    """text with a few characters edited, or a short text in its place."""
    return edited(text, alphabet) | st.text(alphabet, max_size=6)


# JSON of any type, the integers among it small
wrong_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 4) | st.floats(-2, 2)
    | st.text(TERM + RIGID, max_size=6),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(
        st.sampled_from(("ctx", "type", "f", "g", "y")), inner, max_size=2),
    max_leaves=4)


@st.composite
def mutated_point(draw, point: dict) -> dict:
    """point with one of its texts mutated, or its ctx or type replaced by
    JSON of any type."""
    point = json.loads(json.dumps(point))
    texts = [("ctx", x) for x in point["ctx"]] + [("type",)]
    where = draw(st.sampled_from(texts + ["ctx", "type"]))
    if where == ("type",):
        point["type"] = draw(mutated_text(point["type"], RIGID))
    elif isinstance(where, tuple):
        point["ctx"][where[1]] = draw(mutated_text(point["ctx"][where[1]], RIGID))
    else:
        point[where] = draw(wrong_json)
    return point


@st.composite
def mutated_entry(draw) -> dict:
    """A corpus entry with one field mutated, replaced by JSON of any type,
    or, for expected, dropped."""
    entry = dict(draw(st.sampled_from(CORPUS)))
    field = draw(st.sampled_from(("ctx", "term", "type", "point", "expected")))
    if field == "point":
        entry["point"] = draw(mutated_point(entry["point"]) | wrong_json)
    elif field in NOTATIONS:
        entry[field] = draw(mutated_text(entry.get(field, ""), NOTATIONS[field]) | wrong_json)
    elif draw(st.booleans()):
        entry[field] = draw(wrong_json)
    else:
        entry.pop(field, None)
    return entry


def invoke(args: list[str]):
    result = run_cli(args)
    escaped = result.exception
    assert escaped is None or isinstance(escaped, SystemExit), (args, result.output, escaped)
    assert result.exit_code in EXIT_CODES, (args, result.exit_code, result.output)


@FUZZ
@given(mutated_entry())
def test_a_mutated_corpus_entry_exits_with_a_documented_code(entry):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.json"
        path.write_text(json.dumps([entry]))
        invoke(["verify", "--corpus", str(path)])


@st.composite
def mutated_options(draw) -> list[str]:
    entry = draw(st.sampled_from(CORPUS))
    command = draw(st.sampled_from(("check", "witnesses", "weight", "verify")))
    options = {"--ctx": entry.get("ctx", ""), "--term": entry["term"],
               "--type": entry.get("type", "")}
    if command != "check":
        options["--point"] = json.dumps(entry["point"])
    option = draw(st.sampled_from(sorted(options)))
    if option == "--point":
        options[option] = draw(st.one_of(
            mutated_point(entry["point"]).map(json.dumps), wrong_json.map(json.dumps),
            mutated_text(options[option], RIGID + "{}\":")))
    else:
        options[option] = draw(mutated_text(options[option], NOTATIONS[option[2:]]))
    args = [command] + [part for item in options.items() for part in item]
    return args + (["--json"] if draw(st.booleans()) else [])


@FUZZ
@given(mutated_options())
def test_mutated_options_exit_with_a_documented_code(args):
    invoke(args)
