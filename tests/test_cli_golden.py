"""Golden output of the command line on the corpus and on one input per
documented error exit.

Every corpus entry is run through `check`, `witnesses`, `weight` and
`verify` (as a single subject, with the entry's `expected`), in text and
with `--json`, at the entry's budget, or 4 when it has none.  The whole
corpus is run through `verify --corpus` in text and with `--json`.  Each
error exit (1 to 5) has fixed inputs of its own.  The exit code, stdout
and stderr of every run must match the committed golden file byte for
byte, once the timings of `verify` (its `"seconds"` values and the
`, 0.00s)` of a `PASS` line) are masked.  To regenerate the file after a
deliberate change of output, run `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import json
import os
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from thinspan.cli import main

from support import CORPUS_PATH, load_corpus

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "cli_corpus.json"
COMMANDS = ("check", "witnesses", "weight", "verify")
CORPUS_ARG = "corpus/points.json"

REDEX = ["--ctx", "g:o->o, y:o", "--term", "(\\x. x) (g y)", "--point",
         '{"ctx": {"g": "[[*]-o*]", "y": "[*]"}, "type": "*"}']
FAN = ["--ctx", "g:o->o, y:o", "--term", "g (g y)", "--point",
       '{"ctx": {"g": "[[*,*]-o*,[*]-o*,[*]-o*]", "y": "[*,*]"}, "type": "*"}']
# needs the cut <[*,*,*]-o*>, of width 3
SHORT = ["--ctx", "g:o->o, y:o", "--term", "(\\k:o->o. k y) (\\x:o. g x)", "--point",
         '{"ctx": {"g": "[[*,*,*]-o*]", "y": "[*,*,*]"}, "type": "*"}']

# one fixed input per documented error exit: the arguments and the
# environment of each run
ERRORS = {
    "1 bad character": (["check", "--ctx", "x:o", "--term", "x  é"], {}),
    "1 refinement error": (["witnesses", "--ctx", "y:o", "--term", "y", "--point",
                            '{"ctx": {"y": "[[*]-o*]"}, "type": "*"}'], {}),
    "1 missing point file": (["weight", "--ctx", "g:o->o, y:o", "--term", "g y",
                              "--point", "no-such-dir/point.json"], {}),
    "2 negative THINSPAN_BUDGET": (["witnesses", *REDEX], {"THINSPAN_BUDGET": "-1"}),
    "3 witnesses without a budget": (["witnesses", *REDEX], {}),
    "3 weight without a budget": (["weight", *REDEX], {}),
    "3 verify without a budget": (["verify", *REDEX], {}),
    "3 verify --json without a budget": (["verify", *REDEX, "--json"], {}),
    "4 wrong expected": (["verify", *FAN, "--expected", "3"], {}),
    "5 short budget": (["verify", *SHORT, "--budget", "2"], {}),
}


def entry_runs(entry: dict) -> dict:
    """The runs of one corpus entry, by name."""
    subject = ["--ctx", entry.get("ctx", ""), "--term", entry["term"]]
    if "type" in entry:
        subject += ["--type", entry["type"]]
    at_point = [*subject, "--point", json.dumps(entry["point"], sort_keys=True),
                "--budget", str(entry.get("budget", 4))]
    expected = ["--expected", str(entry["expected"])] if "expected" in entry else []
    runs = {"check": ["check", *subject], "witnesses": ["witnesses", *at_point],
            "weight": ["weight", *at_point], "verify": ["verify", *at_point, *expected]}
    return {**runs, **{f"{name} --json": [*args, "--json"] for name, args in runs.items()}}


def masked(text: str) -> str:
    text = re.sub(r'"seconds": [0-9.e+-]+', '"seconds": "*"', text)
    return re.sub(r", [0-9]+\.[0-9]{2}s\)$", ", *s)", text, flags=re.MULTILINE)


def run(args: list[str], env: dict | None = None) -> dict:
    # the budget comes from the arguments alone, unless a case sets it
    res = CliRunner().invoke(main, args, env={"THINSPAN_BUDGET": None, **(env or {})})
    return {"exit_code": res.exit_code, "stdout": masked(res.stdout),
            "stderr": masked(res.stderr)}


def corpus_runs() -> dict:
    return {name: run(["verify", "--corpus", CORPUS_ARG, *json_flag])
            for name, json_flag in (("text", []), ("--json", ["--json"]))}


def collect() -> dict:
    return {
        "entries": {entry["name"]: {name: run(args) for name, args in entry_runs(entry).items()}
                    for entry in load_corpus()},
        "verify --corpus": corpus_runs(),
        "errors": {name: run(args, env) for name, (args, env) in ERRORS.items()},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture
def at_repo_root(monkeypatch):
    monkeypatch.chdir(CORPUS_PATH.parent.parent)


@pytest.mark.parametrize("command", COMMANDS)
def test_corpus_output_matches_golden(command, golden):
    corpus = load_corpus()
    assert sorted(golden["entries"]) == sorted(entry["name"] for entry in corpus)
    for entry in corpus:
        for name, args in entry_runs(entry).items():
            if name.split()[0] == command:
                assert run(args) == golden["entries"][entry["name"]][name], (entry["name"], name)


def test_verify_corpus_matches_golden(golden, at_repo_root):
    assert corpus_runs() == golden["verify --corpus"]


@pytest.mark.parametrize("case", sorted(ERRORS))
def test_error_exit_matches_golden(case, golden, at_repo_root):
    args, env = ERRORS[case]
    assert run(args, env) == golden["errors"][case]
    assert golden["errors"][case]["exit_code"] == int(case[0])


if __name__ == "__main__":
    os.chdir(CORPUS_PATH.parent.parent)
    GOLDEN_PATH.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
