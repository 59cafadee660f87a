"""Golden output of `witnesses --json` and `weight --json` on the corpus.

Every corpus entry is run through both commands with the entry's budget, or
4 when it has none, and the exit code and stdout must match the committed
golden file byte for byte.  To regenerate the file after a deliberate
change of output, run `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from thinspan.cli import main

from support import load_corpus

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "cli_corpus.json"
COMMANDS = ("witnesses", "weight")


def entry_args(entry: dict) -> list[str]:
    args = ["--ctx", entry.get("ctx", ""), "--term", entry["term"],
            "--point", json.dumps(entry["point"], sort_keys=True),
            "--budget", str(entry.get("budget", 4)), "--json"]
    if "type" in entry:
        args += ["--type", entry["type"]]
    return args


def run(command: str, entry: dict) -> dict:
    res = CliRunner().invoke(main, [command, *entry_args(entry)])
    return {"exit_code": res.exit_code, "output": res.output}


def collect() -> dict:
    return {entry["name"]: {command: run(command, entry) for command in COMMANDS}
            for entry in load_corpus()}


@pytest.mark.parametrize("command", COMMANDS)
def test_corpus_output_matches_golden(command):
    golden = json.loads(GOLDEN_PATH.read_text())
    corpus = load_corpus()
    assert sorted(golden) == sorted(entry["name"] for entry in corpus)
    for entry in corpus:
        assert run(command, entry) == golden[entry["name"]][command], entry["name"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
