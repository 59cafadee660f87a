import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from click.testing import CliRunner

import thinspan
from thinspan import collapse
from thinspan.cli import main
from thinspan.wrel import NatInf

from support import CORPUS_PATH, chain_point

EX2 = ["--ctx", "f:o->o, g:o->o, y:o", "--term", "f (g y)", "--point",
       '{"ctx": {"f": "[[*,*]-o*]", "g": "[[]-o*, [*]-o*]", "y": "[*]"}, "type": "*"}']
FAN = ["--ctx", "g:o->o, y:o", "--term", "g (g y)", "--point",
       '{"ctx": {"g": "[[*,*]-o*,[*]-o*,[*]-o*]", "y": "[*,*]"}, "type": "*"}']
REDEX = ["--ctx", "y:o", "--term", "(\\x:o. x) y", "--point",
         '{"ctx": {"y": "[*]"}, "type": "*"}']


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env)


def test_check_reports_normal_form():
    res = run("check", "--ctx", "g:o->o, y:o", "--term", "(\\x:o. g x) y")
    assert res.exit_code == 0
    assert "type: o" in res.output
    assert "beta-normal: no" in res.output
    assert "normal form: g y" in res.output


def test_check_json():
    res = run("check", "--ctx", "g:o->o", "--term", "\\x:o. g x", "--json")
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["type"] == "o -> o"
    assert obj["normal"] is True


def test_check_rejects_bad_input():
    res = run("check", "--term", "\\x:o. (")
    assert res.exit_code == 1
    assert "error:" in res.stderr
    res = run("check", "--ctx", "y:o", "--term", "y y")
    assert res.exit_code == 1


def test_witnesses_text_output():
    res = run("witnesses", *EX2)
    assert res.exit_code == 0
    assert "positive witnesses: 2 (exact)" in res.output
    assert "class 1: size 2, 1 endomorphisms" in res.output
    assert res.output.count("f^{<*,*>-o*}") == 2


def test_witnesses_json_shape():
    res = run("witnesses", *EX2, "--json")
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["count"] == 2
    assert obj["completeness"] == "exact"
    assert obj["classes"] == [{"witnesses": [0, 1], "size": 2, "endomorphisms": 1}]
    assert obj["degrees"]["ctx"]["positive"] == 2
    assert obj["triples"] == 2
    assert len(obj["witnesses"]) == 2
    assert obj["canonical"]["type"] == "*"


def test_witnesses_budget_exit_code():
    res = run("witnesses", *REDEX)
    assert res.exit_code == 3
    assert "budget" in res.stderr


def test_budget_from_environment():
    res = run("witnesses", *REDEX, env={"THINSPAN_BUDGET": "1"})
    assert res.exit_code == 0
    assert "positive witnesses: 1 (bounded at 1)" in res.output
    res = run("witnesses", *REDEX, env={"THINSPAN_BUDGET": "zzz"})
    assert res.exit_code == 2


def test_witnesses_refinement_error():
    res = run("witnesses", "--ctx", "y:o", "--term", "y", "--point",
              '{"ctx": {"y": "[[*]-o*]"}, "type": "*"}')
    assert res.exit_code == 1
    assert "refine" in res.stderr


def test_point_from_file(tmp_path):
    pf = tmp_path / "point.json"
    pf.write_text('{"ctx": {"g": "[[*,*]-o*,[*]-o*,[*]-o*]", "y": "[*,*]"}, "type": "*"}')
    res = run("witnesses", "--ctx", "g:o->o, y:o", "--term", "g (g y)",
              "--point", str(pf))
    assert res.exit_code == 0
    assert "positive witnesses: 1 (exact)" in res.output
    assert "2 endomorphisms" in res.output


def test_weight_text_and_json():
    res = run("weight", *FAN)
    assert res.exit_code == 0
    assert "coefficient: 1" in res.output
    assert "positive witnesses: 1 in 1 classes" in res.output
    assert "class-weighted sum: 1" in res.output
    assert "witness triples: 4" in res.output
    obj = json.loads(run("weight", *FAN, "--json").output)
    assert obj == {"coefficient": 1, "witnesses": 1, "class_weighted": 1,
                   "classes": 1, "triples": 4}


def test_verify_corpus_passes():
    res = run("verify", "--corpus", str(CORPUS_PATH))
    assert res.exit_code == 0
    lines = [l for l in res.output.splitlines() if l]
    assert len(lines) == 20
    assert all(l.startswith("PASS ") for l in lines)


def test_verify_corpus_json():
    res = run("verify", "--corpus", str(CORPUS_PATH), "--json")
    assert res.exit_code == 0
    results = json.loads(res.output)
    assert len(results) == 20
    assert all(r["ok"] for r in results)
    assert {c["name"] for r in results for c in r["checks"]} == {
        "wrel-equals-witness-count", "class-weights-sum", "class-sizes",
        "triple-count-factors", "coefficient-division", "expected-value"}


def test_verify_single_subject():
    res = run("verify", "--ctx", "g:o->o, y:o", "--term", "g (g y)", "--point",
              '{"ctx": {"g": "[[*,*]-o*,[*]-o*,[*]-o*]", "y": "[*,*]"}, "type": "*"}',
              "--expected", "1")
    assert res.exit_code == 0
    assert res.output.startswith("PASS")


def test_verify_detects_wrong_expectation():
    res = run("verify", "--ctx", "g:o->o, y:o", "--term", "g (g y)", "--point",
              '{"ctx": {"g": "[[*,*]-o*,[*]-o*,[*]-o*]", "y": "[*,*]"}, "type": "*"}',
              "--expected", "3")
    assert res.exit_code == 4
    assert res.output.startswith("FAIL")
    assert "expected-value" in res.output


def test_verify_needs_subject_or_corpus():
    res = run("verify")
    assert res.exit_code == 2


def test_subject_options_beside_a_corpus_are_a_usage_error():
    # a corpus names its own subjects: a subject option given with it was
    # once dropped without a word, and the corpus passed
    for extra in (["--ctx", ""], ["--term", "zzz"], ["--type", "o"], ["--point", "{}"],
                  ["--expected", "99"]):
        res = run("verify", "--corpus", str(CORPUS_PATH), *extra)
        assert res.exit_code == 2, extra
        assert res.stdout == ""
        assert res.stderr == f"error: {extra[0]} cannot be used with --corpus\n"
    res = run("verify", "--corpus", str(CORPUS_PATH), "--term", "zzz", "--expected", "99",
              "--json")
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == "error: --term, --expected cannot be used with --corpus\n"


def test_verify_underbudget_fails(tmp_path):
    # a budget too small to cover the needed cut shows up as an enumeration
    # that may be incomplete, with an exit code of its own, not as a silent
    # pass
    cf = tmp_path / "c.json"
    cf.write_text(json.dumps([{
        "name": "too-tight",
        "ctx": "g:o->o, y:o",
        "term": "(\\f:o->o. \\x:o. f (f x)) ((\\h:o->o. \\z:o. h (h z)) g) y",
        "point": {"ctx": {"g": "[[*]-o*,[*]-o*,[*]-o*,[*]-o*]", "y": "[*]"},
                  "type": "*"},
        "expected": 1,
        "budget": 1,
    }]))
    res = run("verify", "--corpus", str(cf))
    assert res.exit_code == 5
    assert res.output == ("INCOMPLETE too-tight: the enumeration, bounded at budget 1, found 0 "
                          "witnesses for coefficient 1; a larger budget may find the rest\n")
    assert run("verify", "--corpus", str(cf), "--budget", "2").exit_code == 0


# `(\k. k y) (\x. g x)` at g:[[*,*,*]-o*], y:[*,*,*] needs the cut
# <[*,*,*]-o*>, of width 3
SHORT = ["--ctx", "g:o->o, y:o", "--term", "(\\k:o->o. k y) (\\x:o. g x)", "--point",
         '{"ctx": {"g": "[[*,*,*]-o*]", "y": "[*,*,*]"}, "type": "*"}']


def test_a_shortfall_under_a_budget_is_incomplete_not_failed():
    res = run("verify", *SHORT, "--budget", "2")
    assert res.exit_code == 5
    assert res.output.startswith("INCOMPLETE (cli): the enumeration, bounded at budget 2, "
                                 "found 0 witnesses for coefficient 1")
    res = run("verify", *SHORT, "--budget", "2", "--json")
    assert res.exit_code == 5
    [result] = json.loads(res.output)
    assert result["ok"] is False and result["incomplete"] == {"bounded_at": 2}
    assert (result["coefficient"], result["witnesses"]) == (1, 0)
    res = run("verify", *SHORT, "--budget", "3", "--json")
    assert res.exit_code == 0
    assert "incomplete" not in json.loads(res.output)[0]
    # a wrong expected value is a failure, whatever the budget found
    res = run("verify", *SHORT, "--budget", "2", "--expected", "2")
    assert res.exit_code == 4 and res.output.startswith("FAIL (cli)")


def test_a_surplus_fails_at_any_budget(monkeypatch):
    # more witnesses than the coefficient is never put down to the budget
    monkeypatch.setattr(collapse, "wrel_coefficient", lambda subject: NatInf(0))
    for budget in ("3", "4", "8"):
        res = run("verify", *SHORT, "--budget", budget, "--json")
        assert res.exit_code == 4, budget
        [result] = json.loads(res.output)
        assert "incomplete" not in result and result["witnesses"] == 1


def test_corpus_at_budget_8_in_bounded_memory():
    # the guessed cuts at budget 8 once listed 48,427,561 candidates for
    # o->o; the corpus now verifies in a child capped at 2 GB of address space
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = Path(thinspan.__file__).resolve().parent.parent
    started = time.monotonic()
    res = subprocess.run(
        [sys.executable, "-m", "thinspan.cli", "verify", "--corpus", str(CORPUS_PATH),
         "--budget", "8"],
        capture_output=True, text=True, timeout=30, preexec_fn=cap,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert res.returncode == 0, res.stdout + res.stderr
    assert time.monotonic() - started < 15
    assert res.stdout.count("PASS") == len(json.loads(CORPUS_PATH.read_text()))


def test_a_budget_too_large_for_memory_is_an_input_error():
    # budget 100,000 lists the sequences of * up to that length as cut
    # refinements of o->o, which a child capped at 512 MB of address space
    # cannot hold; it says so and exits 1, without a traceback
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    src = Path(thinspan.__file__).resolve().parent.parent
    res = subprocess.run(
        [sys.executable, "-m", "thinspan.cli", "verify", "--ctx", "g:o->o, y:o",
         "--term", "(\\k:o->o. k y) (\\x:o. g x)",
         "--point", '{"ctx": {"g": "[[*]-o*]", "y": "[*]"}, "type": "*"}',
         "--budget", "100000"],
        capture_output=True, text=True, timeout=60, preexec_fn=cap,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert res.returncode == 1, res.stdout + res.stderr
    assert "error: (cli): the query ran out of memory; try a smaller budget" in res.stderr
    assert "Traceback" not in res.stderr


def test_verify_mixed_corpus(tmp_path):
    cf = tmp_path / "c.json"
    cf.write_text(json.dumps([
        {"name": "plain", "ctx": "g:o->o, y:o", "term": "g (g y)",
         "point": {"ctx": {"g": "[[*,*]-o*,[*]-o*,[*]-o*]", "y": "[*,*]"},
                   "type": "*"},
         "expected": 1},
        {"name": "reduced", "ctx": "y:o", "term": "(\\x:o. x) y",
         "point": {"ctx": {"y": "[*]"}, "type": "*"}, "expected": 1, "budget": 1},
    ]))
    res = run("verify", "--corpus", str(cf))
    assert res.exit_code == 0
    assert res.output.count("PASS") == 2


def test_verify_adhoc_redex_needs_budget():
    # corpus entries fall back to a budget of 4; an ad-hoc subject does not
    args = ["verify", "--ctx", "g:o->o, y:o", "--term", "(\\x. x) (g y)", "--point",
            '{"ctx":{"g":"[[*]-o*]","y":"[*]"},"type":"*"}']
    res = run(*args)
    assert res.exit_code == 3
    assert res.output.startswith("FAIL (cli)")
    assert "budget" in res.output
    res = run(*args, "--json")
    assert res.exit_code == 3
    [result] = json.loads(res.output)
    assert result["ok"] is False and "budget" in result["error"]
    res = run(*args, "--budget", "4")
    assert res.exit_code == 0
    assert res.output.startswith("PASS (cli)")


def test_negative_budget_is_a_usage_error():
    for cmd, args in [("witnesses", REDEX), ("weight", REDEX), ("verify", REDEX)]:
        res = run(cmd, *args, "--budget", "-1")
        assert res.exit_code == 2, cmd
        res = run(cmd, *args, env={"THINSPAN_BUDGET": "-1"})
        assert res.exit_code == 2, cmd
        assert "THINSPAN_BUDGET" in res.stderr
    res = run("verify", "--corpus", str(CORPUS_PATH), "--budget", "-1")
    assert res.exit_code == 2


def test_verify_point_from_file(tmp_path):
    pf = tmp_path / "point.json"
    pf.write_text('{"ctx": {"g": "[[*]-o*]", "y": "[*]"}, "type": "*"}')
    res = run("verify", "--ctx", "g:o->o, y:o", "--term", "g y", "--point", str(pf),
              "--expected", "1")
    assert res.exit_code == 0, res.output
    assert res.output.startswith("PASS (cli)")


def assert_clean_input_error(res):
    assert res.exit_code == 1, res.output
    assert res.stderr.startswith("error:")
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output


def test_missing_point_file_is_an_input_error(tmp_path):
    missing = str(tmp_path / "absent.json")
    for cmd in ("witnesses", "weight", "verify"):
        res = run(cmd, "--ctx", "g:o->o, y:o", "--term", "g y", "--point", missing)
        assert_clean_input_error(res)
        assert "absent.json" in res.stderr


def test_inline_point_that_is_not_an_object():
    # valid inline JSON is never opened as a path
    for point in ("[1,2]", "3", '"g y"'):
        for cmd in ("witnesses", "weight", "verify"):
            res = run(cmd, "--ctx", "g:o->o, y:o", "--term", "g y", "--point", point)
            assert_clean_input_error(res)
            assert "must be an object" in res.stderr, res.stderr


def test_corpus_entry_without_term_or_point(tmp_path):
    entry = {"name": "partial", "ctx": "y:o", "term": "y",
             "point": {"ctx": {"y": "[*]"}, "type": "*"}}
    for field in ("term", "point"):
        cf = tmp_path / f"no-{field}.json"
        cf.write_text(json.dumps([{k: v for k, v in entry.items() if k != field}]))
        res = run("verify", "--corpus", str(cf))
        assert_clean_input_error(res)
        assert field in res.stderr


# A corpus entry's point is an object: a string is neither read as JSON nor
# opened as a path, even when it names a point file.
def test_corpus_point_given_as_a_string(tmp_path):
    pf = tmp_path / "pt.json"
    pf.write_text('{"ctx": {"y": "[*]"}, "type": "*"}')
    cf = tmp_path / "c.json"
    for point in (str(pf), pf.read_text()):
        cf.write_text(json.dumps([{"name": "s", "ctx": "y:o", "term": "y", "point": point}]))
        res = run("verify", "--corpus", str(cf))
        assert_clean_input_error(res)
        assert "field 'point' must be an object" in res.stderr, res.stderr


def test_corpus_of_the_wrong_shape(tmp_path):
    entry = {"name": "ok", "ctx": "y:o", "term": "y",
             "point": {"ctx": {"y": "[*]"}, "type": "*"}}
    for corpus in ({"entries": [entry]}, [entry, "not an object"], [3]):
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps(corpus))
        res = run("verify", "--corpus", str(cf))
        assert_clean_input_error(res)
        assert "list of objects" in res.stderr


# A bad character in a term, a context or type notation is named at its own
# position, and ends the command with exit code 1 and no traceback.
def test_bad_character_is_an_input_error_at_its_position():
    cases = [
        (("check", "--ctx", "x:o", "--term", "x  é"), "'é' at position 3"),
        (("check", "--ctx", "x:o, #y:o", "--term", "x"), "'#' at position 5"),
        (("witnesses", "--ctx", "y:o", "--term", "y", "--point",
          '{"ctx": {"y": "[*,  é]"}, "type": "*"}'), "'é' at position 5 in type notation"),
    ]
    for args, where in cases:
        res = run(*args)
        assert_clean_input_error(res)
        assert res.stderr == f"error: unexpected character {where}\n", res.stderr


def test_multiset_without_an_opening_bracket_is_an_input_error(tmp_path):
    cf = tmp_path / "c.json"
    for text in ("", "*", "]", ")", "-o*]"):
        cf.write_text(json.dumps([{"name": "unbracketed", "ctx": "g:o->o, y:o", "term": "g y",
                                   "point": {"ctx": {"g": text}, "type": "*"}}]))
        res = run("verify", "--corpus", str(cf))
        assert_clean_input_error(res)
        assert res.stderr.startswith(
            "error: unbracketed: expected '[' or '<' at position 0 in type notation"), res.stderr


def test_deeply_nested_term_is_an_input_error():
    term, point_ctx, ctx = chain_point(400)
    point = json.dumps({"ctx": point_ctx, "type": "*"})
    for cmd in ("witnesses", "weight", "verify"):
        res = run(cmd, "--ctx", ctx, "--term", term, "--point", point)
        assert_clean_input_error(res)


def test_corpus_fields_of_the_wrong_type(tmp_path):
    entry = {"name": "typed", "ctx": "y:o", "term": "(\\x:o. x) y",
             "point": {"ctx": {"y": "[*]"}, "type": "*"}, "expected": 1, "budget": 1}
    bad = [("ctx", 5), ("term", ["y"]), ("type", 0), ("ctx", None), ("term", None),
           ("type", None), ("expected", "1"),
           ("budget", "x"), ("budget", -1), ("point", 3),
           ("point", {"ctx": {"y": 5}, "type": "*"}), ("point", {"ctx": {"y": "[*]"}, "type": 5})]
    for field, value in bad:
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps([dict(entry, **{field: value})]))
        res = run("verify", "--corpus", str(cf))
        assert_clean_input_error(res)
        assert res.stderr.startswith("error: typed:"), res.stderr
        if value is None:
            assert f"field {field!r} must be a string, got null" in res.stderr
    # a null expected or budget means absent
    for ok in (entry, dict(entry, expected=None, budget=None)):
        cf.write_text(json.dumps([ok]))
        assert run("verify", "--corpus", str(cf)).exit_code == 0
