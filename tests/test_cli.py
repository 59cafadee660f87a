import json
import os
import resource
import subprocess
import sys
import time

from thinspan import cli, collapse
from thinspan.wrel import NatInf

from support import (
    CORPUS_PATH, chain_point, child_env, higher_order_cut_point, run_cli, third_order_cut_point,
)

EX2 = ["--ctx", "f:o->o, g:o->o, y:o", "--term", "f (g y)", "--point",
       '{"ctx": {"f": "[[*,*]-o*]", "g": "[[]-o*, [*]-o*]", "y": "[*]"}, "type": "*"}']
FAN = ["--ctx", "g:o->o, y:o", "--term", "g (g y)", "--point",
       '{"ctx": {"g": "[[*,*]-o*,[*]-o*,[*]-o*]", "y": "[*,*]"}, "type": "*"}']
REDEX = ["--ctx", "y:o", "--term", "(\\x:o. x) y", "--point",
         '{"ctx": {"y": "[*]"}, "type": "*"}']
# the argument's lambda binds h of an arrow type, and the cut is
# <<*,*>-o*>-o*; the witness is read back from the normal form g y
HIGHER_TERM, HIGHER_POINT = higher_order_cut_point(2)
HIGHER = ["--ctx", "g:o->o, y:o", "--term", HIGHER_TERM, "--point",
          json.dumps({"ctx": HIGHER_POINT, "type": "*"})]


def run(*args, env=None):
    return run_cli(args, env=env)


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


# No subject needs a budget, so none exits 3: the higher-order cut is
# exact, as a redex whose cut the point fixes is.
def test_witnesses_budget_exit_code():
    for cmd in ("witnesses", "weight"):
        res = run(cmd, *HIGHER)
        assert res.exit_code == 0 and res.stderr == "", cmd
    assert "positive witnesses: 1 (exact)" in run("witnesses", *HIGHER).output
    res = run("witnesses", *REDEX)
    assert res.exit_code == 0
    assert "positive witnesses: 1 (exact)" in res.output


# THINSPAN_BUDGET is no longer read: whatever it holds, the output is the
# output without it.
def test_budget_from_environment():
    for args in (HIGHER, REDEX):
        want = run("witnesses", *args, env={"THINSPAN_BUDGET": None})
        assert want.exit_code == 0
        for value in ("2", "1", "zzz", "-1"):
            res = run("witnesses", *args, env={"THINSPAN_BUDGET": value})
            assert (res.exit_code, res.output) == (0, want.output), value


def test_higher_order_cuts_pass_without_a_budget():
    for term, point_ctx in (higher_order_cut_point(2), third_order_cut_point()):
        args = ["--ctx", "g:o->o, y:o", "--term", term, "--point",
                json.dumps({"ctx": point_ctx, "type": "*"}), "--expected", "1"]
        res = run("verify", *args)
        assert res.exit_code == 0 and res.output.startswith("PASS (cli) (coefficient 1, "
                                                            "1 witnesses, 1 classes"), term
        [result] = json.loads(run("verify", *args, "--json").output)
        assert result["ok"] and "incomplete" not in result and "error" not in result


def test_witnesses_refinement_error():
    res = run("witnesses", "--ctx", "y:o", "--term", "y", "--point",
              '{"ctx": {"y": "[[*]-o*]"}, "type": "*"}')
    assert res.exit_code == 1
    assert "refine" in res.stderr


def test_a_point_with_an_unknown_field_is_an_input_error():
    # read as a point with the empty context, a misspelled "ctx" would pass
    # with coefficient 0
    point = '{"cxt": {"y": "[*]"}, "type": "*"}'
    for cmd in ("verify", "witnesses", "weight"):
        res = run(cmd, "--ctx", "y:o", "--term", "y", "--point", point)
        assert_clean_input_error(res)
        assert "unknown field 'cxt'" in res.stderr, res.stderr
        assert res.stdout == ""


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


def test_verify_reads_an_empty_term_or_point():
    # an empty text is given, not missing: the reader reports it as it does
    # under witnesses, and no usage error is raised
    res = run("verify", "--ctx", "y:o", "--term", "", "--point", "{}")
    assert_clean_input_error(res)
    assert res.stderr == "error: (cli): expected a term but found 'end of input' at position 0\n"
    other = run("witnesses", "--ctx", "y:o", "--term", "", "--point", "{}")
    assert other.exit_code == 1
    assert other.stderr == "error: expected a term but found 'end of input' at position 0\n"
    assert_clean_input_error(run("verify", "--ctx", "y:o", "--term", "y", "--point", ""))


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


def test_a_surplus_fails_at_any_budget(monkeypatch):
    # more witnesses than the coefficient is a failure, exit 4: no budget
    # bounds the enumeration, so none is blamed
    monkeypatch.setattr(collapse, "wrel_coefficient", lambda subject: NatInf(0))
    res = run("verify", *HIGHER, "--json")
    assert res.exit_code == 4
    [result] = json.loads(res.output)
    assert "incomplete" not in result and result["witnesses"] == 1
    res = run("verify", *HIGHER)
    assert res.exit_code == 4 and res.output.startswith("FAIL (cli)")


def test_corpus_at_budget_8_in_bounded_memory():
    # the guessed cuts at budget 8 once listed 48,427,561 candidates for
    # o->o; with no budget at all, the corpus verifies in a child capped at
    # 2 GB of address space
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    started = time.monotonic()
    res = subprocess.run(
        [sys.executable, "-m", "thinspan.cli", "verify", "--corpus", str(CORPUS_PATH)],
        capture_output=True, text=True, timeout=30, preexec_fn=cap,
        env=child_env())
    assert res.returncode == 0, res.stdout + res.stderr
    assert time.monotonic() - started < 15
    assert res.stdout.count("PASS") == len(json.loads(CORPUS_PATH.read_text()))


def test_higher_order_cut_at_budget_7_in_bounded_memory():
    # the copies' types were once probed among the 2,396,745 refinements of
    # (o->o)->o that budget 7 admits, which ran out of memory under 2 GB;
    # the cut at n = 7 is read back from the normal form now, with no budget
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    term, point_ctx = higher_order_cut_point(7)
    res = subprocess.run(
        [sys.executable, "-m", "thinspan.cli", "verify", "--ctx", "g:o->o, y:o", "--term", term,
         "--point", json.dumps({"ctx": point_ctx, "type": "*"}), "--json"],
        capture_output=True, text=True, timeout=60, preexec_fn=cap,
        env=child_env())
    assert res.returncode == 0, res.stdout + res.stderr
    [result] = json.loads(res.stdout)
    assert result["ok"] and result["coefficient"] == result["witnesses"] == 1


def test_a_query_too_large_for_memory_is_an_input_error(monkeypatch):
    # a query that runs out of memory says so and exits 1, without a
    # traceback
    def exhausted(subject):
        raise MemoryError

    for module in (collapse, cli):
        monkeypatch.setattr(module, "positive_witnesses", exhausted)
    for cmd in ("verify", "witnesses", "weight"):
        res = run(cmd, *HIGHER)
        assert res.exit_code == 1, cmd
        prefix = "(cli): " if cmd == "verify" else ""
        assert res.stderr == f"error: {prefix}the query ran out of memory; try a smaller point\n"
        assert res.stdout == ""


def test_a_huge_budget_over_a_first_order_cut_passes():
    # THINSPAN_BUDGET is not read, so a huge one, once a bound on the
    # labels of an open binder, changes nothing: the binder k takes the one
    # type [*]-o* its argument concludes, in a child capped at 512 MB
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    res = subprocess.run(
        [sys.executable, "-m", "thinspan.cli", "verify", "--ctx", "g:o->o, y:o",
         "--term", "(\\k:o->o. k y) (\\x:o. g x)",
         "--point", '{"ctx": {"g": "[[*]-o*]", "y": "[*]"}, "type": "*"}'],
        capture_output=True, text=True, timeout=60, preexec_fn=cap,
        env={**child_env(), "THINSPAN_BUDGET": "100000"})
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.startswith("PASS"), res.stdout


def test_verify_mixed_corpus(tmp_path):
    cf = tmp_path / "c.json"
    cf.write_text(json.dumps([
        {"name": "plain", "ctx": "g:o->o, y:o", "term": "g (g y)",
         "point": {"ctx": {"g": "[[*,*]-o*,[*]-o*,[*]-o*]", "y": "[*,*]"},
                   "type": "*"},
         "expected": 1},
        {"name": "reduced", "ctx": "y:o", "term": "(\\x:o. x) y",
         "point": {"ctx": {"y": "[*]"}, "type": "*"}, "expected": 1, "budget": 1},
        # a budget field, even one too small for the cut, is not read
        {"name": "higher", "ctx": "g:o->o, y:o", "term": HIGHER_TERM,
         "point": {"ctx": HIGHER_POINT, "type": "*"}, "expected": 1, "budget": 1},
    ]))
    res = run("verify", "--corpus", str(cf))
    assert res.exit_code == 0
    assert res.output.count("PASS") == 3


def test_negative_budget_is_a_usage_error():
    # --budget is no option, so any budget given is a usage error
    for cmd in ("witnesses", "weight", "verify"):
        for value in ("-1", "0", "4"):
            res = run(cmd, *REDEX, "--budget", value)
            assert res.exit_code == 2, (cmd, value)
            assert "--budget" in res.stderr, res.stderr
    res = run("verify", "--corpus", str(CORPUS_PATH), "--budget", "-1")
    assert res.exit_code == 2


def test_the_usage_language():
    # every usage error exits 2 with nothing on stdout: no abbreviation of
    # an option is read, and help is --help alone
    cases = [[], ["frob"], ["check"], ["witnesses", "--ctx", "y:o", "--term", "y"],
             ["weight", "--ctx", "y:o", "--point", "{}"], ["verify", *REDEX, "--expected", "x"],
             ["witnesses", *REDEX, "--budget", "4"], ["check", "--exp", "o", "--term", "y"],
             ["-h"], ["check", "-h", "--term", "y"]]
    for args in cases:
        res = run(*args)
        assert (res.exit_code, res.stdout) == (2, ""), (args, res.output)
        assert "error: " in res.stderr, args
    for args in (["--help"], ["verify", "--help"]):
        res = run(*args)
        assert res.exit_code == 0 and res.stdout.startswith("usage: thinspan") and not res.stderr


def test_a_value_that_starts_with_a_dash_is_written_with_an_equals_sign():
    # "-x" reads as an option, so it is no value: a usage error, unless it
    # is given as --ctx=-x, when the reader refuses it as notation
    for option in ("--ctx", "--type"):
        res = run("check", "--term", "y", option, "-x")
        assert (res.exit_code, res.stdout) == (2, ""), res.output
        assert f"argument {option}: expected one argument" in res.stderr, res.stderr
        res = run("check", "--term", "y", f"{option}=-x")
        assert_clean_input_error(res)
        assert res.stderr == "error: unexpected character '-' at position 0\n", res.stderr


def test_a_closed_stdout_exits_1_quietly():
    # when stdout's reader is gone, a command exits 1 with nothing on
    # stderr, whether stdout is buffered or not
    commands = [["check", "--ctx", "y:o", "--term", "y"],
                ["verify", "--corpus", str(CORPUS_PATH)],
                ["verify", "--corpus", str(CORPUS_PATH), "--json"],
                ["--help"], ["verify", "--help"]]
    env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        for args in commands:
            read, write = os.pipe()
            os.close(read)
            try:
                res = subprocess.run([sys.executable, "-m", "thinspan.cli", *args], stdout=write,
                                     stderr=subprocess.PIPE, timeout=60, env={**env, **unbuffered})
            finally:
                os.close(write)
            assert (res.returncode, res.stderr) == (1, b""), (args, unbuffered, res.stderr)


def test_an_interrupt_is_aborted(monkeypatch):
    # Ctrl-C ends a command with exit 1 and "Aborted!", without a traceback
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "verify_identities", interrupted)
    res = run("verify", "--corpus", str(CORPUS_PATH))
    assert (res.exit_code, res.stdout, res.stderr) == (1, "", "\nAborted!\n")


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
    # a corpus file too, not a usage error
    res = run("verify", "--corpus", missing)
    assert_clean_input_error(res)
    assert res.stderr.startswith(f"error: {missing}: ") and res.stderr.count("\n") == 1


def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path):
    # a corpus or point file is read as UTF-8; other bytes end in one error
    # line, as text that is not JSON does, not in a traceback
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe\x00[")
    res = run("verify", "--corpus", str(bad))
    assert_clean_input_error(res)
    assert res.stderr.startswith(f"error: {bad}: 'utf-8' codec can't decode"), res.stderr
    for cmd in ("witnesses", "weight", "verify"):
        res = run(cmd, "--ctx", "g:o->o, y:o", "--term", "g y", "--point", str(bad))
        assert_clean_input_error(res)
        assert "'utf-8' codec can't decode" in res.stderr, res.stderr


def test_a_point_file_that_does_not_decode_or_parse_is_named(tmp_path):
    # the error line names the file, after the entry's prefix in verify, as
    # the corpus's does; a missing file is named by its OSError alone
    not_utf8, not_json = tmp_path / "utf16.json", tmp_path / "text.json"
    not_utf8.write_bytes(b"\xff\xfe\x00[")
    not_json.write_text("ctx: g\n")
    for path, message in ((not_utf8, "'utf-8' codec can't decode"),
                          (not_json, "Expecting value: line 1 column 1 (char 0)")):
        for cmd, prefix in (("witnesses", ""), ("weight", ""), ("verify", "(cli): ")):
            res = run(cmd, "--ctx", "g:o->o, y:o", "--term", "g y", "--point", str(path))
            assert_clean_input_error(res)
            assert res.stderr.startswith(f"error: {prefix}{path}: {message}"), res.stderr


def test_a_name_with_a_lone_surrogate_is_printed_escaped(tmp_path):
    # stdout escapes the surrogate as stderr does, and each entry keeps its
    # own exit code: a pass 0, a failed check 4, an input error 1
    point = {"ctx": {"y": "[*]"}, "type": "*"}
    cases = [({"term": "y", "expected": 1}, 0, "PASS a\\ud800 (coefficient 1"),
             ({"term": "y", "expected": 2}, 4, "FAIL a\\ud800: "),
             ({"term": "y y"}, 1, "")]
    for fields, code, line in cases:
        corpus = tmp_path / "surrogate.json"
        corpus.write_text(json.dumps([{"name": "a\ud800", "ctx": "y:o", "point": point,
                                       **fields}]))
        res = run("verify", "--corpus", str(corpus))
        assert res.exit_code == code and res.stdout.startswith(line), (res.output, res.exception)
        assert "Traceback" not in res.output
        if code == 1:
            assert res.stderr.startswith("error: a\\ud800: "), res.stderr
        res = run("verify", "--corpus", str(corpus), "--json")
        assert res.exit_code == code, (res.output, res.exception)
        if code != 1:
            assert json.loads(res.stdout)[0]["name"] == "a\ud800"


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


def test_an_empty_corpus_is_an_input_error(tmp_path):
    # a corpus emptied by mistake checks nothing, so it must not pass
    cf = tmp_path / "empty.json"
    cf.write_text("[]")
    for args in ((), ("--json",)):
        res = run("verify", "--corpus", str(cf), *args)
        assert_clean_input_error(res)
        assert res.stderr == f"error: {cf}: the corpus holds no entries\n"
        assert res.stdout == ""


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


def test_a_chain_170_deep_verifies():
    # under the default recursion limit, verify reaches about 246 nested
    # applications from the command line on CPython 3.11 (docs/formats.md,
    # Depth), and fewer here, under pytest, which adds frames of its own
    term, point_ctx, ctx = chain_point(170)
    res = run("verify", "--ctx", ctx, "--term", term, "--point",
              json.dumps({"ctx": point_ctx, "type": "*"}))
    assert res.exit_code == 0, res.output
    assert res.output.startswith("PASS"), res.output


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
           ("point", 3),
           ("point", {"ctx": {"y": 5}, "type": "*"}), ("point", {"ctx": {"y": "[*]"}, "type": 5})]
    for field, value in bad:
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps([dict(entry, **{field: value})]))
        res = run("verify", "--corpus", str(cf))
        assert_clean_input_error(res)
        assert res.stderr.startswith("error: typed:"), res.stderr
        if value is None:
            assert f"field {field!r} must be a string, got null" in res.stderr
    # a null expected means absent, and a budget field, of any value, is
    # not read
    for ok in (entry, dict(entry, expected=None, budget=None), dict(entry, budget="x")):
        cf.write_text(json.dumps([ok]))
        assert run("verify", "--corpus", str(cf)).exit_code == 0


def test_a_corpus_name_must_be_a_string(tmp_path):
    # a name of the wrong type is reported under the term's text, or under
    # "?" when that is no string either, and never as None
    entry = {"ctx": "y:o", "term": "y y", "point": {"ctx": {"y": "[*]"}, "type": "*"}}
    cf = tmp_path / "c.json"
    for value, term, prefix in ((None, "y y", "y y"), (3, "y y", "y y"), (["n"], 5, "?")):
        cf.write_text(json.dumps([dict(entry, name=value, term=term)]))
        res = run("verify", "--corpus", str(cf))
        assert_clean_input_error(res)
        assert res.stderr == (f"error: {prefix}: field 'name' must be a string, "
                              f"got {json.dumps(value)}\n"), res.stderr
