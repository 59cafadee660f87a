"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
from fractions import Fraction
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ts = run.load_thinspan()


def serve_in_child(queries, trace=False, cap=run.QUERY_CAP_S, budget=60.0):
    return run.in_child(ts, queries, trace, cap, time.monotonic() + budget)


def statuses(out):
    return [rec["status"] for rec in out["records"]]


def test_tiny_cap_times_out():
    out = serve_in_child([workloads.symmetric(5), workloads.church(1)], cap=0.001)
    assert statuses(out)[0] == "timeout"


def test_child_past_its_deadline_is_killed():
    out = serve_in_child([workloads.symmetric(6), workloads.church(1)], budget=0.5)
    assert statuses(out) == ["timeout", "timeout"]


def test_wrong_reference_trips_the_gate():
    good = workloads.church(2)
    bad = dict(good, ref=good["ref"] + 1)
    out = serve_in_child([good, bad])
    assert statuses(out) == ["ok", "wrong"]
    assert [rec["coefficient"] for rec in out["records"]] == [1, 1]


def test_references_hold_on_small_rungs():
    queries = ([workloads.symmetric(n) for n in (1, 2, 3)]
               + [workloads.fanout(n) for n in (1, 2)]
               + [workloads.church(k) for k in (1, 2, 3)]
               + workloads.corpus(run.ROOT))
    assert set(statuses(serve_in_child(queries))) == {"ok"}


def test_stream_is_seeded():
    a = workloads.stream(run.ROOT, 7, 200)
    assert a == workloads.stream(run.ROOT, 7, 200)
    assert a != workloads.stream(run.ROOT, 8, 200)
    assert a[:50] == workloads.stream(run.ROOT, 7, 50)
    distinct = len({json.dumps(q, sort_keys=True) for q in a})
    assert 0.35 < 1 - distinct / len(a) < 0.65


def test_renamed_queries_keep_their_reference():
    queries = [workloads.rename(q, "_9") for q in workloads.stream_subjects(run.ROOT)]
    assert set(statuses(serve_in_child(queries))) == {"ok"}


def test_trace_accounts_for_the_query_time():
    out = serve_in_child([workloads.fanout(2)], trace=True)
    m = tracing.layer_metrics([(out["spans"], None, Fraction(1))])
    selfs = sum(v for k, v in m.items() if k.endswith("_s"))
    assert abs(selfs / out["records"][0]["seconds"] - 1) < 0.05
    assert m["symmetry.targets"] == 10
    assert m["symmetry.useful_target_frac"] == Fraction(1, 5)
    assert m["derivation.witnesses"] == 2


def test_self_time_subtracts_direct_children():
    spans = [(0, 0, None, "query", 0.0, 10.0, None),
             (0, 1, 0, "verify_identities", 1.0, 9.0, None),
             (0, 2, 1, "esp_explicit", 2.0, 5.0, None),
             (0, 3, 2, "enumerate_homs_ctx", 3.0, 4.0, 7)]
    selfs = tracing.self_times(spans)
    assert selfs == {"query": 2.0, "verify_identities": 5.0, "esp_explicit": 2.0,
                     "enumerate_homs_ctx": 1.0}
    assert tracing.layer_metrics([(spans, None, Fraction(1))])["symmetry.homs_scanned"] == 7


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "redex", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
