#!/usr/bin/env python3
"""Benchmark of `thinspan.verify_identities`: cold ladders and a warm stream.

    python3 perfbench/run.py --workload symmetric --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory.  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  See
README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

# A query running longer than this is stopped and counted as a timeout.
# The slowest rung (symmetric n = 6) takes about 11 s on the reference
# machine (2 cores, Python 3.11), so no rung comes near it.
QUERY_CAP_S = 60.0
# Whatever remains to run after this is counted as timed out, so one run
# ends well inside three minutes however slow the program gets.
RUN_BUDGET_S = 150.0
# Work per run is fixed by --seconds, not by how fast the program runs, so
# that two versions of the program are measured on the same queries.
# Nominal seconds per ladder pass and queries per second of the stream, on
# the reference machine.
PASS_S = {"symmetric": 11.0, "fanout": 5.0, "redex": 1.0}
STREAM_QPS = 200.0
# A rung whose first sample takes under CHEAP_S is sampled at least
# MIN_SAMPLES times: a short cold query varies by half from one child to
# the next, with the page faults that its first touches of memory take.
CHEAP_S = 0.1
MIN_SAMPLES = 21
SETUP_SAMPLES = 7
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# The speed of a shared host drifts by a quarter and more over seconds,
# and differently on each core.  The benchmark and every process it starts
# run on one core, and a fixed pure-Python calibration, independent of
# thinspan, is timed by the parent before every child, and inside a child
# every CAL_EVERY_S of its CPU time, interrupting the query, whose time
# then excludes it.  Each time is multiplied by CAL_REF_S (the
# calibration's time on the reference machine at rest) over the mean of
# the calibrations taken during it, or of the two around it.  A single
# short query is scaled by a noisy estimate, but the metrics of short
# queries are medians over many of them.
CAL_EVERY_S = 0.25
CAL_REF_S = 0.0014

ENV = dict(os.environ, PYTHONPATH=str(SRC))


def load_thinspan():
    """Import thinspan from this checkout's `src/`, and from nowhere else."""
    if not (SRC / "thinspan" / "__init__.py").is_file():
        sys.exit(f"error: no thinspan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import thinspan
    if Path(thinspan.__file__).resolve().parent != (SRC / "thinspan").resolve():
        sys.exit(f"error: imported thinspan from {thinspan.__file__}, not {SRC}")
    return thinspan


def _calibration_work() -> int:
    seen: dict = {}
    for p in itertools.permutations(range(6)):
        key = (p, tuple(sorted(p[:3])))
        seen[key] = seen.get(key, 0) + hash(key) % 3
        for a, b in itertools.product(p[:2], repeat=2):
            seen[(a, b)] = seen.get((a, b), 0) + 1
    return len(seen)


def calibrate() -> dict:
    """One calibration sample: the median of three timings, when it ended,
    and how long it took."""
    times = []
    began = time.perf_counter()
    for _ in range(3):
        start = time.perf_counter()
        _calibration_work()
        times.append(time.perf_counter() - start)
    return {"cal": statistics.median(times), "t": time.monotonic(),
            "d": time.perf_counter() - began}


####################################################################
# one query, and a child process serving a list of them

class QueryTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise QueryTimeout()


def answer(api: dict, q: dict) -> tuple[bool, int | None]:
    """Parse a query's text and run every identity check on it."""
    ctx = api["parse_context"](q["ctx"])
    expected = api["parse_simple_type"](q["type"]) if "type" in q else None
    term, ty = api["annotate"](ctx, api["parse_term"](q["term"]), expected)
    point = api["point_from_json"](q["point"], ctx, ty)
    rep = api["verify_identities"](ctx, term, point, q["budget"])
    return rep.ok, rep.wrel.value


def serve(ts, queries: list[dict], trace: bool, cap: float, emit) -> None:
    """Answer the queries in order in this process, emitting one record each.

    Each record has the query's status: "ok", "not-ok" (an identity check
    failed), "wrong" (the coefficient is not the reference), "error" (the
    library raised) or "timeout" (the query ran past `cap` seconds).
    Calibration samples taken during a query are emitted after its record.
    """
    names = ("parse_context", "parse_simple_type", "parse_term", "annotate",
             "point_from_json", "verify_identities")
    api = {n: getattr(ts, n) for n in names}
    run = answer
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install({"collapse": ts.collapse, "wrel": ts.wrel})
        api = {n: tracer.wrap(n, f) for n, f in api.items()}
        run = tracer.wrap(tracing.ROOT_SPAN, answer)
    signal.signal(signal.SIGALRM, _on_alarm)
    # a traced calibration is a span of its own, so no layer's self time has it
    measure = tracer.wrap("calibrate", calibrate) if tracer else calibrate
    probes: list[dict] = []
    signal.signal(signal.SIGVTALRM, lambda signum, frame: probes.append(measure()))
    signal.setitimer(signal.ITIMER_VIRTUAL, CAL_EVERY_S, CAL_EVERY_S)

    for i, q in enumerate(queries):
        if tracer:
            tracer.query = i
        coeff = None
        seen = len(probes)
        t0 = time.monotonic()
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, cap)
            try:
                ok, coeff = run(api, q)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            status = "ok" if ok and coeff == q["ref"] else "wrong" if ok else "not-ok"
        except QueryTimeout:
            status = "timeout"
        except Exception:
            traceback.print_exc()
            status = "error"
        elapsed = time.perf_counter() - start
        during = probes[seen:]
        emit({"status": status, "seconds": elapsed - sum(p["d"] for p in during),
              "t0": t0, "t1": t0 + elapsed, "coefficient": coeff})
        for p in during:
            emit(p)
    signal.setitimer(signal.ITIMER_VIRTUAL, 0)
    emit({"spans": [s for s in tracer.spans if s is not None] if tracer else []})


def in_child(ts, queries: list[dict], trace: bool, cap: float, deadline: float) -> dict:
    """Serve the queries in a child forked from this process.

    The child starts with the caches this process has, which are empty
    because this process runs no query itself.  It is killed at `deadline`
    (a `time.monotonic` value); queries it did not report count as
    timeouts if it was killed, and as errors otherwise.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    forked = time.monotonic()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(r)
            with os.fdopen(w, "w") as out:
                def emit(obj):
                    out.write(json.dumps(obj) + "\n")
                    out.flush()
                serve(ts, queries, trace, cap, emit)
        except BaseException:
            traceback.print_exc()
            code = 1
        finally:
            os._exit(code)
    os.close(w)
    buf = bytearray()
    killed = False
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            if select.select([r], [], [], remaining)[0]:
                chunk = os.read(r, 1 << 16)
                if not chunk:
                    break
                buf += chunk
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(r)
        _, _, usage = os.wait4(pid, 0)
    ended = time.monotonic()
    lines = [json.loads(line) for line in bytes(buf).split(b"\n")[:-1]]
    records = [x for x in lines if "status" in x]
    missing = "timeout" if killed else "error"
    for i in range(len(records), len(queries)):
        # the first query not reported ran from the last report to the end
        t0 = records[-1]["t1"] if records else forked
        records.append({"status": missing, "t0": t0, "t1": ended,
                        "seconds": ended - t0 if i == len(records) else 0.0,
                        "coefficient": None})
    for q, rec in zip(queries, records):
        rec["name"] = q["name"]
    return {"records": records,
            "cal": [x for x in lines if "cal" in x],
            "spans": next((x["spans"] for x in lines if "spans" in x), []),
            "rss_mb": usage.ru_maxrss / 1024}


####################################################################
# a run: children, calibration samples, and the scaling they give

class Run:
    """Everything one benchmark run measured, in the order it was measured."""

    def __init__(self, ts, deadline: float):
        self.ts = ts
        self.deadline = deadline
        self.children: list[dict] = []
        self.cal: list[dict] = []
        self.calibrate()

    def calibrate(self) -> None:
        self.cal.append(calibrate())

    def child(self, queries: list[dict], trace: bool) -> dict:
        now = time.monotonic()
        remaining = self.deadline - now
        if remaining <= 0:
            out = {"records": [{"name": q["name"], "status": "timeout", "t0": now, "t1": now,
                                "seconds": 0.0, "coefficient": None} for q in queries],
                   "cal": [], "spans": [], "rss_mb": 0.0}
        else:
            self.calibrate()
            cap = min(QUERY_CAP_S, remaining)
            budget = min(remaining, cap * len(queries) + 1.0)
            out = in_child(self.ts, queries, trace, cap, time.monotonic() + budget)
        self.cal += out["cal"]
        self.children.append(out)
        return out

    def scale(self, t0: float, t1: float) -> float:
        """Reference speed over the mean speed of the calibrations taken
        during [t0, t1], or, for a time too short to hold one, of the last
        one before it and the first one after it."""
        ts = [c["t"] for c in self.cal]
        i = bisect.bisect_right(ts, t0)
        j = bisect.bisect_right(ts, t1)
        near = self.cal[i:j] or self.cal[max(0, i - 1):i + 1]
        return CAL_REF_S / statistics.mean(c["cal"] for c in near)

    def finish(self) -> None:
        """Close the last bracket and scale every query's time."""
        self.calibrate()
        for c in self.children:
            for rec in c["records"]:
                rec["scaled"] = rec["seconds"] * self.scale(rec["t0"], rec["t1"])

    def timed(self, fn) -> tuple[float, object]:
        """Scaled wall time of fn(), bracketed by calibrations."""
        self.calibrate()
        t0 = time.monotonic()
        start = time.perf_counter()
        out = fn()
        seconds = time.perf_counter() - start
        self.calibrate()
        return seconds * self.scale(t0, t0 + seconds), out


def ladder_samples(run: Run, rungs: list[dict], passes: int, min_samples: int,
                   trace: bool, rng: random.Random) -> dict[str, list[dict]]:
    """Cold samples of every rung, each in its own child, in seeded rounds.

    Every rung gets `passes` samples, and a rung whose first sample took
    under CHEAP_S gets at least `min_samples`.
    """
    samples: dict[str, list[dict]] = {q["name"]: [] for q in rungs}
    need = {q["name"]: passes for q in rungs}
    while todo := [q for q in rungs if len(samples[q["name"]]) < need[q["name"]]]:
        rng.shuffle(todo)
        for q in todo:
            child = run.child([q], trace)
            got = samples[q["name"]]
            got.append(child)
            if len(got) == 1 and child["records"][0]["seconds"] < CHEAP_S:
                need[q["name"]] = max(passes, min_samples)
    return samples


def rung_times(samples: dict[str, list[dict]], average) -> dict[str, float]:
    return {name: average(c["records"][0]["scaled"] for c in children)
            for name, children in samples.items()}


def query_seconds(child: dict) -> float:
    return sum(rec["scaled"] for rec in child["records"])


def tail_stats(seconds: list[float]) -> dict:
    """The highest listed percentile with at least ten samples beyond it,
    by nearest rank, or the maximum when there are fewer than twenty."""
    xs = sorted(seconds)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return {"label": f"p{p:g}", "value": xs[math.ceil(n * p / 100.0) - 1], "samples": n}
    return {"label": "max", "value": xs[-1], "samples": n}


def setup_seconds(run: Run, samples: int) -> float:
    """Median scaled wall time of a fresh interpreter importing thinspan.cli.

    One untimed import first writes the bytecode cache, as a user's first
    call would.
    """
    def spawn():
        subprocess.run([sys.executable, "-c", "import thinspan.cli"], cwd=ROOT, env=ENV,
                       check=True, timeout=60)
    spawn()
    return statistics.median(run.timed(spawn)[0] for _ in range(samples))


def cli_corpus(run: Run) -> tuple[float, bool]:
    """Scaled wall time of `thinspan verify --json` over the corpus, and
    whether every entry passed with its expected coefficient."""
    seconds, proc = run.timed(lambda: subprocess.run(
        [sys.executable, "-m", "thinspan.cli", "verify", "--json",
         "--corpus", "corpus/points.json"],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120))
    try:
        results = json.loads(proc.stdout)
    except json.JSONDecodeError:
        results = []
    expected = {q["name"]: q["ref"] for q in workloads.corpus(ROOT)}
    passed = (proc.returncode == 0 and len(results) == len(expected)
              and all(r["ok"] and r["coefficient"] == expected[r["name"]] for r in results))
    return seconds, passed


def measure(ts, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the result object and a report."""
    run = Run(ts, time.monotonic() + RUN_BUDGET_S)
    rng = random.Random(seed)
    report: list[str] = []
    metrics: dict[str, tuple[float, str]] = {}

    # (child, weight): a traced child's per-layer numbers count with its
    # weight, so that they add up to one pass over the workload
    traced: list[tuple[dict, Fraction]] = []
    if workload == "stream":
        n = max(20, round(seconds * STREAM_QPS))
        if trace:
            n = max(20, n // 2)
        queries = workloads.stream(ROOT, seed, n)
        repeats = n - len({json.dumps(q, sort_keys=True) for q in queries})
        report.append(f"stream: {n} queries, {repeats} exact repeats of earlier ones")
        untraced = run.child(queries, trace=False)
        if trace:
            traced = [(run.child(queries, trace=True), Fraction(1))]
    else:
        rungs = workloads.ladder(workload, ROOT)
        passes = max(1, round(seconds / PASS_S[workload]))
        if not trace:
            untraced = ladder_samples(run, rungs, passes, MIN_SAMPLES, False, rng)
        else:
            # per-layer numbers are means, and have no bound to hold
            passes = max(1, passes // 2)
            untraced = ladder_samples(run, rungs, passes, 1, False, rng)
            traced = [(c, Fraction(1, len(cs)))
                      for cs in ladder_samples(run, rungs, passes, 1, True, rng).values()
                      for c in cs]

    if trace:
        corpus_child = run.child(workloads.corpus(ROOT), trace=False)
        cli_s, cli_ok = cli_corpus(run)
        setup_s = setup_seconds(run, 3)
    else:
        setup_s = setup_seconds(run, SETUP_SAMPLES)
    run.finish()

    records = [rec for c in run.children for rec in c["records"]]
    attempted = len(records)
    failed = sum(rec["status"] != "ok" for rec in records)
    wrong = sum(rec["status"] in ("wrong", "not-ok", "error") for rec in records)
    for rec in records:
        if rec["status"] != "ok":
            report.append(f"FAILED {rec['name']}: {rec['status']} "
                          f"(coefficient {rec['coefficient']})")
    if workload != "stream":
        for name, cs in untraced.items():
            scaled = statistics.median(c["records"][0]["scaled"] for c in cs)
            raw = statistics.median(c["records"][0]["seconds"] for c in cs)
            report.append(f"{name}: median {scaled:.4f} s scaled, {raw:.4f} s raw, "
                          f"over {len(cs)}")
    speed = statistics.median(CAL_REF_S / c["cal"] for c in run.cal)
    raw = sum(rec["seconds"] for rec in records)
    scaled = sum(rec["scaled"] for rec in records)
    report.append(f"host speed: median {speed:.3f} of reference over {len(run.cal)} "
                  f"calibrations; query time {raw:.4f} s raw, {scaled:.4f} s scaled")

    if not trace:
        if workload == "stream":
            verify_s = query_seconds(untraced)
            completed = sum(rec["status"] == "ok" for rec in untraced["records"])
            latencies = [rec["scaled"] for rec in untraced["records"]]
            p50 = statistics.median(latencies)
            tail = tail_stats(latencies)
        else:
            medians = rung_times(untraced, statistics.median)
            verify_s = sum(medians.values())
            completed = sum(all(c["records"][0]["status"] == "ok" for c in cs)
                            for cs in untraced.values())
            p50 = statistics.median(medians.values())
            tail = {"label": "slowest rung", "value": max(medians.values()),
                    "samples": len(medians)}
        report.append(f"latency: p50 {p50 * 1e3:.3f} ms, {tail['label']} "
                      f"{tail['value'] * 1e3:.3f} ms over {tail['samples']} "
                      f"{'queries' if workload == 'stream' else 'rungs'}")
        metrics["setup_s"] = (setup_s, "s")
        metrics["verify_s"] = (verify_s, "s")
        metrics["queries_per_s"] = (completed / verify_s if verify_s else 0.0, "1/s")
        metrics["verify_p50_ms"] = (p50 * 1e3, "ms")
        metrics["verify_tail_ms"] = (tail["value"] * 1e3, "ms")
        metrics["peak_rss_mb"] = (max(c["rss_mb"] for c in run.children), "MB")
        metrics["ok_frac"] = ((attempted - failed) / attempted, "ratio")
    else:
        if workload == "stream":
            untraced_s = query_seconds(untraced)
        else:
            untraced_s = sum(rung_times(untraced, statistics.mean).values())
        traced_s = sum(w * query_seconds(c) for c, w in traced)
        layers = tracing.layer_metrics(
            (c["spans"], [rec["scaled"] / rec["seconds"] if rec["seconds"] else 1.0
                          for rec in c["records"]], w)
            for c, w in traced)
        for name, value in layers.items():
            unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_frac") else "count"
            metrics[name] = (float(value), unit)
        self_sum = sum(v for n, v in layers.items() if n.endswith("_s"))
        coverage = self_sum / traced_s if traced_s else 0.0
        metrics["trace.verify_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        metrics["trace.coverage"] = (coverage, "ratio")
        metrics["cli.verify_corpus_s"] = (cli_s, "s")
        metrics["cli.own_s"] = (cli_s - query_seconds(corpus_child) - setup_s, "s")
        attempted += 1
        failed += not cli_ok
        wrong += not cli_ok
        if not cli_ok:
            report.append("FAILED thinspan verify --json --corpus corpus/points.json")

        report.append(f"traced verify_s {traced_s:.4f} s, untraced {untraced_s:.4f} s, "
                      f"layers cover {coverage:.1%}")
        ranked = sorted(((v, n) for n, v in layers.items() if n.endswith("_s")),
                        reverse=True)
        for v, n in ranked:
            report.append(f"  {n:34s} {v:10.5f} s")
        report.append(f"top layer by self time: {ranked[0][1]}")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload}-seed{seed}.json"
        path.write_text(json.dumps([
            {"queries": [rec["name"] for rec in c["records"]], "spans": c["spans"]}
            for c, _ in traced]))
        report.append(f"spans written to {path.relative_to(ROOT)}")

    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
    return {"result": result, "report": report}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ts = load_thinspan()
    out = measure(ts, args.workload, args.seed, args.seconds, bool(args.trace))
    for line in out["report"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
