"""Spans around the calls thinspan makes between its layers.

The tracer replaces the names that `thinspan.collapse` and `thinspan.wrel`
import from the other modules with wrappers that record a span per call:
its name, start, end, parent span and query, and for some calls a count
taken from the value returned.  Nothing under `src/` is edited; the
wrappers are installed only in a forked child, so the process that forks
the queries keeps the original functions.

A layer's self time is the duration of its spans minus the durations of
their direct child spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from fractions import Fraction

# (module, name imported into it, count taken from the returned value)
WRAPPED = (
    ("collapse", "positive_witnesses", None),
    ("collapse", "esp_explicit", None),
    ("collapse", "annotate", None),
    ("collapse", "canonicalize_point", None),
    ("collapse", "sym_degrees_ctx", lambda d: d.total),
    ("collapse", "sym_degrees_it", None),
    ("collapse", "neg_targets_ctx", len),
    ("collapse", "pos_sources_it", len),
    ("collapse", "enumerate_homs_ctx", len),
    ("collapse", "enumerate_homs_it", len),
    ("collapse", "enumerate_witnesses", lambda ws: len(ws.derivations)),
    ("collapse", "partition_by_symmetry", len),
    ("collapse", "endo_count", int),
    ("collapse", "wrel_coefficient", None),
    ("wrel", "annotate", None),
    ("wrel", "beta_normalize", None),
)

# Per-layer self-time metrics, from the span names that make them up.  The
# benchmark's own calls (parsing the query, verify_identities) are spans too.
LAYERS = {
    "syntax.parse_s": ("parse_context", "parse_simple_type", "parse_term", "annotate",
                       "point_from_json"),
    "syntax.beta_normalize_s": ("beta_normalize",),
    "rigidtypes.canonicalize_point_s": ("canonicalize_point",),
    "wrel.coefficient_s": ("wrel_coefficient",),
    "symmetry.degrees_s": ("sym_degrees_ctx", "sym_degrees_it"),
    "symmetry.reach_s": ("neg_targets_ctx", "pos_sources_it"),
    "symmetry.hom_scan_s": ("enumerate_homs_ctx", "enumerate_homs_it"),
    "derivation.enumerate_s": ("enumerate_witnesses",),
    "derivation.partition_s": ("partition_by_symmetry",),
    "derivation.endo_s": ("endo_count",),
    "collapse.triples_s": ("esp_explicit",),
    "collapse.self_s": ("positive_witnesses", "verify_identities"),
}

ROOT_SPAN = "query"


class Tracer:
    """Records spans in memory; `spans` is a list of tuples
    (query, id, parent, name, start, end, count)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.query = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            out = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                self._stack.pop()
                n = count(out) if count is not None and out is not None else None
                self.spans[sid] = (self.query, sid, parent, name, start, end, n)
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every name in WRAPPED inside the given modules, by module name."""
        for mod, name, count in WRAPPED:
            module = modules[mod]
            setattr(module, name, self.wrap(name, getattr(module, name), count))


def self_times(spans, scale=None) -> dict[str, float]:
    """Total self time per span name, over the spans of one process.

    `scale`, if given, holds a factor per query that each span's self time
    is multiplied by.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for query, sid, _, name, start, end, _ in spans:
        out[name] += (end - start - child_time[sid]) * (scale[query] if scale else 1.0)
    return out


def layer_metrics(children) -> dict[str, float]:
    """Self time per layer, and the counts taken at the layer boundaries.

    `children` holds a `(spans, scale, weight)` triple per process: each
    self time is multiplied by its query's scale and by the weight, and
    each count by the weight, a Fraction so that counts stay exact.
    """
    selfs: dict[str, float] = defaultdict(float)
    calls: dict[str, Fraction] = defaultdict(Fraction)
    nonzero: dict[str, Fraction] = defaultdict(Fraction)
    total: dict[str, Fraction] = defaultdict(Fraction)
    for spans, scale, weight in children:
        for name, t in self_times(spans, scale).items():
            selfs[name] += float(weight) * t
        for *_, name, _, _, n in spans:
            if n is not None:
                calls[name] += weight
                nonzero[name] += weight * (n > 0)
                total[name] += weight * n
    out = {layer: sum(selfs[n] for n in names) for layer, names in LAYERS.items()}

    targets = calls["enumerate_witnesses"]
    homs = total["enumerate_homs_ctx"]
    out["symmetry.targets"] = targets
    out["symmetry.useful_target_frac"] = (
        nonzero["enumerate_witnesses"] / targets if targets else 0.0)
    out["symmetry.homs_scanned"] = homs
    # context morphisms dominate the scan; each witness keeps one of them
    out["symmetry.homs_used_frac"] = total["enumerate_witnesses"] / homs if homs else 0.0
    out["symmetry.ctx_endos"] = total["sym_degrees_ctx"]
    out["derivation.witnesses"] = total["enumerate_witnesses"]
    out["derivation.classes"] = total["partition_by_symmetry"]
    out["derivation.class_endos"] = total["endo_count"]
    return out
