"""Queries for each workload, each with its reference coefficient.

A query is a plain dict in the corpus format (``ctx``, ``term``, ``point``
and optionally ``type``) plus ``name``, ``budget`` and ``ref``, the
coefficient the benchmark expects.  References come from outside the
library: the corpus's ``expected`` values, or hand derivations noted below.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

LADDERS = ("symmetric", "fanout", "redex")
WORKLOADS = LADDERS + ("stream",)

# A corpus entry without its own budget is verified at this budget when it
# has redexes, as `thinspan verify --corpus` does.
CORPUS_BUDGET = 4

# Fan-out references, checked against all three counting paths (the wrel
# coefficient, the positive-witness count and the class-weighted sum agree
# on each, and the triple count divides by the degrees to the same value).
FANOUT_REFS = {1: 1, 2: 2, 3: 1}


def _stars(n: int) -> str:
    return "[" + ",".join(["*"] * n) + "]"


def symmetric(n: int) -> dict:
    """`g y` at g:[[*^n]-o*], y:[*^n].

    The one witness uses g's only element on all n copies of y; the
    coefficient is 1 for every n.
    """
    return {"name": f"symmetric-{n}", "ctx": "g:o->o, y:o", "term": "g y",
            "point": {"ctx": {"g": f"[{_stars(n)}-o*]", "y": _stars(n)}, "type": "*"},
            "budget": None, "ref": 1}


def fanout(n: int) -> dict:
    """`g (g (g y))` at g:[n x ([*,*]-o*), (n+1) x ([*]-o*)], y:[*^(n+1)]."""
    g = ",".join(["[*,*]-o*"] * n + ["[*]-o*"] * (n + 1))
    return {"name": f"fanout-{n}", "ctx": "g:o->o, y:o", "term": "g (g (g y))",
            "point": {"ctx": {"g": f"[{g}]", "y": _stars(n + 1)}, "type": "*"},
            "budget": None, "ref": FANOUT_REFS[n]}


def church(k: int) -> dict:
    """The Church numeral k applied to g and y, at g:[k x ([*]-o*)], y:[*].

    Its normal form g (... (g y)) uses each element of g once, in the one
    order the nesting allows, so the coefficient is 1.  Budget k admits the
    cut type of length k that the redex needs.
    """
    body = "x"
    for _ in range(k):
        body = f"f {body}" if body == "x" else f"f ({body})"
    return {"name": f"church-{k}", "ctx": "g:o->o, y:o",
            "term": f"(\\f:o->o. \\x:o. {body}) g y",
            "point": {"ctx": {"g": "[" + ",".join(["[*]-o*"] * k) + "]", "y": "[*]"},
                      "type": "*"},
            "budget": k, "ref": 1}


def corpus(root: Path) -> list[dict]:
    """The corpus entries, each checked against its `expected` value."""
    entries = json.loads((root / "corpus" / "points.json").read_text())
    out = []
    for e in entries:
        q = {k: e[k] for k in ("name", "ctx", "term", "point", "type") if k in e}
        q["budget"] = e.get("budget", CORPUS_BUDGET)
        q["ref"] = e["expected"]
        out.append(q)
    return out


def church_two_twice(root: Path, budget: int) -> dict:
    q = dict(next(e for e in corpus(root) if e["name"] == "church-two-twice"))
    q["name"] = f"church-two-twice-b{budget}"
    q["budget"] = budget
    return q


def ladder(name: str, root: Path) -> list[dict]:
    """The rungs of a ladder workload, smallest first."""
    if name == "symmetric":
        return [symmetric(n) for n in range(1, 7)]
    if name == "fanout":
        return [fanout(n) for n in range(1, 4)]
    if name == "redex":
        return ([church(k) for k in range(1, 6)]
                + [church_two_twice(root, b) for b in (2, 3)]
                + corpus(root))
    raise ValueError(f"not a ladder workload: {name!r}")


def stream_subjects(root: Path) -> list[dict]:
    return (corpus(root)
            + [symmetric(n) for n in range(1, 5)]
            + [fanout(n) for n in range(1, 3)]
            + [church(k) for k in range(1, 5)]
            + [church_two_twice(root, 2)])


def rename(query: dict, suffix: str) -> dict:
    """The same query with every context variable renamed by a suffix.

    Binders in the corpus and the generated subjects never share a name
    with a context variable, so a whole-word substitution is a renaming.
    """
    names = [b.split(":")[0].strip() for b in query["ctx"].split(",") if b.strip()]
    word = re.compile(r"(?<![\w'])(" + "|".join(map(re.escape, names)) + r")(?![\w'])")

    def sub(text: str) -> str:
        return word.sub(lambda m: m.group(1) + suffix, text)

    out = dict(query)
    out["ctx"] = sub(query["ctx"])
    out["term"] = sub(query["term"])
    out["point"] = {"ctx": {k + suffix: v for k, v in query["point"]["ctx"].items()},
                    "type": query["point"]["type"]}
    out["name"] = query["name"] + suffix
    return out


def stream(root: Path, seed: int, n: int) -> list[dict]:
    """A seeded draw of n queries, with replacement, from the small subjects.

    Each query repeats one of the distinct earlier queries exactly with
    probability one half; otherwise it is a fresh subject under a renaming
    no earlier query used.  Fresh subjects come in seeded rounds that use
    every subject once, so the mix of subjects, and with it the work, is
    nearly the same for every seed.  The draw for n is a prefix of the draw
    for any larger n.
    """
    rng = random.Random(seed)
    subjects = stream_subjects(root)
    round_: list[dict] = []
    distinct: list[dict] = []
    out: list[dict] = []
    for i in range(n):
        if distinct and rng.random() < 0.5:
            out.append(rng.choice(distinct))
            continue
        if not round_:
            round_ = rng.sample(subjects, len(subjects))
        distinct.append(rename(round_.pop(), f"_{i}"))
        out.append(distinct[-1])
    return out
