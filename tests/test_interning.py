"""The intern table: its dict gives back the capacity a large query made
it take, and rebuilding it keeps exactly the live entries, whatever
callbacks run meanwhile."""

import subprocess
import sys

from thinspan import interning

from support import child_env

# Python dicts never shrink, so the table's drop callback rebuilds the
# dict in place once most of its entries are gone.  `f (g y)` at the
# distinct-g point k = 7 has 5,040 witnesses, whose resource terms, about
# 5,000 entries, die with the query.
TABLE_AFTER_A_LARGE_QUERY = r"""
import gc, sys

import thinspan
from thinspan import interning

g = ",".join("[" + ",".join(["*"] * i) + "]-o*" for i in range(7))
ctx = thinspan.parse_context("f:o->o, g:o->o, y:o")
term, ty = thinspan.annotate(ctx, thinspan.parse_term("f (g y)"))
point = thinspan.point_from_json(
    {"ctx": {"f": "[[" + ",".join(["*"] * 7) + "]-o*]", "g": f"[{g}]",
             "y": "[" + ",".join(["*"] * 21) + "]"}, "type": "*"}, ctx, ty)
report = thinspan.verify_identities(ctx, term, point).report
assert report.wit_plus == 5040 and len(report.witnesses) == 5040
peak = len(interning._table)
del ctx, term, point, report
gc.collect()
print(peak, len(interning._table), sys.getsizeof(interning._table),
      sys.getsizeof(dict(interning._table)))
"""


def test_the_intern_table_shrinks_after_a_large_query():
    res = subprocess.run([sys.executable, "-c", TABLE_AFTER_A_LARGE_QUERY],
                         capture_output=True, text=True, timeout=120, env=child_env())
    assert res.returncode == 0 and res.stderr == "", res.stderr
    peak, live, size, compact = map(int, res.stdout.split())
    assert peak >= 5000 and size <= 4 * compact, (peak, live, size, compact)


class Referent:
    """Something a weak reference can point at."""


# A collection can start when the rebuild copies the table, and its
# callbacks drop entries the copy already holds.  The rebuild must not put
# them back: a dead entry's key would keep its node's fields alive.  Here
# the table's copy runs such a callback itself.
def test_a_rebuild_puts_back_no_entry_dropped_while_it_copies():
    dying = []

    class Table(dict):
        def copy(self):
            taken = dict(self)
            while dying:
                drop(dying.pop())
            return taken

    table = Table()
    drop = interning._dropper(table)
    referents = [Referent() for _ in range(16)]
    entries = []
    for i, r in enumerate(referents):
        entry = table[i] = interning._Entry(r, None)
        entry.key = i
        entries.append(entry)
    for entry in entries[:12]:
        drop(entry)
    assert len(table) == 4
    # the next drop leaves a quarter of the peak, and rebuilds
    dying.append(entries[13])
    drop(entries[12])
    assert sorted(table) == [14, 15]
    assert all(table[k] is entries[k] for k in table)
