"""The names the benchmark under perfbench/ relies on stay in place.

The benchmark's tracer wraps names imported into thinspan.collapse and
thinspan.wrel, and reads the coefficient off verify_identities; a refactor
that moves either would break the benchmark without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

from thinspan.collapse import verify_identities

from support import load_corpus, parse_entry

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    wrapped = load_tracing().WRAPPED
    assert wrapped
    for module, name, _ in wrapped:
        target = importlib.import_module(f"thinspan.{module}")
        assert callable(getattr(target, name, None)), f"thinspan.{module}.{name}"


def test_coefficient_is_a_plain_int():
    entry = load_corpus()[0]
    ctx, term, _, point = parse_entry(entry)
    value = verify_identities(ctx, term, point).wrel.value
    assert type(value) is int
    assert value == entry["expected"]
