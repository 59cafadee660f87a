"""What the modules under src/thinspan import, and what the package exports.

No linter runs over the package, so this parses each module and reports an
imported name that never appears in it.  The names that perfbench's tracer
wraps in a module are exempt there: the module imports them so that the
tracer can replace them, whether or not it calls them itself.

The listing of type hom-sets takes factorial time, so no module on the
query path may reach it: a module may import from groupoid only names the
tracer wraps there, which it must not use.  The rest of the listed
groupoids is test-only reference code, in tests/reference.py.

No name is defined in the package that nothing reaches: every function,
class and method (dunders aside) is used by another part of the package
or named by the benchmark under perfbench/.
"""

import ast
import importlib
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import thinspan
from support import child_env, load_tracing

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "thinspan"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
BENCHMARK = PACKAGE.parent.parent / "perfbench"


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def imports(tree: ast.Module):
    """(module, name, bound) for each name a module imports: `from module
    import name as bound`, a relative module resolved under thinspan, or
    `import name as bound` with module ''."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = ".".join(filter(None, ["thinspan" if node.level else "", node.module]))
            for a in node.names:
                yield module, a.name, a.asname or a.name
        elif isinstance(node, ast.Import):
            for a in node.names:
                yield "", a.name, a.asname or a.name.split(".")[0]


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def traced(module: str) -> set[str]:
    return {name for mod, name, _ in load_tracing().WRAPPED if mod == module}


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = parse(module)
    unused = {bound for _, _, bound in imports(tree)} - used_names(tree) - traced(module)
    assert not unused, sorted(unused)


def test_no_query_module_reaches_the_listings():
    assert "groupoid" in MODULES
    reached = {}
    for module in MODULES:
        tree = parse(module)
        names = {bound for source, name, bound in imports(tree)
                 if "thinspan.groupoid" in (source, f"{source}.{name}".lstrip("."))}
        if names - traced(module) or names & used_names(tree):
            reached[module] = sorted(names)
    assert not reached, reached


# The three counting paths stay independent: the coefficient recursion
# (wrel) reads nothing the witness enumeration, the degrees or the collapse
# compute, and neither the enumeration nor the degrees read the
# coefficient.  The triple count is the check on the degrees, so it reads
# the derivations of the normal form the witnesses are read back from, and
# no degree, no class's size and no class's endomorphism count.
PATHS_APART = {
    "wrel": {"derivation", "symmetry", "collapse"},
    "derivation": {"wrel"},
    "symmetry": {"wrel"},
}
DEGREE_READS = {"total", "positive", "negative", "class_sizes", "class_endos"}
TRIPLE_COUNTS = {"count_positive_it", "count_negative_seq"}
SYNTAX_REDUCER = {"beta_normalize", "substitute", "_nf", "_whnf"}


def imported_modules(tree: ast.Module) -> set[str]:
    """The thinspan modules a module imports from, or imports whole."""
    found = set()
    for source, name, _ in imports(tree):
        for module in (source, f"{source}.{name}".lstrip(".")):
            if module.startswith("thinspan."):
                found.add(module.split(".")[1])
    return found


def test_the_counting_paths_stay_apart():
    crossed = {module: sorted(imported_modules(parse(module)) & apart)
               for module, apart in PATHS_APART.items()}
    assert not any(crossed.values()), crossed
    [esp] = [node for node in parse("collapse").body
             if isinstance(node, ast.FunctionDef) and node.name == "esp_explicit"]
    read = {n.attr for n in ast.walk(esp) if isinstance(n, ast.Attribute)}
    assert "normal_derivations" in read and not read & DEGREE_READS, sorted(read & DEGREE_READS)
    # the witness path reads a result's class under positive morphisms with
    # its own key, not with the triple count's counts
    counts = {name for _, name, _ in imports(parse("derivation"))} & TRIPLE_COUNTS
    assert not counts, sorted(counts)
    # the witness path reaches its normal form with its own reducer, not
    # with the one whose normal form the coefficient reads
    reducer = {name for source, name, _ in imports(parse("derivation"))
               if source == "thinspan.syntax"} & SYNTAX_REDUCER
    assert not reducer, sorted(reducer)


def definitions(tree: ast.Module):
    """A module's top-level functions and classes, and its classes' methods
    but the dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def mentions(node: ast.AST) -> Counter:
    """How often each name occurs under node, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


# Defined in the package and reached by no other part of it nor by the
# benchmark, on purpose: parse_itype is the documented parser of rigid
# notation (docs/formats.md), which the tests use.
UNREACHED = {"rigidtypes.parse_itype"}


def test_every_definition_is_reached():
    trees = {module: parse(module) for module in MODULES}
    used = sum(map(mentions, trees.values()), Counter())
    bench = "\n".join(p.read_text() for p in BENCHMARK.glob("*.py"))
    unreached = {f"{module}.{node.name}" for module, tree in trees.items()
                 for node in definitions(tree)
                 if used[node.name] == mentions(node)[node.name]
                 and not re.search(rf"\b{node.name}\b", bench)}
    assert unreached == UNREACHED


# The names `import thinspan` exposes, modules aside: moving code between
# the package's modules keeps every one of them.
EXPORTS = {
    "DerivationError", "MorphismError", "NatInf", "ParseError",
    "PointSpec", "RefinementError", "ResourceContext", "Subject", "TypeCheckError",
    "TypingContext", "WitnessReport", "WitnessSet", "annotate", "beta_normalize",
    "canonicalize_point", "enumerate_witnesses", "multiset_collapse_term", "parse_context",
    "parse_itype", "parse_mit", "parse_mset", "parse_simple_type", "parse_term",
    "partition_by_symmetry", "point_from_json", "positive_witnesses", "prepare",
    "resource_to_text", "rt_context", "rt_type", "sym_degrees_ctx", "sym_degrees_it",
    "term_to_text", "type_to_text", "verify_identities", "weight_by_classes",
    "wrel_coefficient",
}


def test_the_package_exports_stay():
    exported = {name for name, value in vars(thinspan).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == EXPORTS


# A process keeps what it derives of a node in the node's memo, and what it
# read in a parser's bounded map from text.  So no module binds a mutable
# container at module level but the intern table, which holds its nodes
# weakly, and the only caches without a bound are groupoid's listings of
# hom-sets, keyed by types, which no query reaches, only the tracer: a new
# process-global table needs an edit here.
UNBOUNDED_CACHES = {
    "groupoid": {"enumerate_homs_it", "enumerate_homs_seq"},
}

CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict",
                   "Counter", "deque", "WeakKeyDictionary", "WeakValueDictionary"}


def module_containers(tree: ast.Module):
    """The names a module binds at its top level to a mutable container."""
    for node in tree.body:
        value = getattr(node, "value", None)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
                isinstance(value, CONTAINERS) or isinstance(value, ast.Call)
                and ast.unparse(value.func).split(".")[-1] in CONTAINER_CALLS):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from map(ast.unparse, targets)


def unbounded(decorator: ast.expr) -> bool:
    """Whether a decorator is functools.cache, or lru_cache with maxsize None."""
    if not isinstance(decorator, ast.Call):
        return ast.unparse(decorator).split(".")[-1] == "cache"
    sizes = decorator.args[:1] + [k.value for k in decorator.keywords if k.arg == "maxsize"]
    return (ast.unparse(decorator.func).split(".")[-1] == "lru_cache"
            and any(isinstance(s, ast.Constant) and s.value is None for s in sizes))


def test_no_module_keeps_a_table():
    found = {(module, name) for module in MODULES for name in module_containers(parse(module))}
    assert found == {("interning", "_table")}


def test_the_unbounded_caches_stay_these():
    found = {}
    for module in MODULES:
        names = {node.name for node in ast.walk(parse(module))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and any(map(unbounded, node.decorator_list))}
        if names:
            found[module] = names
    assert found == UNBOUNDED_CACHES


def test_the_cli_imports_neither_fractions_nor_decimal():
    # fractions imports decimal, which costs a few milliseconds of every
    # start of the CLI; nothing the CLI reaches needs either
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, thinspan.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=60,
        env=child_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


# The package builds its classes without generating code: Node's metaclass
# binds a node's fields itself, and the records write their own __init__.
# dataclasses would bring inspect, ast, dis, tokenize and copy into every
# process, and compile the methods it generates at each start.  The CLI
# parses its options with argparse, so it brings neither click nor inspect.
IMPORT_FOOTPRINT = r"""
import sys
start = set(sys.modules)
import thinspan
package = set(sys.modules) - start
import thinspan.cli
cli = set(sys.modules) - start
print(sorted({'dataclasses', 'inspect'} & package),
      sorted({'click', 'dataclasses', 'inspect'} & cli))
"""


def test_the_package_imports_neither_dataclasses_nor_inspect():
    res = subprocess.run([sys.executable, "-c", IMPORT_FOOTPRINT],
                         capture_output=True, text=True, timeout=60, env=child_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[] []"


def test_no_class_is_a_dataclass():
    classes = {f"{module}.{name}": value for module in MODULES
               for name, value in vars(importlib.import_module(f"thinspan.{module}")).items()
               if isinstance(value, type) and value.__module__ == f"thinspan.{module}"}
    assert {"syntax.Lam", "collapse.WitnessReport", "groupoid.SeqMorphism"} <= set(classes)
    assert not [name for name, cls in classes.items() if hasattr(cls, "__dataclass_fields__")]
