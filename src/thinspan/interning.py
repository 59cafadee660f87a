"""Hash-consing of the package's trees.

Simple types and terms (syntax), rigid types (rigidtypes) and resource
terms (derivation) are immutable trees built bottom-up.  Their classes
derive from Node, and building a node first looks its class and fields up
in one table: if an equal node exists, that node is returned.  So equal
trees are the same object, equality is identity, and a node hashes by its
id in constant time whatever its depth.  A lookup hashes and compares only
the node's own fields, which are strings, None, interned nodes or tuples
of interned nodes.

The table holds its nodes weakly: a node lives as long as something else
holds it, and its entry goes when it dies.
"""

from __future__ import annotations

from dataclasses import dataclass
import inspect
from weakref import ref


class _Entry(ref):
    """A weak reference to an interned node, with the node's key."""

    __slots__ = ("key",)


# (class, *fields) -> a weak reference to the one node with those fields
_table: dict[tuple, _Entry] = {}


def _drop(entry: _Entry, table=_table) -> None:
    # table is bound here so that nodes dying while the interpreter tears
    # the module down still find it; a new node may already sit under the
    # dead one's key
    if table.get(entry.key) is entry:
        del table[entry.key]


class _Interning(type):
    """The metaclass of Node.  Each subclass becomes a frozen, slotted
    dataclass without eq or hash, so its instances compare and hash by
    identity, and building one returns the interned node."""

    def __new__(mcls, name, bases, namespace):
        cls = super().__new__(mcls, name, bases, namespace)
        # the slotted dataclass is built anew through this method, with
        # __slots__ set
        if bases and "__slots__" not in namespace:
            cls = dataclass(frozen=True, eq=False, slots=True)(cls)
        return cls

    def __call__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls.__match_args__):
            bound = inspect.signature(cls.__init__).bind(None, *args, **kwargs)
            bound.apply_defaults()
            args = tuple(bound.arguments.values())[1:]
        key = (cls,) + args
        entry = _table.get(key)
        node = entry() if entry is not None else None
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__match_args__, args):
                object.__setattr__(node, name, value)
            entry = _table[key] = _Entry(node, _drop)
            entry.key = key
        return node


class Node(metaclass=_Interning):
    """An interned tree node.  Its fields are its __match_args__, in order."""

    __slots__ = ("__weakref__",)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self
