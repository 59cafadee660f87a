"""Hash-consing of the package's trees, the facts kept on their nodes, and
the records that hold the package's other values.

Simple types and terms (syntax), rigid types (rigidtypes) and resource
terms (derivation) are immutable trees built bottom-up.  Their classes
derive from Node, and building a node first looks its class and fields up
in one table: if an equal node exists, that node is returned.  So equal
trees are the same object, equality is identity, and a node hashes by its
id in constant time whatever its depth.  A lookup hashes and compares only
the node's own fields, which are strings, None, interned nodes or tuples
of interned nodes.

A node class declares its fields as annotations, in order, and a trailing
field may have a default given in the class body, as Lam's annot = None.
The metaclass makes them the class's __slots__ and __match_args__ and binds
a node's arguments to them, by position and by name, itself: no method is
generated when the package is imported, so it needs neither dataclasses
nor inspect.  Nothing assigns to a node once it is built: Node's
__setattr__ and __delattr__ raise AttributeError, and only a fact or a
memo is written, through object.__setattr__.  The package's other values,
such as a typing context or a witness report, are Records: a class that
lists its fields in __slots__ and writes them in its own __init__, whose
records compare and hash by their fields and are not assigned to either.

The table holds its nodes weakly: a node lives as long as something else
holds it, and its entry goes when it dies.  A dict never gives back the
capacity it grew to, so once the live entries fall to a quarter of the
most the table has held, the dict is rebuilt in place, and one large
query leaves no peak-sized table behind.

A fact is a pure function of one node, such as a type's canonical form or
a resource term's result type.  A function decorated with @fact computes
its value once per node and keeps it in a slot of the node named after the
function.  The node's family declares that slot: an intermediate base
between Node and the family's classes whose __slots__ names its facts.  A
fact lives in its node, so it dies with it; no table outside the nodes
keeps one.  A fact never points back at its node: a value that is the node
itself is kept as a marker, so no fact makes a reference cycle that only
the cyclic collector could free.

A family may also declare a slot _memo, read through memo: a dict of
values that depend on more than the node, each under a key naming what it
depends on, such as the coefficient wrel found at a normal form or the
type annotate found for it under given variable types.  Its owners check
that a value still applies before they use it, and like a fact a value
never points back at its node.

Each parser of the package's notations keeps the last TEXTS_KEPT texts
it read, with what each parsed to, in a functools.lru_cache, which drops
the least recently read.  A text that fails to parse raises and is not
kept.  So one rule says what a process keeps: a node's derived state
lives on the node and dies with it, each parser keeps its last
TEXTS_KEPT texts, which keep what they parsed to alive, and what a call
derives for itself alone dies with the call.  A query whose text was
dropped is answered afresh.  A node keeps only what a later query reads:
the answer a query kept, in counts alone (collapse's witness count,
classes and degrees and its triple count, and wrel's coefficient at the
normal form), and the facts.  What a call derives for itself alone are
every subproblem the witness enumerator (derivation) solves and every
subproblem of the coefficient recursion, each kept in a table of the
call's; the labels an enumeration gives a bag value; the normal form's
trace, along which the witnesses are read back; the derivations of the
normal form, which a query partitions and counts, and the witnesses read
back from them, which a report holds only while its caller does.
"""

from __future__ import annotations

from functools import wraps
from operator import attrgetter
from weakref import ref


class _Entry(ref):
    """A weak reference to an interned node, with the node's key."""

    __slots__ = ("key",)


# (class, *fields) -> a weak reference to the one node with those fields
_table: dict[tuple, _Entry] = {}

# the most texts a parser keeps
TEXTS_KEPT = 4096

# a fact slot not filled yet, and one whose fact is the node itself
_UNSET = object()
_SELF = object()


def _dropper(table: dict):
    """The callback that removes a dead node's entry from table.  It holds
    table itself, so that nodes dying while the interpreter tears the
    module down still find it, and the most entries table has held since
    it was last rebuilt."""
    peak = 0

    def drop(entry: _Entry) -> None:
        nonlocal peak
        # a new node may already sit under the dead one's key
        if table.get(entry.key) is not entry:
            return
        size = len(table)
        if size > peak:
            peak = size
        del table[entry.key]
        if size <= peak // 4:
            # a dict keeps the capacity of its peak, so once three quarters
            # of its entries are gone it is rebuilt in place, where drop
            # finds it.  Copying it allocates, and a collection that starts
            # then may drop entries the copy already took: it is copied
            # again.  Clearing and refilling it allocates nothing a
            # collection counts and frees no entry, since the copy holds
            # them all, so no callback runs between the two.
            peak = size - 1
            live = table.copy()
            while len(live) != len(table):
                live = table.copy()
            table.clear()
            table.update(live)

    return drop


_drop = _dropper(_table)


class _Interning(type):
    """The metaclass of Node.  A subclass that declares __slots__ itself is
    a family's base, and its slots are facts.  Any other subclass is a
    node class: its annotations, in order, name its fields, which become
    its __slots__ and its __match_args__, and a value given in the class
    body is the field's default, which only trailing fields may have.  No
    method is generated: building a node binds its arguments to the fields
    by position and by name here, fills the defaults, and returns the
    interned node, and the node's class compares and hashes by identity."""

    def __new__(mcls, name, bases, namespace):
        if "__slots__" in namespace:
            return super().__new__(mcls, name, bases, namespace)
        fields = tuple(namespace.get("__annotations__", ()))
        defaults = {f: namespace.pop(f) for f in fields if f in namespace}
        if tuple(defaults) != fields[len(fields) - len(defaults):]:
            raise TypeError(f"{name}: a field without a default follows one with a default")
        namespace["__slots__"] = namespace["__match_args__"] = fields
        cls = super().__new__(mcls, name, bases, namespace)
        cls._defaults = defaults
        facts = tuple(s for base in cls.__mro__[1:]
                      for s in base.__dict__.get("__slots__", ()) if s != "__weakref__")
        # a new node gets its fields, then every fact slot unfilled; a
        # slot's own setter skips Node.__setattr__
        cls._setters = tuple(getattr(cls, s).__set__ for s in fields + facts)
        cls._unset = (_UNSET,) * len(facts)
        return cls

    def __call__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls.__match_args__):
            args = cls._bind(args, kwargs)
        key = (cls,) + args
        entry = _table.get(key)
        node = entry() if entry is not None else None
        if node is None:
            node = object.__new__(cls)
            for set_slot, value in zip(cls._setters, args + cls._unset):
                set_slot(node, value)
            entry = _table[key] = _Entry(node, _drop)
            entry.key = key
        return node

    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The fields' values, in order, from positional and keyword
        arguments and the defaults, as a call to a function whose
        parameters are the fields binds them."""
        fields = cls.__match_args__
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} positional arguments"
                            f" but {len(args)} were given")
        values = dict(zip(fields, args))
        for f, value in kwargs.items():
            if f not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {f!r}")
            if f in values:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {f!r}")
            values[f] = value
        missing = [f for f in fields if f not in values and f not in cls._defaults]
        if missing:
            raise TypeError(f"{cls.__name__}() missing required arguments: {', '.join(missing)}")
        return tuple(values[f] if f in values else cls._defaults[f] for f in fields)


class Node(metaclass=_Interning):
    """An interned tree node.  Its fields are its __match_args__, in order.
    Nothing assigns to a node once it is built: a fact or a memo is written
    through object.__setattr__."""

    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}: it is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}: it is immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class Record:
    """A value of named fields, which its class lists in __slots__ and its
    own __init__ writes once, through object.__setattr__.  Two records of
    one class with equal fields are equal and hash alike, and a record
    prints as Name(field=value, ...), as a node does.  A slot whose name
    starts with an underscore holds a cache, which is not compared, hashed
    or printed, and which its class fills through object.__setattr__; the
    other slots are the record's __match_args__."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls.__match_args__ = tuple(s for s in cls.__slots__ if not s.startswith("_"))

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__match_args__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    __setattr__ = Node.__setattr__
    __delattr__ = Node.__delattr__
    __repr__ = Node.__repr__


def fact(fn):
    """Keep fn(node) in the node's slot named fn.__name__, computed on the
    first call for that node.  On anything without that slot, fn runs
    uncached and reports the argument it cannot take."""
    name = fn.__name__
    read = attrgetter(name)

    @wraps(fn)
    def get(node):
        try:
            value = read(node)
        except AttributeError:
            return fn(node)
        if value is _UNSET:
            value = fn(node)
            object.__setattr__(node, name, _SELF if value is node else value)
            return value
        return node if value is _SELF else value

    return get


def memo(node: Node) -> dict:
    """The dict in the node's slot _memo, empty until something is kept
    in it."""
    value = node._memo
    if value is _UNSET:
        value = {}
        object.__setattr__(node, "_memo", value)
    return value
