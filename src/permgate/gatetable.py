"""Gates interned as small integers, with memoised products and inverses.

A GateTable numbers each distinct permutation of one dimension the first
time it meets it (0, 1, ...).  Template stores hold their templates as
words, tuples of these indices, so checking, deduplicating and matching a
template is a walk of lookups: ``mul[a][b]`` is the index of gate a *
gate b (b applied first), and ``inv[a]`` the index of gate a's inverse.
A missing entry is computed from the two gates' images, and a product
the table has not met is interned on the way, so the table grows on
demand and computes each product and inverse on first use.  Every gate
enters through ``intern``.
"""

from __future__ import annotations

import threading
from functools import cached_property

from .perm import Permutation


class _Row(dict):
    """Row a of a gate table's product memo: row[b] is the index of
    gate a * gate b, computed (and the product interned) on first use."""

    __slots__ = ("_table", "_a")

    def __init__(self, table: "GateTable", a: int):
        super().__init__()
        self._table = table
        self._a = a

    def __missing__(self, b: int) -> int:
        table = self._table
        perms = table.perms
        product = tuple(map(perms[self._a].images.__getitem__, perms[b].images))
        c = table._index.get(product)  # a hit builds no Permutation
        if c is None:
            c = table.intern(Permutation(product))
        self[b] = c
        return c


class _Inverses(dict):
    """inv[a] is the index of the inverse of gate a, computed on first use."""

    __slots__ = ("_table",)

    def __init__(self, table: "GateTable"):
        super().__init__()
        self._table = table

    def __missing__(self, a: int) -> int:
        b = self._table.intern(self._table.perms[a].inverse())
        self[a] = b
        self[b] = a
        return b


class GateTable:
    """The distinct gates of one dimension, interned as indices 0, 1, ...

    An index keeps its gate for the table's lifetime, so memoised
    products and inverses never go stale; the table only grows.
    Interning takes a lock so concurrent users of one store agree on
    every index.  The identity is interned when first used, so a table
    costs nothing until it meets a gate.
    """

    def __init__(self, dimension: int):
        self.dimension = dimension
        self.perms: list[Permutation] = []
        self.mul: list[_Row] = []
        self.inv = _Inverses(self)
        self._index: dict[tuple[int, ...], int] = {}
        self._lock = threading.Lock()

    @cached_property
    def identity(self) -> int:
        return self.intern(Permutation.identity(self.dimension))

    def intern(self, perm: Permutation) -> int:
        """The index of perm, numbering it next if the table has not met it."""
        images = perm.images
        i = self._index.get(images)
        if i is None:
            with self._lock:
                i = self._index.get(images)
                if i is None:
                    i = len(self.perms)
                    self.perms.append(perm)
                    self.mul.append(_Row(self, i))
                    self._index[images] = i  # published last
        return i

    def text(self, word) -> str:
        return ";".join(self.perms[i].one_line() for i in word)

    def is_identity_word(self, word) -> bool:
        """The word composes (leftmost first) to the identity."""
        mul = self.mul
        acc = word[0]
        for g in word[1:]:
            acc = mul[g][acc]
        return acc == self.identity
