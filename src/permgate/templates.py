"""Identity templates over a group-closed gate library.

A template is a gate sequence whose left-to-right composition (leftmost
applied first) is the identity.  Any circuit window matching a majority of
a template, read cyclically, can be rewritten into the inverse of the
remainder; this module picks the rewrite, the circuit module splices it.

Since left-multiplication by a fixed element permutes a group, every row
and column of the multiplication table covers the whole library, which is
what makes the two-gate count |L| and the per-expansion count |L| exact.

Two templates are treated as the same when one is a cyclic rotation of the
other, or a cyclic rotation of the other reversed with every gate
inverted; both symmetries send identity words to identity words.

Generation, loading and matching work on integers.  Each store keeps a
GateTable, in which every distinct gate it meets is interned once, and
holds its templates as words: tuples of those indices.  Generation
interns the library first, in order, and reads its whole multiplication
table, the closure check; a loaded store's table grows on demand.
Verification, degeneracy, deduplication and subsumption are walks and
lookups in that table, and a Permutation is built once per distinct
gate rather than once per candidate.

Each store also keeps one set holding every cyclic rotation of every
stored word.  A word's symmetry orbit is its rotations and those of its
reversed elementwise inverse, so a word is already stored up to symmetry
exactly when it, or its reversed inverse, is in the set: one or two
hashes, whatever order the indices come in.  Storing a template of n
gates adds its n rotations, each built by one itemgetter per rotation
and word length.  Generation inverts each candidate from its parent's
reversed inverse, and walks no candidate under 6 gates for stored
factors, since such a candidate cannot contain one.  Loading maps each
line's gate texts to indices in one step and parses a gate text only
the first time it turns up, after refusing, unless forced, a line of
more than MAX_TEMPLATE_SIZE gates by its length alone.

Loading verifies every line but keeps the words in file order and leaves
the deduplication to the first read of the store's contents (its length,
its templates, its file text, a subsumption walk).  The rewrite scan
reads none of these: it ranks the words as they stand, and a line that
repeats an earlier one up to symmetry ranks after it and never wins a
lookup (_RewriteScan gives the proof), so optimizing with a loaded store
builds no rotation at all.

Every stored word composes to the identity, so the rewrite scan's lookup
keys the p gates from an offset by the inverse of the m - p gates after
them: the identity for p = m, one inverse for p = m - 1, and a product
only for the words of 5 or more gates.  For 3 and 4 gates, p = m - 1 is
the only key besides the identity, so the build stops reading the words
of such a length once its lookup holds the inverse of every gate they
use.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
import warnings
from collections import Counter
from dataclasses import dataclass

from .errors import (CapExceeded, ClosureError, DimensionError,
                     FileFormatError, _int, _read_ascii, check_cap)
from .gatetable import GateTable
from .perm import Permutation, _product, enumerate_permutations

MULT_TABLE_CAP = 720  # |S_6|
MAX_TEMPLATE_SIZE = 6
DEFAULT_STORE_BUDGET = 50_000


class GateLibrary:
    """An ordered set of named, distinct permutations of one dimension."""

    def __init__(self, dimension: int, named_gates: list[tuple[str, Permutation]]):
        if dimension < 1:
            raise DimensionError(f"invalid dimension {dimension}")
        names = [n for n, _ in named_gates]
        gates = [g for _, g in named_gates]
        if len(set(names)) != len(names):
            raise ValueError("duplicate gate names in library")
        if len(set(gates)) != len(gates):
            raise ValueError("duplicate permutations in library")
        for name, g in named_gates:
            if g.size != dimension:
                raise DimensionError(
                    f"gate {name!r} has dimension {g.size}, library is {dimension}"
                )
        self.dimension = dimension
        self.names = tuple(names)
        self.gates = tuple(gates)
        self._index = {g: i for i, g in enumerate(gates)}

    @classmethod
    def symmetric_group(cls, dimension: int, force: bool = False) -> "GateLibrary":
        """The full library S_dimension, gates named by one-line notation;
        past the multiplication table's cap it is refused unless force is
        set, before any gate is built."""
        # dimension! may be too large to compute, and 7! already passes the cap
        check_cap(math.prod(range(2, min(dimension, 7) + 1)) > MULT_TABLE_CAP,
                  force, f"multiplication table for the {dimension}! gates of "
                  f"S_{dimension}", MULT_TABLE_CAP)
        return cls(dimension, [(p.one_line(), p)
                               for p in enumerate_permutations(dimension, force)])

    def __len__(self) -> int:
        return len(self.gates)

    def __contains__(self, gate: Permutation) -> bool:
        return gate in self._index

    def index_of(self, gate: Permutation) -> int:
        return self._index[gate]


def multiplication_table(library: GateLibrary, force: bool = False) -> list[list[int]]:
    """table[i][j] = library index of gates[i] * gates[j].

    Requires a group-closed library; raises ClosureError naming the first
    missing product otherwise.  Closure under products is enough: in a
    finite set closed under products every gate's powers cycle back to the
    identity, so its inverse is one of them.  Every row and column is a
    permutation of the library indices.
    """
    table = GateTable(library.dimension)
    _fill_library_table(table, library, force)
    return [list(row.values()) for row in table.mul]


def _fill_library_table(table, library: GateLibrary, force: bool) -> None:
    """Intern the library's gates, in order, into the empty `table` and
    compute every product of two of them, row by row, in its memo; raises
    ClosureError at the first product outside the library."""
    check_cap(len(library) > MULT_TABLE_CAP, force,
              f"multiplication table for {len(library)} gates", MULT_TABLE_CAP)
    for g in library.gates:
        table.intern(g)
    n = len(library)
    for na, row in zip(library.names, table.mul[:n]):
        for b, nb in enumerate(library.names):
            if row[b] >= n:
                raise ClosureError(f"product {na!r} * {nb!r} = "
                                   f"{table.perms[row[b]].one_line()} "
                                   f"is not in the library")


@dataclass(frozen=True)
class Template:
    """A gate sequence meant to compose to the identity.

    Construction only fixes dimension and length; whether the sequence
    actually composes to the identity is checked by verifies(), and
    parse_store refuses lines that do not.
    """

    gates: tuple[Permutation, ...]

    def __post_init__(self):
        if len(self.gates) < 2:
            raise ValueError("a template needs at least 2 gates")
        dims = {g.size for g in self.gates}
        if len(dims) != 1:
            raise DimensionError(f"mixed gate dimensions in template: {sorted(dims)}")

    @property
    def dimension(self) -> int:
        return self.gates[0].size

    def __len__(self) -> int:
        return len(self.gates)

    def composition(self) -> Permutation:
        """Leftmost gate applied first."""
        return _product(self.gates, self.dimension)

    def verifies(self) -> bool:
        return self.composition().is_identity()

    def is_degenerate(self) -> bool:
        """Contains the identity gate, or (beyond length 2) a cyclically
        adjacent mutually-inverse pair.  Permutation-level reference for
        the candidates generate_templates skips; a store accepts these."""
        if any(g.is_identity() for g in self.gates):
            return True
        if len(self.gates) == 2:
            return False
        n = len(self.gates)
        return any(self.gates[(k + 1) % n] == self.gates[k].inverse()
                   for k in range(n))

    def _orbit(self):
        seqs = [self.gates]
        seqs.append(tuple(g.inverse() for g in reversed(self.gates)))
        for seq in list(seqs):
            for r in range(1, len(seq)):
                seqs.append(seq[r:] + seq[:r])
        return seqs

    def canonical_key(self) -> tuple[tuple[int, ...], ...]:
        """Smallest image-tuple sequence over rotations and the reversed
        elementwise-inverse; templates with equal keys are equivalent."""
        return min(tuple(g.images for g in seq) for seq in self._orbit())

    def one_line(self) -> str:
        return ";".join(g.one_line() for g in self.gates)

    def __repr__(self) -> str:
        return f"Template[{self.one_line()}]"


def two_gate_templates(library: GateLibrary) -> list[Template]:
    """One (U, U^-1) template per library gate, library order.

    Permutation-level reference for generate_templates' first level, which
    expands the one-gate identity word on library indices.

    The identity gate contributes the degenerate (I, I); it is kept here so
    the count equals |library| exactly, and dropped at store level.
    """
    out = []
    for name, g in zip(library.names, library.gates):
        inv = g.inverse()
        if inv not in library:
            raise ClosureError(f"inverse of {name!r} is not in the library")
        out.append(Template((g, inv)))
    return out


def expand_template(t: Template, position: int, library: GateLibrary) -> list[Template]:
    """Replace the gate at `position` by every two-gate factorization.

    For target gate g there are exactly |library| ordered pairs (u, v) with
    v * u = g (u free, v = g * u^-1), so the result always has |library|
    entries, degenerate factorizations included.  Permutation-level
    reference for generate_templates' expansion step.
    """
    if not 0 <= position < len(t.gates):
        raise IndexError(f"position {position} out of range for {len(t.gates)} gates")
    if t.dimension != library.dimension:
        raise DimensionError(
            f"template dimension {t.dimension} != library dimension {library.dimension}"
        )
    target = t.gates[position]
    out = []
    for u in library.gates:
        v = target * u.inverse()
        if v not in library:
            raise ClosureError(
                f"factor {v.one_line()} of {target.one_line()} is not in the library"
            )
        seq = t.gates[:position] + (u, v) + t.gates[position + 1:]
        out.append(Template(seq))
    return out


class TemplateStore:
    """Deduplicated set of verified templates (degenerate ones too, from
    parse_store; generate_templates skips them).

    Words enter only through generate_templates or parse_store, so a
    hand-built store is store file text and gets every check a file gets.
    They are held as index words over the store's gate table, which is
    what every check, the store file and the rewrite scan read;
    ``templates`` gives them as Template objects, in the same order, in a
    new list on each access.  ``x in store`` raises TypeError.

    parse_store hands over its verified words in file order, duplicates
    and all.  The first read of the store's contents (``len``,
    ``templates``, format_store or save_store, the subsumption walk) keeps
    the first line of each symmetry class, in order, and builds the
    rotation set, once however many threads read at the same time.  The
    rewrite scan does not wait for it: duplicates change none of its
    rewrites (see _RewriteScan), so optimize with a loaded store skips
    that work.
    """

    def __init__(self, dimension: int):
        if dimension < 1:
            raise DimensionError(f"invalid dimension {dimension}")
        self.dimension = dimension
        self.complete = True
        self._table = GateTable(dimension)
        self._words: list[tuple[int, ...]] = []
        self._rotations: set[tuple[int, ...]] = set()  # of all stored words
        # parse_store's words in file order, until the first read keeps the
        # first of each class in _words; never changed while it is set
        self._as_read: list[tuple[int, ...]] | None = None
        # a lock of its own: the table's is taken by inv[...] in _known
        self._dedup_lock = threading.Lock()

    def _deduplicated(self) -> list[tuple[int, ...]]:
        """The stored words, deduplicating parse_store's on first use."""
        if self._as_read is not None:
            with self._dedup_lock:
                as_read = self._as_read
                if as_read is not None:
                    for word in as_read:
                        if not self._known(word):
                            self._insert(word)
                    self._as_read = None  # published last
        return self._words

    @property
    def templates(self) -> list[Template]:
        perms = self._table.perms
        return [Template(tuple([perms[i] for i in word]))
                for word in self._deduplicated()]

    def __len__(self) -> int:
        return len(self._deduplicated())

    def _known(self, word: tuple[int, ...]) -> bool:
        """The word is stored up to rotation and reversal with inverses."""
        rotations = self._rotations
        if word in rotations:
            return True
        inv = self._table.inv
        return tuple([inv[g] for g in reversed(word)]) in rotations

    def _insert(self, word: tuple[int, ...]) -> None:
        self._rotations.update([rotate(word) for rotate in _rotators(len(word))])
        self._words.append(word)

    def _subsumes(self, word: tuple[int, ...]) -> bool:
        if self._as_read is not None:
            self._deduplicated()
        table = self._table
        mul, e = table.mul, table.identity
        n = len(word)
        cyclic = word + word
        for offset in range(n):
            acc = word[offset]
            for size in range(2, n):
                acc = mul[cyclic[offset + size - 1]][acc]
                if acc == e and self._known(cyclic[offset:offset + size]):
                    return True
        return False


@functools.lru_cache(maxsize=16)
def _rotators(n: int) -> tuple[operator.itemgetter, ...]:
    """One itemgetter per cyclic rotation of an n-gate word, n >= 2 (with
    one index an itemgetter returns the bare item, not a tuple)."""
    return tuple(operator.itemgetter(*range(k, n), *range(k)) for k in range(n))


class _RewriteScan:
    """The rewrite lookup of one store; match picks each rewrite.

    ``ranked`` holds the store's words as they stand, longest first, store
    order within a length: a loaded store's lines as read, duplicates and
    all, until something reads its contents, the deduplicated words after.
    The scan tries them in that order.  ``first[p][g]`` is the smallest
    (rank, offset) whose p cyclically consecutive gates from ``offset``
    compose to table index g, over every strict majority p (m // 2 < p <= m)
    of every word of length m.  So for a window of p gates composing to g,
    one lookup per p answers what the template-by-template scan would find
    first at that p, and one of g^-1 what it would find reading backwards.

    A stored word composes to the identity, so its p gates from ``offset``
    compose to the inverse of the m - p gates after them, and each entry is
    keyed by that short remainder: p = m is the identity, p = m - 1 the
    inverse of one gate, and only words of 5 or more gates need a product,
    built by prepending the next inverted gate as p steps down.  Words of
    3 or 4 gates have no other strict majority, and their keys at p = m - 1
    are inverses of their gates; so the build reads the words of such a
    length in rank order only until ``first[m - 1]`` holds the inverse of
    every gate they use, since each later word would add nothing.

    Duplicates change no rewrite.  match takes the least hit by rank, then
    largest p, then forward before backwards, and first[p] holds each key's
    least (rank, offset), so match returns the least of all hits, every
    offset of every word at every p and in both directions: a hit is p gates
    of a word from an offset composing to the window product (forward) or
    its inverse (backwards).  A line repeating an earlier one up to symmetry
    repeats its class's first line, the one the deduplication keeps: that
    original has its length and comes before it in the file, so it ranks
    before it.  A rotation duplicate has exactly its original's keys: its p
    gates from an offset are the original's from another offset.  A
    reversed-inverse duplicate's p gates from an offset are p consecutive
    gates of the original read backwards and inverted, so its forward key k
    is the original's key inv[k] at the same p; the window that hits k in
    one direction hits inv[k] in the other.  So each hit on a duplicate
    loses to a hit on its original at the same p and a smaller rank.  The
    kept words rank in the same order with or without the duplicates between
    them, so the least hit, and with it every match result, is the one the
    deduplicated words give.  first may also hold a key only a
    reversed-inverse duplicate has, which loses the same way; and the
    3/4-gate early stop counts the gates of every word of the length,
    duplicates included, so it still ends only once every key that could be
    added is present.
    """

    def __init__(self, store: TemplateStore):
        self.table = table = store._table
        as_read = store._as_read  # read once: a whole list either way
        self.ranked = sorted(store._words if as_read is None else as_read,
                             key=len, reverse=True)
        self.longest = len(self.ranked[0]) if self.ranked else 0
        self.first: list[dict[int, tuple[int, int]]] = [
            {} for _ in range(self.longest + 1)]
        if not self.ranked:
            return  # interns no identity, whatever the store's dimension
        mul, inv, e, first = table.mul, table.inv, table.identity, self.first
        sizes = Counter(map(len, self.ranked))
        start = 0
        for m in sorted(sizes, reverse=True):  # the ranks of one length at a time
            stop = start + sizes[m]
            words = self.ranked[start:stop]
            if e not in first[m]:
                first[m][e] = (start, 0)
            if 3 <= m <= 4:
                # offset k's one key besides e is the inverse of gate k - 1
                lookup = first[m - 1]
                missing = len({inv[g] for g in set().union(*words)}
                              .difference(lookup))
                for rank, word in enumerate(words, start):
                    if not missing:
                        break
                    for offset in range(m):
                        key = inv[word[offset - 1]]
                        if key not in lookup:
                            lookup[key] = (rank, offset)
                            missing -= 1
            elif m >= 5:
                for rank, word in enumerate(words, start):
                    cyclic = word + word
                    for offset in range(m):
                        p = m - 1
                        acc = inv[cyclic[offset + p]]
                        while True:
                            lookup = first[p]
                            if acc not in lookup:
                                lookup[acc] = (rank, offset)
                            p -= 1
                            if p <= m // 2:
                                break
                            acc = mul[inv[cyclic[offset + p]]][acc]
            start = stop

    def match(self, perms) -> tuple[int, list[Permutation]] | None:
        """(p, the replacement in circuit order) for the first p of `perms`,
        the permutations of a run of at most ``longest`` same-wire gates, or
        None.  A word read backwards with its gates inverted is an identity
        too: p gates composing to the inverse of p consecutive gates of a
        word match that reading, and are replaced by the remainder as stored
        instead of inverted and reversed.  The order is best rank, largest
        p, forward before backwards, then first offset into the stored word.
        """
        table = self.table
        intern, mul, inv, first = table.intern, table.mul, table.inv, self.first
        acc = intern(perms[0])  # the window product, interning new gates
        best = None
        for p, perm in enumerate(perms[1:], 2):
            acc = mul[intern(perm)][acc]
            for reverse, key in ((False, acc), (True, inv[acc])):
                hit = first[p].get(key)
                # hits come by p, at each p the forward reading first
                if hit is not None and (best is None or hit[0] < best[0] or (
                        hit[0] == best[0] and p > best[2])):
                    best = (*hit, p, reverse)
        if best is None:
            return None
        rank, offset, p, reverse = best
        word = self.ranked[rank]
        rest = (word + word)[offset + p:offset + len(word)]
        if reverse:
            return p, [table.perms[g] for g in rest]
        return p, [table.perms[table.inv[g]] for g in reversed(rest)]


def generate_templates(
    library: GateLibrary,
    max_size: int,
    max_templates: int = DEFAULT_STORE_BUDGET,
    force: bool = False,
) -> TemplateStore:
    """Breadth-first template generation up to max_size gates.

    Starts from the one-gate identity word, whose expansions are the
    two-gate templates, and repeatedly expands every template of the last
    level at every position, keeping candidates that verify, are not
    degenerate, are new up to symmetry, and do not contain a shorter stored
    template as a contiguous cyclic factor.  If the store budget is hit the
    result is returned partial with complete=False and a warning.

    The search runs on library indices: (u, v) replaces gate g with
    v = mul[g][inv[u]] for every u, in library order, exactly as
    expand_template does on permutations.  The multiplication table is the
    closure check, and force overrides its MULT_TABLE_CAP.
    """
    if not 2 <= max_size <= MAX_TEMPLATE_SIZE:
        raise ValueError(f"max_size {max_size} out of range 2..{MAX_TEMPLATE_SIZE}")
    store = TemplateStore(library.dimension)
    table = store._table
    _fill_library_table(table, library, force)
    mul, inv, e = table.mul, table.inv, table.identity
    stored = store._words

    def try_add(word: tuple[int, ...], back: tuple[int, ...]) -> bool:
        # back is word reversed with every gate inverted.  A candidate is an
        # identity word with no identity gate and no cyclically adjacent
        # inverse pair.  If a cyclic factor of s gates composes to the
        # identity, so does its complement of n - s gates, so a shorter
        # identity factor needs s >= 3 and n - s >= 3: below 6 gates no
        # candidate can contain a stored template.
        if word in rotations or back in rotations or (
                len(word) >= 6 and store._subsumes(word)):
            return False
        store._insert(word)
        return True

    rotations = store._rotations
    pairs = [(u, inv[u]) for u in range(len(library))]
    frontier = [(e,)]  # its expansions are the two-gate templates (u, u^-1)
    for _ in range(2, max_size + 1):
        next_frontier = []
        for word in frontier:
            back = tuple([inv[g] for g in reversed(word)])
            for position, target in enumerate(word):
                head, tail, row = word[:position], word[position + 1:], mul[target]
                # back is tail's reversed inverse, inv[target], head's
                tail_back, head_back = back[:len(tail)], back[len(tail) + 1:]
                # a stored word has no identity gate and no adjacent inverse
                # pair off the split gate, and v * u = target is not e, so a
                # candidate is degenerate only where u or v is e or the
                # inverse of its outer neighbour; in the start word (e,),
                # before = after = e and (u, u^-1) is degenerate only at u = e
                before = inv[word[position - 1]]
                after = inv[word[(position + 1) % len(word)]]
                for u, inv_u in pairs:
                    if len(stored) >= max_templates:
                        store.complete = False
                        warnings.warn(
                            f"template store budget of {max_templates} "
                            f"reached; result is partial")
                        return store
                    v = row[inv_u]
                    if u == e or v == e or u == before or v == after:
                        continue
                    cand = head + (u, v) + tail
                    if try_add(cand, tail_back + (inv[v], inv_u) + head_back):
                        next_frontier.append(cand)
        frontier = next_frontier
    return store


def format_store(store: TemplateStore) -> str:
    """Store file text: a dim header then one 'template:' line per entry,
    sorted by size then text for stable output."""
    texts = [p.one_line() for p in store._table.perms]
    lines = [f"templates dim={store.dimension}"]
    body = sorted((len(w), ";".join([texts[i] for i in w]))
                  for w in store._deduplicated())
    lines.extend(f"template: {text}" for _, text in body)
    return "\n".join(lines) + "\n"


def parse_store(text: str, force: bool = False) -> TemplateStore:
    """Inverse of format_store; every line must verify to identity.

    The header's M is read by errors._int.  A line of more than
    MAX_TEMPLATE_SIZE gates is refused by check_cap unless force is set,
    before its gate texts are read.  Each distinct gate text is parsed
    (and validated) once and interned in the store's gate table; every
    line is then verified as an index word, and the words are kept in
    file order for the store to deduplicate on first read.  Raises
    FileFormatError with the 1-based line number (lines as str.splitlines
    splits them) on any malformed, non-identity or refused line.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("templates dim="):
        raise FileFormatError(1, "expected header 'templates dim=<M>'")
    try:
        store = TemplateStore(_int(lines[0].split("=", 1)[1].strip(), "dimension"))
    except DimensionError as exc:
        raise FileFormatError(1, str(exc)) from None
    except ValueError:
        raise FileFormatError(1, f"bad dimension in header {lines[0]!r}") from None
    # gate text as split, spaces included -> table index, or None for a gate
    # of another dimension; each text is stripped and parsed on first sight
    seen: dict[str, int | None] = {}
    index_of, dimension, table = seen.__getitem__, store.dimension, store._table
    verifies, words = table.is_identity_word, []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith("template:"):
            raise FileFormatError(lineno, f"expected 'template:' line, got {raw!r}")
        parts = line[9:].lstrip().split(";")  # 9 == len("template:")
        try:
            if len(parts) > MAX_TEMPLATE_SIZE:
                check_cap(True, force, f"a template of {len(parts)} gates",
                          f"{MAX_TEMPLATE_SIZE} gates")
            try:
                word = tuple(map(index_of, parts))
            except KeyError:
                for part in parts:
                    if part not in seen:
                        perm = Permutation.from_one_line(part.strip())
                        seen[part] = (table.intern(perm)
                                      if perm.size == dimension else None)
                word = tuple(map(index_of, parts))
            if None in word:
                raise ValueError(f"gate dimension differs from dim={dimension}")
            if len(word) < 2:
                raise ValueError("template needs at least 2 gates")
            if not verifies(word):
                raise ValueError(
                    f"template does not compose to identity: {table.text(word)}")
        except (CapExceeded, ValueError) as exc:
            raise FileFormatError(lineno, str(exc)) from None
        words.append(word)
    store._as_read = words
    return store


def save_store(store: TemplateStore, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_store(store))


def load_store(path, force: bool = False) -> TemplateStore:
    return parse_store(_read_ascii(path), force)
