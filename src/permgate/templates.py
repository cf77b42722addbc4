"""Identity templates over a group-closed gate library.

A template is a gate sequence whose left-to-right composition (leftmost
applied first) is the identity.  Any circuit window matching a majority of
a template, read cyclically, can be rewritten into the inverse of the
remainder; generation here, application lives in the circuit module.

Since left-multiplication by a fixed element permutes a group, every row
and column of the multiplication table covers the whole library, which is
what makes the two-gate count |L| and the per-expansion count |L| exact.

Two templates are treated as the same when one is a cyclic rotation of the
other, or a cyclic rotation of the other reversed with every gate
inverted; both symmetries send identity words to identity words.
"""

from __future__ import annotations

from dataclasses import dataclass

import warnings

from .errors import (CapExceeded, ClosureError, DimensionError,
                     FileFormatError, _read_ascii)
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
        """The full library S_dimension, gates named by one-line notation."""
        return cls(dimension, [(p.one_line(), p)
                               for p in enumerate_permutations(dimension, force)])

    def __len__(self) -> int:
        return len(self.gates)

    def __contains__(self, gate: Permutation) -> bool:
        return gate in self._index

    def index_of(self, gate: Permutation) -> int:
        return self._index[gate]

    def require_group_closed(self) -> None:
        """Check closure under composition and inverse."""
        for name, g in zip(self.names, self.gates):
            if g.inverse() not in self._index:
                raise ClosureError(f"inverse of {name!r} is not in the library")
        for na, a in zip(self.names, self.gates):
            for nb, b in zip(self.names, self.gates):
                if a * b not in self._index:
                    raise ClosureError(
                        f"product {na!r} * {nb!r} = {(a * b).one_line()} "
                        f"is not in the library"
                    )


def multiplication_table(library: GateLibrary, force: bool = False) -> list[list[int]]:
    """table[i][j] = library index of gates[i] * gates[j].

    Requires a group-closed library; raises ClosureError naming the first
    missing product otherwise.  Every row and column is a permutation of
    the library indices.
    """
    if len(library) > MULT_TABLE_CAP and not force:
        raise CapExceeded(
            f"multiplication table for {len(library)} gates refused: cap is "
            f"{MULT_TABLE_CAP}; pass force=True to override"
        )
    table = []
    for na, a in zip(library.names, library.gates):
        row = []
        for nb, b in zip(library.names, library.gates):
            prod = a * b
            if prod not in library:
                raise ClosureError(
                    f"product {na!r} * {nb!r} = {prod.one_line()} "
                    f"is not in the library"
                )
            row.append(library.index_of(prod))
        table.append(row)
    return table


@dataclass(frozen=True)
class Template:
    """A gate sequence meant to compose to the identity.

    Construction only fixes dimension and length; whether the sequence
    actually composes to the identity is checked by verifies(), and stores
    refuse sequences that do not.
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
        adjacent mutually-inverse pair."""
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
    entries, degenerate factorizations included.
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
    """Deduplicated set of verified, non-degenerate templates."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise DimensionError(f"invalid dimension {dimension}")
        self.dimension = dimension
        self.templates: list[Template] = []
        self._keys: set = set()
        self.complete = True

    def __len__(self) -> int:
        return len(self.templates)

    def __iter__(self):
        return iter(self.templates)

    def __contains__(self, t: Template) -> bool:
        return t.canonical_key() in self._keys

    def add(self, t: Template) -> bool:
        """Insert unless already present up to symmetry; idempotent."""
        if t.dimension != self.dimension:
            raise DimensionError(
                f"template dimension {t.dimension} != store dimension {self.dimension}"
            )
        if not t.verifies():
            raise ValueError(f"template does not compose to identity: {t.one_line()}")
        key = t.canonical_key()
        if key in self._keys:
            return False
        self._keys.add(key)
        self.templates.append(t)
        return True

    def subsumes(self, t: Template) -> bool:
        """True if t contains a stored shorter template as a contiguous
        cyclic factor."""
        n = len(t.gates)
        for size in range(2, n):
            for off in range(n):
                window = tuple(t.gates[(off + k) % n] for k in range(size))
                cand = Template(window)
                if cand.verifies() and cand.canonical_key() in self._keys:
                    return True
        return False


def generate_templates(
    library: GateLibrary,
    max_size: int,
    max_templates: int = DEFAULT_STORE_BUDGET,
) -> TemplateStore:
    """Breadth-first template generation up to max_size gates.

    Starts from the two-gate templates and repeatedly expands every stored
    template at every position, keeping candidates that verify, are not
    degenerate, are new up to symmetry, and do not contain a shorter stored
    template as a contiguous cyclic factor.  If the store budget is hit the
    result is returned partial with complete=False and a warning.
    """
    if not 2 <= max_size <= MAX_TEMPLATE_SIZE:
        raise ValueError(f"max_size {max_size} out of range 2..{MAX_TEMPLATE_SIZE}")
    library.require_group_closed()
    store = TemplateStore(library.dimension)

    def over_budget() -> bool:
        if len(store) >= max_templates:
            store.complete = False
            warnings.warn(
                f"template store budget of {max_templates} reached; "
                f"result is partial"
            )
            return True
        return False

    def try_add(t: Template) -> bool:
        if t.is_degenerate() or t in store or store.subsumes(t):
            return False
        return store.add(t)

    frontier = []
    for t in two_gate_templates(library):
        if over_budget():
            return store
        if try_add(t):
            frontier.append(t)

    for _ in range(3, max_size + 1):
        next_frontier = []
        for t in frontier:
            for position in range(len(t.gates)):
                for cand in expand_template(t, position, library):
                    if over_budget():
                        return store
                    if try_add(cand):
                        next_frontier.append(cand)
        frontier = next_frontier
    return store


def format_store(store: TemplateStore) -> str:
    """Store file text: a dim header then one 'template:' line per entry,
    sorted by size then text for stable output."""
    lines = [f"templates dim={store.dimension}"]
    body = sorted((len(t.gates), t.one_line()) for t in store.templates)
    lines.extend(f"template: {text}" for _, text in body)
    return "\n".join(lines) + "\n"


def parse_store(text: str) -> TemplateStore:
    """Inverse of format_store; every line must verify to identity.

    Raises FileFormatError with the 1-based line number on any malformed or
    non-identity line.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("templates dim="):
        raise FileFormatError(1, "expected header 'templates dim=<M>'")
    try:
        dimension = int(lines[0].split("=", 1)[1])
    except ValueError:
        raise FileFormatError(1, f"bad dimension in header {lines[0]!r}") from None
    try:
        store = TemplateStore(dimension)
    except DimensionError as exc:
        raise FileFormatError(1, str(exc)) from None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith("template:"):
            raise FileFormatError(lineno, f"expected 'template:' line, got {raw!r}")
        parts = [p.strip() for p in line[len("template:"):].split(";")]
        try:
            gates = tuple(Permutation.from_one_line(p) for p in parts)
        except Exception as exc:
            raise FileFormatError(lineno, str(exc)) from exc
        if any(g.size != dimension for g in gates):
            raise FileFormatError(lineno, f"gate dimension differs from dim={dimension}")
        if len(gates) < 2:
            raise FileFormatError(lineno, "template needs at least 2 gates")
        try:
            store.add(Template(gates))
        except ValueError as exc:
            raise FileFormatError(lineno, str(exc)) from None
    return store


def save_store(store: TemplateStore, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_store(store))


def load_store(path) -> TemplateStore:
    return parse_store(_read_ascii(path))
