"""Reversible-circuit IR, circuit semantics, and the peephole optimizer.

Circuits are ordered gate instances over n wires, leftmost applied first.
Wire w is bit w of the 2**n basis index (wire 0 = least significant).  In
an instance's wire list the first wire carries the gate's most significant
index bit, so `gate CNOT c t` has its control first and `CNOT` itself is
the permutation (1,2,4,3).  Semantics are bitsliced, one Python int per
wire over all 2**n basis indices.  Each distinct gate permutation is
compiled, once per call, into the algebraic normal form of how it changes
each of its bits (XORs of ANDs of its input bits), and each gate instance
XORs those few terms of its wires' old ints into the wires it changes.
circuit_permutation transposes the ints to images.  No circuit code needs
numpy.

equivalent(a, b) simulates neither circuit in full.  It reduces the word
a b^-1, a's gates and then b's in reverse order, each inverted: a gate
slides past gates on other wires, with which it commutes, to the first
earlier gate it shares a wire with, and merges into it when the two are on
the same ordered wires, so a gate and its inverse cancel.  Each step keeps
the word's permutation, and a(s) = b(s) exactly when b^-1(a(s)) = s, so
the first basis index that the reduced word moves is the first one where
a and b differ.  Only the gates left are simulated, and when none is left
nothing is: the check costs what survives of a b^-1, not the circuits'
length.

Rewriting never widens a circuit: identity gates and adjacent
mutually-inverse pairs on the same wires are deleted, and any window
matching a strict majority of a stored identity template (read cyclically,
forward or reversed with every gate inverted) is replaced by the rest of
that template, which is always shorter.  Both passes preserve the circuit's
permutation by construction; the CLI's optimize command re-checks that
with equivalent before it writes the result.

Each pass builds a new list of gates in time linear in its length;
optimize, their one caller, builds one Circuit.

The reader parses each distinct line once per call, checking its wires as
it goes; verify reads its two files in one call, so the second file's
lines that the first already held cost one lookup each.  Within a call it
also reads each distinct wire token and each distinct `perm` notation
once.  equivalent inverts each distinct gate object once per call, and
format_circuit builds each distinct gate object's line head once per call.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from typing import TYPE_CHECKING, Iterator

from .errors import (DimensionError, FileFormatError, PermGateError,
                     WiringError, _int, _read_ascii, check_cap)
from .perm import Permutation

if TYPE_CHECKING:  # optimize imports the template engine only for a store
    from .templates import TemplateStore, _RewriteScan

WIRE_CAP = 12
_SPREAD = bytes.maketrans(b"01", b"\0\1")  # a binary digit to a 0/1 byte

BUILTIN_GATES: dict[str, Permutation] = {
    "I": Permutation((0, 1)),
    "X": Permutation((1, 0)),
    "SWAP": Permutation((0, 2, 1, 3)),
    "CNOT": Permutation((0, 1, 3, 2)),
    "TOFFOLI": Permutation((0, 1, 2, 3, 4, 5, 7, 6)),
    "FREDKIN": Permutation((0, 1, 2, 3, 4, 6, 5, 7)),
}
_BUILTIN_NAMES = {perm: name for name, perm in BUILTIN_GATES.items()}


def _qubits(gate: Permutation) -> int:
    """The k qubits a gate acts on; its size must be 2**k with k >= 1."""
    size = gate.size
    if size < 2 or size & (size - 1):
        raise DimensionError(f"gate dimension {size} is not a power of two >= 2")
    return size.bit_length() - 1


@dataclass(frozen=True)
class GateInstance:
    """A gate, its permutation, on wires; the first carries its top bit."""

    gate: Permutation
    wires: tuple[int, ...]

    def __post_init__(self):
        k = _qubits(self.gate)
        if len(self.wires) != k:
            raise WiringError(
                f"gate {_BUILTIN_NAMES.get(self.gate) or self.gate.one_line()} "
                f"needs {k} wires, got {len(self.wires)}"
            )
        if len(set(self.wires)) != len(self.wires):
            raise WiringError(f"repeated wire in {self.wires}")


class Circuit:
    """n wires plus an ordered tuple of gate instances.

    Treat instances as immutable: passes edit a list copy of the gates and
    never touch their input, so circuits are safe to share across threads.
    """

    def __init__(self, n_wires: int, gates=(), force: bool = False):
        if n_wires < 1:
            raise DimensionError(f"invalid wire count {n_wires}")
        # semantics live on 2^n indices
        check_cap(n_wires > WIRE_CAP, force, f"a circuit of {n_wires} wires",
                  f"{WIRE_CAP} wires")
        if n_wires >= sys.maxsize.bit_length():  # even under force
            raise DimensionError(f"{n_wires} wires are too many: the 2^n "
                                 f"basis indices must stay below sys.maxsize")
        self.n_wires = n_wires
        self.gates = tuple(gates)
        for inst in self.gates:
            self._check_wires(inst.wires)

    def _check_wires(self, wires) -> None:
        """Refuse a wire outside 0..n_wires-1; the reader calls it once per
        distinct line, and the reader and optimize set their circuit's gates
        themselves, unchecked again."""
        for w in wires:
            if not 0 <= w < self.n_wires:
                raise WiringError(f"wire {w} out of range 0..{self.n_wires - 1}")

    def __len__(self) -> int:
        return len(self.gates)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Circuit)
                and self.n_wires == other.n_wires
                and self.gates == other.gates)

    def __repr__(self) -> str:
        return f"Circuit(n_wires={self.n_wires}, gates={len(self.gates)})"


def _anf_plan(images) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """How a gate on k local bits changes them, as XORs of ANDs of its
    input bits: the algebraic normal form of x ^ images[x].

    Each entry (first, rest, outputs) is one monomial, the AND of input
    bits `first` and `rest` (`first` is k for the constant monomial 1),
    which every bit in `outputs` XORs in.  The monomials come from the
    Moebius transform over GF(2) of the truth table, run on all output bits
    of each x at once; an identity has no entries.
    """
    size = len(images)
    k = size.bit_length() - 1
    table = [x ^ y for x, y in enumerate(images)]
    bits = [()]  # bits[m] lists the set bits of m, ascending
    for j in range(k):
        h = 1 << j
        for x in range(size):
            if x & h:
                table[x] ^= table[x - h]
        bits += [b + (j,) for b in bits]
    return [(bits[m][0] if m else k, bits[m][1:], bits[v])
            for m, v in enumerate(table) if v]


def _patterns(n_wires: int) -> list[int]:
    """The wire ints before any gate: bit s of wire w's int is bit w of s."""
    size = 2 ** n_wires
    # a base-2 int() is linear in the length; a division form is quadratic
    return [int(("1" * 2 ** w + "0" * 2 ** w) * (size >> w + 1), 2)
            for w in range(n_wires)]


def _wire_ints(start: list[int], gates) -> list[int]:
    """The wire ints `start` after the (images, wires) pairs `gates`: bit s
    of wire w's int is bit w of the image of basis index s.

    Each distinct gate permutation is compiled once per call into its
    _anf_plan, memoised by its images.  A gate reads its wires' old ints
    (its first wire is the top local bit) and XORs each monomial of those
    into the wires it changes: X is one XOR with the all-ones int, CNOT one
    XOR, TOFFOLI one AND and one XOR.
    """
    wires = list(start)
    ones = (1 << 2 ** len(wires)) - 1
    plans: dict = {}
    for images, on in gates:
        plan = plans.get(images)
        if plan is None:
            plan = plans[images] = _anf_plan(images)
        at = on[::-1]  # local bit j is on wire at[j]
        old = [wires[w] for w in at]
        old.append(ones)  # the constant monomial's factor
        for first, rest, outputs in plan:
            term = old[first]
            for j in rest:
                term &= old[j]
            for t in outputs:
                wires[at[t]] ^= term
    return wires


def circuit_permutation(circuit: Circuit) -> Permutation:
    """The circuit's denotation on 2**n basis indices, leftmost gate first:
    each lane of eight wire ints gives one byte of each 64-bit image."""
    size = 2 ** circuit.n_wires
    wires = _wire_ints(_patterns(circuit.n_wires),
                       ((inst.gate.images, inst.wires) for inst in circuit.gates))
    field = bytearray(8 * size)
    for lane in range(0, len(wires), 8):
        byte = sum(int.from_bytes(f"{x:b}".encode().translate(_SPREAD), "big") << j
                   for j, x in enumerate(wires[lane:lane + 8]))
        field[lane // 8::8] = byte.to_bytes(size, "little")
    return Permutation(struct.unpack(f"<{size}Q", field))


def _inverse(images: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse permutation's images, or () for an identity."""
    inv = [0] * len(images)
    for j, img in enumerate(images):
        inv[img] = j
    return () if inv == list(range(len(inv))) else tuple(inv)


def _difference(a: Circuit, b: Circuit
                ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]] | None:
    """The word a b^-1, a's gates and then b's in reverse order, each
    inverted, reduced: an iterator over the (images, wires) pairs left,
    leftmost first, or None when no gate is left.

    A gate commutes past gates on wires it does not touch, so each incoming
    gate slides down to the first earlier live gate it shares a wire with.
    If that gate is on the same ordered wires the two merge into their
    product (the earlier one applied first), and an identity product
    removes both; otherwise the incoming gate is appended.  Identity gates
    are dropped.  Each step keeps the word's permutation.  Each wire keeps
    a stack of its live gates: a removed gate is the latest on every wire
    it has, so finding the partner and removing it take O(k) for a k-wire
    gate.  Two gates cancel exactly when the earlier one's images equal the
    incoming gate's inverse, so a gate of b, which enters inverted, cancels
    a gate with its own images; only a merge that leaves a gate builds a
    product.
    """
    # id of a gate object -> (images, _inverse(images)), once per call; the
    # circuits hold every gate, so no id is reused while the word is built
    known: dict = {}
    images_of: list = []  # per gate of the word; None once removed
    wires_of: list = []
    on_wire = [[-1] for _ in range(a.n_wires)]  # -1: no gate below
    for inverted, gates in ((False, a.gates), (True, reversed(b.gates))):
        for inst in gates:
            pair = known.get(id(inst.gate))
            if pair is None:
                images = inst.gate.images
                pair = known[id(inst.gate)] = images, _inverse(images)
            images, inv = pair
            if not inv:  # an identity
                continue
            gate, undo = (inv, images) if inverted else (images, inv)
            wires = inst.wires
            at = -1  # the latest live gate on these wires; no list is built
            for w in wires:
                if on_wire[w][-1] > at:
                    at = on_wire[w][-1]
            if at >= 0 and wires_of[at] == wires:
                if images_of[at] == undo:
                    images_of[at] = None
                    for w in wires:
                        on_wire[w].pop()
                else:
                    images_of[at] = tuple([gate[j] for j in images_of[at]])
                continue
            at = len(images_of)  # one int, shared by the wires' stacks
            for w in wires:
                on_wire[w].append(at)
            images_of.append(gate)
            wires_of.append(wires)
    # lazily, so the pairs cost no memory beyond the word's two lists
    return (compress(zip(images_of, wires_of), images_of)
            if any(images_of) else None)


def equivalent(a: Circuit, b: Circuit) -> int | None:
    """None when the two circuits have the same permutation, else the first
    basis index they send to different images.

    a(s) = b(s) exactly when b^-1(a(s)) = s, so this is the first basis
    index that the reduced word a b^-1 (see _difference) moves.  Only the
    gates left in it are simulated, and when none is left no 2**n-bit int
    is built at all.
    """
    if a.n_wires != b.n_wires:
        raise DimensionError(
            f"wire counts differ ({a.n_wires} vs {b.n_wires})"
        )
    word = _difference(a, b)
    if word is None:
        return None
    start = _patterns(a.n_wires)
    moved = reduce(int.__or__, map(int.__xor__, _wire_ints(start, word), start))
    return (moved & -moved).bit_length() - 1 if moved else None


def _cancel_inverses(gates) -> list[GateInstance]:
    """Delete identity gates, and adjacent pairs on identical wire lists
    whose permutations are mutual inverses, to fixpoint, as a new list."""
    out: list[GateInstance] = []
    for inst in gates:
        # gates on one wire list have one size, and the pair cancels when the
        # earlier gate maps each image of the later one back to its index
        if (out and out[-1].wires == inst.wires
                and all(out[-1].gate.images[j] == i
                        for i, j in enumerate(inst.gate.images))):
            out.pop()
        elif not inst.gate.is_identity():  # so out holds no identity
            out.append(inst)
    return out


def _template_rewrite(gates: list[GateInstance],
                      scan: _RewriteScan) -> tuple[list[GateInstance], int]:
    """Rewrite windows matching a strict majority of a stored template, to
    fixpoint in one pass; returns the new list and the number of rewrites.
    A window of p same-wire gates equal to p consecutive template gates
    (cyclically, p > m - p) becomes the other m - p inverted in reverse
    order; one equal to their inverse, those m - p as stored.  Each rewrite
    is the first in the fixed order: leftmost window, longest template
    first (then store order), largest match, first cyclic offset.
    `done` holds the gates before the window and `todo` the rest, reversed,
    so the window starts at todo[-1] and no step splices a list."""
    dimension = scan.table.dimension
    longest, match = scan.longest, scan.match
    done: list[GateInstance] = []
    todo = gates[::-1]
    applied = 0
    while todo:
        wires = todo[-1].wires
        perms = [todo[-1].gate]  # of the same-wire run from the window start
        if 2 ** len(wires) == dimension:
            for inst in todo[-2:-longest - 1:-1]:
                if inst.wires != wires:
                    break
                perms.append(inst.gate)
        # a match covers more than half of a template of 2+ gates
        hit = match(perms) if len(perms) > 1 else None
        if hit is None:
            done.append(todo.pop())
            continue
        p, replacement = hit
        del todo[-p:]
        todo += [GateInstance(g, wires) for g in reversed(replacement)]
        applied += 1
        # a window starting before these reads only gates before the old
        # one, which did not change, and it failed in this pass or before
        cut = max(0, len(done) - longest + 1)
        todo += reversed(done[cut:])
        del done[cut:]
    return done, applied


@dataclass
class OptimizeReport:
    gates_before: int
    gates_after: int
    cancelled_gates: int
    template_rewrites: int

    @property
    def removed(self) -> int:
        return self.gates_before - self.gates_after


def optimize(
    circuit: Circuit,
    store: TemplateStore | None = None,
) -> tuple[Circuit, OptimizeReport]:
    """Alternate inverse cancellation and template rewriting to fixpoint."""
    scan = None  # the store's rewrite lookup, for this call only
    if store is not None:
        if store.dimension & (store.dimension - 1):
            raise DimensionError(f"store dimension {store.dimension} is not a power "
                                 f"of two; it can never match a window of qubit gates")
        from .templates import _RewriteScan
        scan = _RewriteScan(store)
    gates = circuit.gates
    cancelled = 0
    rewrites = 0
    while True:
        shrunk = _cancel_inverses(gates)
        cancelled += len(gates) - len(shrunk)
        gates = shrunk
        if scan is None:
            break
        gates, applied = _template_rewrite(gates, scan)
        rewrites += applied
        if applied == 0:
            break
    report = OptimizeReport(
        gates_before=len(circuit.gates),
        gates_after=len(gates),
        cancelled_gates=cancelled,
        template_rewrites=rewrites,
    )
    result = Circuit(circuit.n_wires, force=True)
    result.gates = tuple(gates)  # on wires that circuit's check already passed
    return result, report


# --- circuit file format ---------------------------------------------------
#
#   qubits <n>
#   gate <NAME> <w0> [<w1> ...]
#   perm <one-line-notation> <w0> [<w1> ...]
#
# '#' starts a comment, blank lines are ignored.


def format_circuit(circuit: Circuit) -> str:
    """The circuit's text; each distinct gate object's line head, `gate
    NAME ` or `perm (...) `, is built once per call."""
    lines = [f"qubits {circuit.n_wires}"]
    heads: dict[int, str] = {}  # id of a gate object the circuit holds -> head
    for inst in circuit.gates:
        head = heads.get(id(inst.gate))
        if head is None:
            name = _BUILTIN_NAMES.get(inst.gate)
            head = heads[id(inst.gate)] = (f"gate {name} " if name is not None
                                           else f"perm {inst.gate.one_line()} ")
        lines.append(head + " ".join(map(str, inst.wires)))
    return "\n".join(lines) + "\n"


def parse_circuit(text: str, force: bool = False) -> Circuit:
    """Inverse of format_circuit.  The types check their own rules (wire
    range and arity included); the reader checks only syntax, integers as
    errors._int reads them and a `perm` line's notation as a field of its
    own, the second, and raises any error as FileFormatError naming the
    1-based line, lines as str.splitlines splits them.  A line repeated in
    the text is parsed once."""
    return _parse_circuits([text], force)[0]


def _perm_fields(line: str) -> tuple[str, list[str]]:
    """A `perm` line's notation, from the whitespace after the directive to
    the first `)`, and the wire tokens after it."""
    rest = line[4:].lstrip()
    close = rest.find(")")
    if not rest.startswith("(") or close < 0:
        raise ValueError("missing one-line notation after 'perm'")
    notation, after = rest[:close + 1], rest[close + 1:]
    if after and not after[0].isspace():
        raise ValueError("expected whitespace after the one-line notation")
    return notation, after.split()


def _parse_circuits(texts, force: bool) -> list[Circuit]:
    """parse_circuit of each text, in order, taking the next text only
    after the one before it parsed; every call starts a new memo, shared by
    all its texts, from each raw line to its checked instance (per wire
    count), from each one-line notation to its gate and from each wire
    token to its int.  A line enters the memo only once it has passed every
    check, so a memo hit is a line that parses, and a line that fails is
    parsed, and named, as if alone; a token enters it only once _int has
    read it, and the token's range is checked per line at each width.  A
    `perm` line's second field is its notation when it opens with `(` and
    its one `)` closes it; any other `perm` line goes to _perm_fields."""
    known_by_width: dict[int, dict[str, GateInstance]] = {}
    inline: dict[str, Permutation] = {}
    ints: dict[str, int] = {}  # wire token -> its int; the range is per width
    wire_of = ints.__getitem__
    circuits = []
    for text in texts:
        header = None  # the 'qubits' line's circuit; it takes the gates
        known: dict[str, GateInstance] = {}  # none before the header
        instances: list[GateInstance] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            inst = known.get(raw)
            if inst is None:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                fields = line.split()
                try:
                    if header is None:
                        if fields[0] != "qubits" or len(fields) != 2:
                            raise ValueError("expected header 'qubits <n>'")
                        header = Circuit(_int(fields[1], "wire count"), force=force)
                        known = known_by_width.setdefault(header.n_wires, {})
                        continue
                    if fields[0] == "gate":
                        if len(fields) < 2:
                            raise ValueError("missing gate name")
                        if fields[1] not in BUILTIN_GATES:
                            raise ValueError(f"unknown gate {fields[1]!r}")
                        gate, tokens = BUILTIN_GATES[fields[1]], fields[2:]
                    elif fields[0] == "perm":
                        notation = fields[1] if len(fields) > 1 else ""
                        if notation.startswith("(") and \
                                notation.find(")") == len(notation) - 1:
                            tokens = fields[2:]  # as _perm_fields reads it
                        else:
                            notation, tokens = _perm_fields(line)
                        gate = inline.get(notation)
                        if gate is None:  # its size is refused before its wires
                            gate = Permutation.from_one_line(notation)
                            _qubits(gate)
                            inline[notation] = gate
                    else:
                        raise ValueError(f"unknown directive {fields[0]!r}")
                    try:
                        wires = tuple(map(wire_of, tokens))
                    except KeyError:  # read each new token; a bad one raises
                        for t in tokens:
                            if t not in ints:
                                ints[t] = _int(t, "wire index")
                        wires = tuple(map(wire_of, tokens))
                    inst = GateInstance(gate, wires)
                    header._check_wires(inst.wires)
                except (PermGateError, ValueError) as exc:
                    raise FileFormatError(lineno, str(exc)) from None
                known[raw] = inst
            instances.append(inst)
        if header is None:
            raise FileFormatError(1, "expected header 'qubits <n>'")
        header.gates = tuple(instances)  # each one passed _check_wires
        circuits.append(header)
    return circuits


def save_circuit(circuit: Circuit, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_circuit(circuit))


def load_circuit(path, force: bool = False) -> Circuit:
    """parse_circuit of the file's ASCII text (see errors._read_ascii)."""
    return parse_circuit(_read_ascii(path), force=force)


def _load_circuits(paths, force: bool = False) -> list[Circuit]:
    """load_circuit of each path with one memo across the files (see
    _parse_circuits): a file is opened only after the one before it parsed,
    so an error names the first bad file, as separate loads would."""
    return _parse_circuits(map(_read_ascii, paths), force)
