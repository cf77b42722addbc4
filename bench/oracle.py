"""Reference computations for the benchmark's output checks.

Nothing here imports permgate: every expected figure is derived from the
documented conventions (README "Notation and conventions" and "File
formats") by a different method than the program uses, so a fault shared
by the program and its own tests still shows here.

Conventions, restated:
- a permutation on M points is a tuple ``images`` with images[j] the
  0-based output of input j;
- one-line text "(k,l,...)" puts entry k at 1-based position i, meaning
  input k-1 goes to output i-1;
- a sequence of gates is applied leftmost first;
- in a circuit, wire w is bit w of the basis index, and the first wire of a
  gate carries the gate's most significant local index bit.
"""

from __future__ import annotations

import decimal
import itertools
import math
from fractions import Fraction

# --- exact counts -----------------------------------------------------------


def involutions_closed_form(m: int) -> int:
    """Self-inverse permutations of m points: sum over k disjoint swaps of
    m! / (k! (m-2k)! 2^k)."""
    fm = math.factorial(m)
    return sum(fm // (math.factorial(k) * math.factorial(m - 2 * k) * 2 ** k)
               for k in range(m // 2 + 1))


def set_partitions(items: list):
    """Every set partition of ``items`` as a list of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def separable_count(n_qubits: int) -> int:
    """Gates on n wires that factor across at least one wire bipartition.

    The gates that factor across a set partition sigma of the wires form
    the product group prod_B S_{2^|B|}, and such groups intersect in the
    group of the common refinement.  Mobius inversion on the partition
    lattice, mu(sigma, top) = (-1)^(k-1) (k-1)! for k blocks, counts the
    gates factoring across no proper partition; separable is the rest.
    Every 1-qubit gate counts as separable by convention.
    """
    total = math.factorial(2 ** n_qubits)
    if n_qubits == 1:
        return total
    entangled = 0
    for part in set_partitions(list(range(n_qubits))):
        k = len(part)
        term = math.factorial(k - 1) * math.prod(
            math.factorial(2 ** len(block)) for block in part)
        entangled += term if k % 2 == 1 else -term
    return total - entangled


def percent_text(ratio: Fraction, decimals: int) -> str:
    """ratio * 100 rounded half-even to ``decimals`` places, with '%'.

    The decimal division runs at a precision wide enough that its own
    rounding cannot cross a half-way point: a non-terminating quotient is
    at least 1/(q * 10^(decimals+1)) away from every tie, and a
    terminating one is exact within 4 digits per denominator digit.
    """
    num, den = ratio.numerator * 100, ratio.denominator
    prec = 4 * len(str(den)) + len(str(num)) + decimals + 10
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        ctx.Emax = decimal.MAX_EMAX
        value = decimal.Decimal(num) / decimal.Decimal(den)
        quantum = decimal.Decimal(1).scaleb(-decimals)
        rounded = value.quantize(quantum, rounding=decimal.ROUND_HALF_EVEN)
        return f"{rounded:f}%"


# --- permutations as image tuples -------------------------------------------


def parse_one_line(text: str) -> tuple[int, ...]:
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"not one-line notation: {text!r}")
    entries = [int(tok) for tok in s[1:-1].split(",")]
    size = len(entries)
    if sorted(entries) != list(range(1, size + 1)):
        raise ValueError(f"not a permutation: {text!r}")
    images = [0] * size
    for pos, entry in enumerate(entries):
        images[entry - 1] = pos
    return tuple(images)


def then(first: tuple, second: tuple) -> tuple:
    """Apply ``first``, then ``second``."""
    return tuple(second[x] for x in first)


def invert(p: tuple) -> tuple:
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def is_identity(p: tuple) -> bool:
    return all(x == y for x, y in enumerate(p))


def is_involution(p: tuple) -> bool:
    return all(p[y] == x for x, y in enumerate(p))


def word_product(word) -> tuple:
    out = tuple(range(len(word[0])))
    for g in word:
        out = then(out, g)
    return out


def orbit_key(word: tuple) -> tuple:
    """Smallest variant under cyclic rotation and reversal with every gate
    inverted; two identity words are the same template iff keys match."""
    mirrored = tuple(invert(g) for g in reversed(word))
    n = len(word)
    return min(seq[r:] + seq[:r] for seq in (word, mirrored) for r in range(n))


def nondegenerate(word: tuple) -> bool:
    """No identity gate and, beyond length 2, no cyclically adjacent
    mutually inverse pair."""
    if any(is_identity(g) for g in word):
        return False
    n = len(word)
    return n == 2 or all(not is_identity(then(word[k], word[(k + 1) % n]))
                         for k in range(n))


def identity_word_orbits(dimension: int, length: int) -> set:
    """Orbit keys of every non-degenerate word of ``length`` gates over the
    full S_dimension that composes to the identity, by brute force: the
    last gate is forced to undo the product of the others."""
    gates = [p for p in itertools.permutations(range(dimension))
             if not is_identity(p)]
    keys = set()
    for head in itertools.product(gates, repeat=length - 1):
        last = invert(word_product(head))
        word = head + (last,)
        if nondegenerate(word):
            keys.add(orbit_key(word))
    return keys


# --- circuits ----------------------------------------------------------------

BUILTINS = {
    "I": (0, 1),
    "X": (1, 0),
    "SWAP": (0, 2, 1, 3),
    "CNOT": (0, 1, 3, 2),
    "TOFFOLI": (0, 1, 2, 3, 4, 5, 7, 6),
    "FREDKIN": (0, 1, 2, 3, 4, 6, 5, 7),
}


def read_circuit(text: str) -> tuple[int, list[tuple[tuple, tuple]]]:
    """(n_wires, [(images, wires), ...]) from circuit-file text."""
    n_wires = None
    gates = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n_wires is None:
            head, count = line.split()
            if head != "qubits":
                raise ValueError(f"bad header {line!r}")
            n_wires = int(count)
            continue
        if line.startswith("gate "):
            _, name, *wires = line.split()
            if name not in BUILTINS:
                raise ValueError(f"unknown gate {line!r}")
            perm = BUILTINS[name]
        elif line.startswith("perm "):
            close = line.index(")")
            perm = parse_one_line(line[line.index("("):close + 1])
            wires = line[close + 1:].split()
        else:
            raise ValueError(f"bad line {line!r}")
        wires = tuple(int(w) for w in wires)
        if len(perm) != 2 ** len(wires) or len(set(wires)) != len(wires):
            raise ValueError(f"bad wiring {line!r}")
        if not all(0 <= w < n_wires for w in wires):
            raise ValueError(f"wire out of range {line!r}")
        gates.append((perm, wires))
    if n_wires is None:
        raise ValueError("missing header")
    return n_wires, gates


def simulate(n_wires: int, gates) -> np.ndarray:
    """out[x] = the basis index the circuit sends x to, by pushing the
    whole index vector through each gate's bit gather and scatter.

    numpy is imported here, not at the top: the worker imports this module
    (through inputs.py) during set-up, and only the checks simulate, so
    numpy loads in the worker only if the program itself loads it."""
    import numpy as np

    y = np.arange(2 ** n_wires, dtype=np.int64)
    for perm, wires in gates:
        k = len(wires)
        table = np.asarray(perm, dtype=np.int64)
        local = np.zeros_like(y)
        clear = ~np.int64(sum(1 << w for w in wires))
        for t, w in enumerate(wires):
            local |= ((y >> w) & 1) << (k - 1 - t)
        mapped = table[local]
        y = y & clear
        for t, w in enumerate(wires):
            y |= ((mapped >> (k - 1 - t)) & 1) << w
    return y


def reduce_gates(gates, collapse_runs: bool) -> list:
    """Reference reduction, an upper bound on what optimize should reach.

    With ``collapse_runs`` (a store holding every identity template over
    S_4 up to length >= 3) each maximal run of 2-qubit gates on one ordered
    wire pair composes to one gate, and identity results are dropped.
    Adjacent mutually inverse gates on the same wires cancel.  Repeats to
    fixpoint.
    """
    gates = list(gates)
    while True:
        before = len(gates)
        if collapse_runs:
            merged = []
            for perm, wires in gates:
                if (merged and len(wires) == 2 and merged[-1][1] == wires):
                    merged[-1] = (then(merged[-1][0], perm), wires)
                else:
                    merged.append((perm, wires))
            gates = [g for g in merged if not is_identity(g[0])]
        stack = []
        for perm, wires in gates:
            if (stack and stack[-1][1] == wires
                    and is_identity(then(stack[-1][0], perm))):
                stack.pop()
            else:
                stack.append((perm, wires))
        gates = stack
        if len(gates) == before:
            return gates
