"""Per-gate classification, and the census of S_{2^n} in closed form.

A gate is Hermitian exactly when its permutation is an involution:
permutation matrices are real, so conjugate-transpose is transpose, and a
permutation matrix is symmetric iff the permutation is self-inverse.

Separability is checked against a bipartition of the wires.  Wire w is bit
w of the basis index (wire 0 = least significant).  Within a block, wires
sorted ascending map to local index bits ascending.  A gate on n >= 2 wires
counts as separable if it factors across at least one bipartition; for a
single wire there is nothing to split, so every 1-qubit gate is separable
by convention.

classify_all counts the census without visiting a gate: its total and
Hermitian counts come from counting.census, under the census cap that
stats has too.  list_gates enumerates S_{2^n} and tests each gate, and is
the reference the counts are checked against; the enumeration cap bounds
it (3 qubits, 8! = 40320 gates, without force).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import math

from .counting import census
from .errors import DimensionError
from .perm import Permutation, enumerate_permutations

GATE_FILTERS = ("all", "hermitian", "non_hermitian", "separable", "entangled")


@dataclass(frozen=True)
class Bipartition:
    """A split of wires {0..n_wires-1} into block_a and its complement."""

    n_wires: int
    block_a: frozenset[int]

    def __post_init__(self):
        if self.n_wires < 1:
            raise DimensionError(f"invalid wire count {self.n_wires}")
        if not self.block_a:
            raise ValueError("block_a must be nonempty")
        if not all(0 <= w < self.n_wires for w in self.block_a):
            raise ValueError(f"wire out of range in {sorted(self.block_a)}")
        if len(self.block_a) == self.n_wires:
            raise ValueError("block_a must be a proper subset of the wires")

    @property
    def block_b(self) -> frozenset[int]:
        return frozenset(range(self.n_wires)) - self.block_a


def bipartitions(n_wires: int) -> list[Bipartition]:
    """All unordered two-block wire splits, canonicalized by 0 in block_a."""
    rest = [w for w in range(n_wires) if w != 0]
    out = []
    for mask in range(2 ** len(rest)):
        block = {0} | {w for i, w in enumerate(rest) if mask >> i & 1}
        if len(block) < n_wires:
            out.append(Bipartition(n_wires, frozenset(block)))
    return sorted(out, key=lambda b: sorted(b.block_a))


def is_hermitian(p: Permutation) -> bool:
    """Hermitian == self-inverse for permutation gates."""
    return p.is_involution()


def _gather_bits(x: int, wires: list[int]) -> int:
    local = 0
    for t, w in enumerate(wires):
        local |= (x >> w & 1) << t
    return local


def _scatter_bits(local_a: int, wires_a: list[int], local_b: int,
                  wires_b: list[int]) -> int:
    x = 0
    for t, w in enumerate(wires_a):
        x |= (local_a >> t & 1) << w
    for t, w in enumerate(wires_b):
        x |= (local_b >> t & 1) << w
    return x


def separable_factors(
    p: Permutation, split: Bipartition
) -> tuple[Permutation, Permutation] | None:
    """Factor p as (factor on block_a) x (factor on block_b), if possible.

    Proposes the factors from the p(i, 0) and p(0, j) slices, then verifies
    the product law p(i, j) = (A(i), B(j)) over every composite index.
    Returns None when the gate does not factor (it is entangled across this
    split).
    """
    if p.size != 2 ** split.n_wires:
        raise DimensionError(
            f"gate dimension {p.size} does not match {split.n_wires} wires"
        )
    wa = sorted(split.block_a)
    wb = sorted(split.block_b)
    a_images = [_gather_bits(p(_scatter_bits(i, wa, 0, wb)), wa)
                for i in range(2 ** len(wa))]
    b_images = [_gather_bits(p(_scatter_bits(0, wa, j, wb)), wb)
                for j in range(2 ** len(wb))]
    if sorted(a_images) != list(range(len(a_images))):
        return None
    if sorted(b_images) != list(range(len(b_images))):
        return None
    for x in range(p.size):
        i = _gather_bits(x, wa)
        j = _gather_bits(x, wb)
        if p(x) != _scatter_bits(a_images[i], wa, b_images[j], wb):
            return None
    return Permutation(a_images), Permutation(b_images)


def is_separable(p: Permutation, n_qubits: int) -> bool:
    """Separable across at least one bipartition (trivially true at n=1)."""
    if p.size != 2 ** n_qubits:
        raise DimensionError(
            f"gate dimension {p.size} does not match {n_qubits} qubits"
        )
    if n_qubits == 1:
        return True
    return any(separable_factors(p, split) is not None
               for split in bipartitions(n_qubits))


def _separable_count(n_qubits: int) -> int:
    """How many gates on n wires is_separable accepts, without visiting one.

    The gates that factor across a wire partition form a group, and two
    such groups intersect in the group of the common refinement, so every
    gate factors over a unique finest partition, and its factor on each
    block factors across no bipartition.  Counting the (2^m)! gates on m
    wires by the block of wire 0, with k wires, gives split[m], the m-wire
    gates that factor across no bipartition:
    (2^m)! = sum over k of C(m-1, k-1) * split[k] * (2^(m-k))!.
    """
    if n_qubits == 1:
        return 2  # every 1-qubit gate, by convention
    split = [0]
    for m in range(1, n_qubits + 1):
        split.append(math.factorial(2 ** m) - sum(
            math.comb(m - 1, k - 1) * split[k] * math.factorial(2 ** (m - k))
            for k in range(1, m)))
    return math.factorial(2 ** n_qubits) - split[n_qubits]


@dataclass(frozen=True)
class CensusReport:
    """Exact tallies over all permutation gates on n_qubits wires."""

    n_qubits: int
    total: int
    hermitian_count: int
    non_hermitian_count: int
    separable_count: int
    entangled_count: int
    non_hermitian_fraction: Fraction
    entangled_fraction: Fraction


def classify_all(n_qubits: int, force: bool = False) -> CensusReport:
    """Involution and separability tallies over S_{2^n}, counted exactly."""
    total, hermitian = census(n_qubits, force)
    separable = _separable_count(n_qubits)
    return CensusReport(
        n_qubits=n_qubits,
        total=total,
        hermitian_count=hermitian,
        non_hermitian_count=total - hermitian,
        separable_count=separable,
        entangled_count=total - separable,
        non_hermitian_fraction=Fraction(total - hermitian, total),
        entangled_fraction=Fraction(total - separable, total),
    )


def list_gates(n_qubits: int, which: str = "all",
               force: bool = False) -> list[Permutation]:
    """Gates of S_{2^n} matching a filter, in lexicographic image order."""
    if which not in GATE_FILTERS:
        raise ValueError(f"unknown filter {which!r}; expected one of {GATE_FILTERS}")
    if n_qubits < 1:
        raise DimensionError(f"invalid qubit count {n_qubits}")
    keep = {
        "all": lambda p: True,
        "hermitian": is_hermitian,
        "non_hermitian": lambda p: not is_hermitian(p),
        "separable": lambda p: is_separable(p, n_qubits),
        "entangled": lambda p: not is_separable(p, n_qubits),
    }[which]
    return [p for p in enumerate_permutations(2 ** n_qubits, force=force) if keep(p)]
