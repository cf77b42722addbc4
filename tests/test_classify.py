from fractions import Fraction

import math

import pytest

from permgate.classify import (
    Bipartition,
    bipartitions,
    classify_all,
    is_hermitian,
    is_separable,
    list_gates,
    separable_factors,
)
from permgate.counting import involution_count, render_percent
from permgate.errors import CapExceeded, DimensionError
from permgate.perm import Permutation, enumerate_permutations

# the ten self-inverse and fourteen non-self-inverse 2-qubit gates
HERMITIAN_4 = {
    "(1,2,3,4)", "(2,1,3,4)", "(3,2,1,4)", "(4,2,3,1)", "(1,3,2,4)",
    "(1,4,3,2)", "(1,2,4,3)", "(2,1,4,3)", "(3,4,1,2)", "(4,3,2,1)",
}
NON_HERMITIAN_4 = {
    "(2,3,1,4)", "(2,3,4,1)", "(1,3,4,2)", "(1,4,2,3)", "(2,4,1,3)",
    "(2,4,3,1)", "(3,1,2,4)", "(3,1,4,2)", "(3,2,4,1)", "(3,4,2,1)",
    "(4,1,2,3)", "(4,1,3,2)", "(4,2,1,3)", "(4,3,1,2)",
}

SPLIT_2 = Bipartition(2, frozenset({0}))


def product_gate(a: Permutation, b: Permutation) -> Permutation:
    """Oracle-side tensor product on 2 wires: a acts on wire 0 (low bit),
    b on wire 1 (high bit)."""
    images = []
    for x in range(4):
        lo, hi = x & 1, x >> 1
        images.append(a(lo) | b(hi) << 1)
    return Permutation(images)


def set_partitions(items):
    """Every set partition of items, as a list of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def mobius_separable(n):
    """Oracle: gates factoring across some bipartition, by Mobius inversion
    over the set partitions of the wires, mu(sigma, top) = (-1)^(k-1)(k-1)!
    for k blocks (Stanley, EC1 3.7); every 1-qubit gate is separable."""
    total = math.factorial(2 ** n)
    if n == 1:
        return total
    entangled = sum(
        (-1) ** (len(part) - 1) * math.factorial(len(part) - 1)
        * math.prod(math.factorial(2 ** len(block)) for block in part)
        for part in set_partitions(list(range(n))))
    return total - entangled


class TestHermitian:
    def test_cnot(self):
        assert is_hermitian(Permutation.from_one_line("(1,2,4,3)"))

    def test_b_gate(self):
        assert not is_hermitian(Permutation([1, 3, 2, 0]))

    def test_double_swap(self):
        assert is_hermitian(Permutation.from_one_line("(3,4,1,2)"))

    def test_equals_involution_over_s4(self):
        for p in enumerate_permutations(4):
            assert is_hermitian(p) == p.is_involution()


class TestBipartition:
    def test_counts(self):
        assert len(bipartitions(2)) == 1
        assert len(bipartitions(3)) == 3
        assert len(bipartitions(4)) == 7

    def test_canonical_blocks_contain_wire_zero(self):
        for split in bipartitions(4):
            assert 0 in split.block_a
            assert split.block_a | split.block_b == frozenset(range(4))
            assert not split.block_a & split.block_b

    def test_validation(self):
        with pytest.raises(ValueError):
            Bipartition(2, frozenset())
        with pytest.raises(ValueError):
            Bipartition(2, frozenset({0, 1}))
        with pytest.raises(ValueError):
            Bipartition(2, frozenset({2}))


class TestSeparableFactors:
    def test_identity(self):
        split = Bipartition(2, frozenset({1}))
        factors = separable_factors(Permutation.identity(4), split)
        assert factors == (Permutation.identity(2), Permutation.identity(2))

    def test_not_tensor_not(self):
        p = Permutation([3, 2, 1, 0])
        factors = separable_factors(p, SPLIT_2)
        assert factors == (Permutation([1, 0]), Permutation([1, 0]))
        # round-trip through the independent product constructor
        assert product_gate(*factors) == p

    def test_swap_is_entangled(self):
        assert separable_factors(Permutation([0, 2, 1, 3]), SPLIT_2) is None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            separable_factors(Permutation.identity(8), SPLIT_2)

    def test_factors_reconstruct_when_present(self):
        for p in enumerate_permutations(4):
            factors = separable_factors(p, SPLIT_2)
            if factors is not None:
                assert product_gate(*factors) == p

    def test_brute_force_oracle_n2(self):
        # every product of single-qubit gates, built independently
        products = {
            product_gate(a, b)
            for a in enumerate_permutations(2)
            for b in enumerate_permutations(2)
        }
        assert len(products) == 4
        flagged = {p for p in enumerate_permutations(4)
                   if separable_factors(p, SPLIT_2) is not None}
        assert flagged == products

    def test_composition_closure(self):
        pairs = [
            (Permutation([3, 2, 1, 0]), Permutation([1, 0, 3, 2])),
            (Permutation([2, 3, 0, 1]), Permutation([3, 2, 1, 0])),
            (Permutation.identity(4), Permutation([2, 3, 0, 1])),
        ]
        for p, q in pairs:
            fa, fb = separable_factors(p, SPLIT_2)
            ga, gb = separable_factors(q, SPLIT_2)
            composed = separable_factors(p * q, SPLIT_2)
            assert composed == (fa * ga, fb * gb)

    def test_three_wires(self):
        # X on wire 2 alone separates across {0,1}|{2} but also {0}|{1,2}
        x_high = Permutation([x ^ 4 for x in range(8)])
        split = Bipartition(3, frozenset({0, 1}))
        factors = separable_factors(x_high, split)
        assert factors == (Permutation.identity(4), Permutation([1, 0]))
        assert is_separable(x_high, 3)


class TestCensus:
    def test_two_qubits(self):
        r = classify_all(2)
        assert r.total == 24
        assert r.hermitian_count == 10
        assert r.non_hermitian_count == 14
        assert r.separable_count == 4
        assert r.entangled_count == 20
        assert r.non_hermitian_fraction == Fraction(7, 12)
        assert r.entangled_fraction == Fraction(5, 6)
        assert render_percent(r.entangled_fraction, 2) == "83.33%"

    def test_one_qubit(self):
        r = classify_all(1)
        assert r.total == 2
        assert r.hermitian_count == 2
        assert r.non_hermitian_count == 0
        assert r.separable_count == 2
        assert r.entangled_count == 0
        assert r.entangled_fraction == Fraction(0)

    def test_three_qubits_matches_involution_count(self):
        r = classify_all(3)
        assert r.total == 40320
        assert r.hermitian_count == involution_count(8) == 764
        assert r.separable_count + r.entangled_count == r.total
        # inclusion-exclusion oracle: 48 gates factor across each of the 3
        # splits, any two splits force full separability (2^3 gates), so
        # 3*48 - 3*8 + 8
        assert r.separable_count == 128

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_counts_match_brute_force(self, n):
        r = classify_all(n)
        assert r.total == len(list_gates(n, "all"))
        assert r.hermitian_count == len(list_gates(n, "hermitian"))
        assert r.separable_count == len(list_gates(n, "separable"))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_separable_matches_mobius_sum(self, n):
        assert classify_all(n, force=True).separable_count == mobius_separable(n)

    def test_tallies_sum(self):
        r = classify_all(2)
        assert r.hermitian_count + r.non_hermitian_count == r.total
        assert r.separable_count + r.entangled_count == r.total

    def test_cap(self):
        # the census cap that stats has; list_gates still stops at the
        # enumeration cap, since it lists the gates
        with pytest.raises(CapExceeded, match="cap is 14 qubits"):
            classify_all(15)
        assert classify_all(4).separable_count == 323232
        with pytest.raises(CapExceeded, match="enumeration of S_16"):
            list_gates(4)

    def test_invalid_qubits(self):
        with pytest.raises(DimensionError):
            classify_all(0)


class TestGateLists:
    def test_hermitian_list_matches_published(self):
        got = {p.one_line() for p in list_gates(2, "hermitian")}
        assert got == HERMITIAN_4

    def test_non_hermitian_list_matches_published(self):
        got = {p.one_line() for p in list_gates(2, "non_hermitian")}
        assert got == NON_HERMITIAN_4

    def test_one_qubit_non_hermitian_empty(self):
        assert list_gates(1, "non_hermitian") == []

    def test_separable_list(self):
        got = list_gates(2, "separable")
        assert len(got) == 4
        assert Permutation.identity(4) in got

    def test_lexicographic_order(self):
        for which in ("all", "hermitian", "entangled"):
            gates = list_gates(2, which)
            assert gates == sorted(gates)

    def test_filters_partition(self):
        all_gates = set(list_gates(2, "all"))
        assert set(list_gates(2, "hermitian")) | set(
            list_gates(2, "non_hermitian")) == all_gates
        assert set(list_gates(2, "separable")) | set(
            list_gates(2, "entangled")) == all_gates

    def test_hermiticity_and_separability_independent(self):
        entangled = list_gates(2, "entangled")
        involutions = [p for p in entangled if p.is_involution()]
        others = [p for p in entangled if not p.is_involution()]
        assert Permutation([0, 2, 1, 3]) in involutions  # the wire swap
        assert involutions and others

    def test_unknown_filter(self):
        with pytest.raises(ValueError):
            list_gates(2, "bogus")
