"""Acceptance suite: one test per release criterion.

Each test prints a single `criterion N PASS/FAIL` line (visible with -s, or
in captured output on failure) and enforces its runtime bound.  All
comparisons are exact; nothing here carries a numeric tolerance.
"""

import random
import time
from contextlib import contextmanager

import numpy as np

from permgate.circuit import (
    BUILTIN_GATES,
    Circuit,
    GateInstance,
    circuit_permutation,
    optimize,
)
from permgate.classify import classify_all, is_hermitian, list_gates
from permgate.counting import (
    involution_count,
    non_hermitian_fraction,
    render_percent,
)
from permgate.perm import Permutation, enumerate_permutations
from permgate.templates import (
    GateLibrary,
    expand_template,
    generate_templates,
    multiplication_table,
    two_gate_templates,
)

INVOLUTION_SEQUENCE = [
    1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496, 35696, 140152, 568504,
    2390480, 10349536, 46206736, 211799312,
]

HERMITIAN_4 = {
    "(1,2,3,4)", "(2,1,3,4)", "(3,2,1,4)", "(4,2,3,1)", "(1,3,2,4)",
    "(1,4,3,2)", "(1,2,4,3)", "(2,1,4,3)", "(3,4,1,2)", "(4,3,2,1)",
}
NON_HERMITIAN_4 = {
    "(2,3,1,4)", "(2,3,4,1)", "(1,3,4,2)", "(1,4,2,3)", "(2,4,1,3)",
    "(2,4,3,1)", "(3,1,2,4)", "(3,1,4,2)", "(3,2,4,1)", "(3,4,2,1)",
    "(4,1,2,3)", "(4,1,3,2)", "(4,2,1,3)", "(4,3,1,2)",
}


@contextmanager
def criterion(number: int, label: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= limit_seconds:
        print(f"criterion {number} FAIL {label} (took {elapsed:.2f}s, "
              f"limit {limit_seconds}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {limit_seconds}s budget "
            f"({elapsed:.2f}s)")
    print(f"criterion {number} PASS {label} ({elapsed:.2f}s)")


def test_criterion_1_involution_sequence():
    with criterion(1, "involution sequence 1..17", 1.0):
        assert [involution_count(m) for m in range(1, 18)] == INVOLUTION_SEQUENCE


def test_criterion_2_percentages():
    with criterion(2, "rendered percentages", 1.0):
        assert render_percent(non_hermitian_fraction(2), 2) == "58.33%"
        assert render_percent(non_hermitian_fraction(3), 4) == "98.1052%"
        assert render_percent(non_hermitian_fraction(4), 4) == "99.9998%"


def test_criterion_3_two_qubit_census():
    with criterion(3, "two-qubit census and gate lists", 1.0):
        report = classify_all(2)
        assert report.total == 24
        assert report.hermitian_count == 10
        assert report.non_hermitian_count == 14
        assert report.separable_count == 4
        assert report.entangled_count == 20
        assert render_percent(report.entangled_fraction, 2) == "83.33%"
        assert {p.one_line() for p in list_gates(2, "hermitian")} == HERMITIAN_4
        assert {p.one_line()
                for p in list_gates(2, "non_hermitian")} == NON_HERMITIAN_4


def test_criterion_4_enumeration_vs_recurrence():
    with criterion(4, "enumeration oracle up to S_8", 10.0):
        for m in range(1, 9):
            brute = sum(p.is_involution() for p in enumerate_permutations(m))
            assert brute == involution_count(m)
        assert involution_count(8) == 764


def test_criterion_5_matrix_hermiticity():
    with criterion(5, "matrix-level Hermiticity checks", 5.0):
        def threeway(p: Permutation) -> None:
            m = p.matrix()
            eye = np.eye(p.size, dtype=np.uint8)
            symmetric = bool(np.array_equal(m, m.T))
            squares_to_identity = bool(np.array_equal(m @ m, eye))
            assert p.is_involution() == symmetric == squares_to_identity

        for p in enumerate_permutations(4):
            threeway(p)
        rng = random.Random(2026)
        for _ in range(1000):
            images = list(range(8))
            rng.shuffle(images)
            threeway(Permutation(images))


def test_criterion_6_rearrangement_and_templates():
    with criterion(6, "rearrangement theorem and template counts", 5.0):
        library = GateLibrary.symmetric_group(4)
        table = multiplication_table(library)
        full = list(range(24))
        for row in table:
            assert sorted(row) == full
        for j in range(24):
            assert sorted(table[i][j] for i in range(24)) == full

        pairs = two_gate_templates(library)
        assert len(pairs) == 24
        assert all(t.verifies() for t in pairs)

        for base in (pairs[3], pairs[17]):
            for position in (0, 1):
                expanded = expand_template(base, position, library)
                assert len(expanded) == 24
                assert all(t.verifies() for t in expanded)

        store = generate_templates(library, 3)
        assert len(store) > 0
        assert all(t.verifies() for t in store.templates)


def _random_circuit(rng: random.Random, n_wires: int, length: int) -> Circuit:
    pool = [g for g in BUILTIN_GATES.values() if g.size <= 2 ** n_wires]
    gates = []
    for _ in range(length):
        if rng.random() < 0.3:
            k = rng.randint(1, min(2, n_wires))
            images = list(range(2 ** k))
            rng.shuffle(images)
            gate = Permutation(images)
        else:
            gate = rng.choice(pool)
        wires = tuple(rng.sample(range(n_wires), gate.size.bit_length() - 1))
        gates.append(GateInstance(gate, wires))
    return Circuit(n_wires, gates)


def test_criterion_7_optimizer_soundness():
    with criterion(7, "optimizer soundness on 200 random circuits", 30.0):
        store = generate_templates(GateLibrary.symmetric_group(4), 3)
        rng = random.Random(424242)
        for _ in range(200):
            n_wires = rng.randint(1, 3)
            length = rng.randint(0, 20)
            original = _random_circuit(rng, n_wires, length)
            optimized, report = optimize(original, store)
            assert circuit_permutation(optimized) == circuit_permutation(original)
            assert len(optimized) <= len(original)
            assert report.gates_after == len(optimized)

        x = BUILTIN_GATES["X"]
        cnot = BUILTIN_GATES["CNOT"]
        xx = Circuit(1, [GateInstance(x, (0,)), GateInstance(x, (0,))])
        assert len(optimize(xx, store)[0]) == 0
        cc = Circuit(2, [GateInstance(cnot, (0, 1)), GateInstance(cnot, (0, 1))])
        assert len(optimize(cc, store)[0]) == 0


def test_criterion_8_corrected_b_gate():
    with criterion(8, "corrected B gate behavior", 1.0):
        b = Permutation([1, 3, 2, 0])
        assert (b * b)(0) == 3  # applying it twice sends |00> to |11>
        assert not is_hermitian(b)
        m = b.matrix()
        eye = np.eye(4, dtype=np.uint8)
        assert np.array_equal(m @ m.T, eye)
        assert np.array_equal(m.T @ m, eye)
