import dataclasses
import operator
import random
import re
import sys
import time
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permgate import circuit as circuit_module
from permgate.circuit import (
    BUILTIN_GATES,
    Circuit,
    GateInstance,
    OptimizeReport,
    circuit_permutation,
    equivalent,
    format_circuit,
    load_circuit,
    optimize,
    parse_circuit,
    save_circuit,
    _cancel_inverses,
    _template_rewrite,
)
from permgate.errors import (CapExceeded, DimensionError, FileFormatError,
                             WiringError)
from permgate.perm import Permutation, enumerate_permutations
from permgate.templates import (GateLibrary, TemplateStore, _RewriteScan,
                                generate_templates, parse_store)

X = BUILTIN_GATES["X"]
CNOT = BUILTIN_GATES["CNOT"]
SWAP = BUILTIN_GATES["SWAP"]
TOFFOLI = BUILTIN_GATES["TOFFOLI"]
FREDKIN = BUILTIN_GATES["FREDKIN"]
B_GATE = Permutation([1, 3, 2, 0])  # not self-inverse


def inst(gate, *wires):
    return GateInstance(gate, tuple(wires))


def propagate(circuit: Circuit, x: int) -> int:
    """Oracle: push one basis index through the gates step by step."""
    for gi in circuit.gates:
        k = len(gi.wires)
        local = 0
        for t, w in enumerate(gi.wires):
            local |= (x >> w & 1) << (k - 1 - t)
        mapped = gi.gate(local)
        for t, w in enumerate(gi.wires):
            x = (x & ~(1 << w)) | (mapped >> (k - 1 - t) & 1) << w
    return x


def random_circuit(rng: random.Random, n_wires: int, length: int,
                   force: bool = False) -> Circuit:
    pool = [g for g in BUILTIN_GATES.values() if g.size <= 2 ** n_wires]
    gates = []
    for _ in range(length):
        if rng.random() < 0.3:
            k = rng.randint(1, min(3, n_wires))
            images = list(range(2 ** k))
            rng.shuffle(images)
            gate = Permutation(images)
        else:
            gate = rng.choice(pool)
        k = gate.size.bit_length() - 1
        gates.append(GateInstance(gate, tuple(rng.sample(range(n_wires), k))))
    return Circuit(n_wires, gates, force=force)


@st.composite
def circuits(draw):
    """1-8 wires of 1-3-wire gates, builtin or inline, on random wires."""
    n_wires = draw(st.integers(1, 8))
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        k = draw(st.integers(1, min(3, n_wires)))
        if draw(st.booleans()):
            gate = draw(st.sampled_from([g for g in BUILTIN_GATES.values()
                                         if g.size == 2 ** k]))
        else:
            gate = Permutation(draw(st.permutations(range(2 ** k))))
        wires = tuple(draw(st.permutations(range(n_wires)))[:k])
        gates.append(GateInstance(gate, wires))
    return Circuit(n_wires, gates)


@st.composite
def circuits_with_identities(draw):
    """2-4 wires of 1-3-wire gates: builtin, inline or identity, with
    same-wire runs of 2-wire gates on wires 0 and 1 for the rewrite scan."""
    n_wires = draw(st.integers(2, 4))
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        k = draw(st.integers(1, min(3, n_wires)))
        kind = draw(st.sampled_from(["builtin", "inline", "identity"]))
        if kind == "builtin":
            gate = draw(st.sampled_from([g for g in BUILTIN_GATES.values()
                                         if g.size == 2 ** k]))
        elif kind == "inline":
            gate = Permutation(draw(st.permutations(range(2 ** k))))
        else:
            gate = Permutation.identity(2 ** k)
        if k == 2 and draw(st.booleans()):
            wires = (0, 1)
        else:
            wires = tuple(draw(st.permutations(range(n_wires)))[:k])
        gates.append(GateInstance(gate, wires))
    return Circuit(n_wires, gates)


def ref_cancel(gates) -> list[GateInstance]:
    """Brute-force cancel pass: delete the first identity gate, or the first
    adjacent pair on one wire tuple whose product is the identity, until
    neither is left."""
    gates = list(gates)
    while True:
        for i, g in enumerate(gates):
            if g.gate.is_identity():
                del gates[i]
                break
            nxt = gates[i + 1] if i + 1 < len(gates) else None
            if (nxt is not None and nxt.wires == g.wires
                    and nxt.gate == g.gate.inverse()):
                del gates[i:i + 2]
                break
        else:
            return gates


@st.composite
def round_trip_circuits(draw):
    """1-4 wires of builtin gates, or a random 1-3-qubit permutation, a
    builtin's included."""
    n_wires = draw(st.integers(1, 4))
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        k = draw(st.integers(1, min(3, n_wires)))
        builtins = [g for g in BUILTIN_GATES.values() if g.size == 2 ** k]
        if draw(st.booleans()):
            gate = draw(st.sampled_from(builtins))
        else:
            images = draw(st.permutations(range(2 ** k))
                          | st.sampled_from([g.images for g in builtins]))
            gate = Permutation(images)
        wires = tuple(draw(st.permutations(range(n_wires)))[:k])
        gates.append(GateInstance(gate, wires))
    return Circuit(n_wires, gates)


def mixed_gate(draw, n_wires: int, widest: int = 4) -> Permutation:
    """A gate of 1 to `widest` qubits that fits n_wires: a builtin (I
    included), an identity, or an inline permutation."""
    k = draw(st.integers(1, min(widest, n_wires)))
    builtins = [g for g in BUILTIN_GATES.values() if g.size == 2 ** k]
    kind = draw(st.sampled_from(["builtin", "identity", "inline"]))
    if kind == "builtin" and builtins:
        return draw(st.sampled_from(builtins))
    if kind == "identity":
        return Permutation.identity(2 ** k)
    return Permutation(draw(st.permutations(range(2 ** k))))


@st.composite
def mixed_circuit_pairs(draw):
    """(a, b) on 1-7 wires.  a mixes mixed_gate with repeats of its earlier
    gates, on the same or other wires; b is a with one gate replaced, a
    with an inverse pair inserted (equivalent), or another such circuit."""
    n_wires = draw(st.integers(1, 7))

    def wires(k):
        return tuple(draw(st.permutations(range(n_wires)))[:k])

    def gates():
        out = []
        for _ in range(draw(st.integers(0, 10))):
            if out and draw(st.booleans()):
                gate = draw(st.sampled_from(out)).gate
            else:
                gate = mixed_gate(draw, n_wires)
            out.append(GateInstance(gate, wires(gate.size.bit_length() - 1)))
        return out

    a = gates()
    kind = draw(st.sampled_from(["replace", "pair", "other"]))
    if kind == "replace" and a:
        b = list(a)
        pos = draw(st.integers(0, len(b) - 1))
        gate = mixed_gate(draw, n_wires)
        b[pos] = GateInstance(gate, wires(gate.size.bit_length() - 1))
    elif kind == "pair":
        gate = mixed_gate(draw, n_wires)
        on = wires(gate.size.bit_length() - 1)
        pos = draw(st.integers(0, len(a)))
        b = a[:pos] + [GateInstance(gate, on),
                       GateInstance(gate.inverse(), on)] + a[pos:]
    else:
        b = gates()
    return Circuit(n_wires, a), Circuit(n_wires, b)


@st.composite
def edited_pairs(draw):
    """(a, b, kept) on 1-9 wires: a base circuit a of 1-5-qubit builtin,
    inline and identity gates, and b made from it by 1-4 edits.  kept is
    True when every edit keeps the permutation: inserting an inverse pair
    (later pairs may nest inside earlier ones), swapping neighbours on
    disjoint wires, or splitting a gate into a same-wire run whose product
    it is.  The other edits replace a gate, swap neighbours that share a
    wire, or put a gate on its wire set in another order."""
    n_wires = draw(st.integers(1, 9))

    def on(gate, wires=None):
        k = gate.size.bit_length() - 1
        if wires is None:
            wires = tuple(draw(st.permutations(range(n_wires)))[:k])
        return GateInstance(gate, wires)

    a = [on(mixed_gate(draw, n_wires, 5))
         for _ in range(draw(st.integers(0, 10)))]
    b = list(a)
    kept = True
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["pair", "commute", "split", "replace",
                                     "swap", "reorder"]))
        disjoint = [i for i in range(len(b) - 1)
                    if not set(b[i].wires) & set(b[i + 1].wires)]
        shared = [i for i in range(len(b) - 1)
                  if set(b[i].wires) & set(b[i + 1].wires)]
        if edit == "pair":
            g = on(mixed_gate(draw, n_wires, 5))
            pos = draw(st.integers(0, len(b)))
            b[pos:pos] = [g, GateInstance(g.gate.inverse(), g.wires)]
        elif edit == "commute" and disjoint:
            i = draw(st.sampled_from(disjoint))
            b[i], b[i + 1] = b[i + 1], b[i]
        elif edit == "split" and b:
            pos = draw(st.integers(0, len(b) - 1))
            g = b[pos]
            first = Permutation(draw(st.permutations(range(g.gate.size))))
            # first, then rest, is g; rest may be an identity
            b[pos:pos + 1] = [GateInstance(first, g.wires),
                              GateInstance(g.gate * first.inverse(), g.wires)]
        elif edit == "replace" and b:
            b[draw(st.integers(0, len(b) - 1))] = on(mixed_gate(draw, n_wires, 5))
            kept = False
        elif edit == "swap" and shared:
            i = draw(st.sampled_from(shared))
            b[i], b[i + 1] = b[i + 1], b[i]
            kept = False
        elif edit == "reorder" and b:
            pos = draw(st.integers(0, len(b) - 1))
            g = b[pos]
            b[pos] = on(g.gate, tuple(draw(st.permutations(g.wires))))
            kept = False
    return Circuit(n_wires, a), Circuit(n_wires, b), kept


def ref_equivalent(a: Circuit, b: Circuit) -> int | None:
    """The two-circuit reference: simulate a and b in full and XOR their
    wire ints for the first basis index they send to different images."""
    start = circuit_module._patterns(a.n_wires)
    ints = [circuit_module._wire_ints(
                start, [(gi.gate.images, gi.wires) for gi in c.gates])
            for c in (a, b)]
    diff = reduce(operator.or_, map(operator.xor, *ints))
    return (diff & -diff).bit_length() - 1 if diff else None


def survivors(a: Circuit, b: Circuit) -> list:
    """The (images, wires) pairs left of the reduced word a b^-1."""
    return list(circuit_module._difference(a, b) or ())


def word_circuit(n_wires: int, word) -> Circuit:
    """The circuit of an (images, wires) word."""
    return Circuit(n_wires, [GateInstance(Permutation(images), wires)
                             for images, wires in word])


def two_wire(*texts):
    """A circuit of 2-qubit gates in one-line notation, all on wires 0 1."""
    return Circuit(2, [inst(Permutation.from_one_line(t), 0, 1)
                       for t in texts])


@pytest.fixture(scope="module")
def s4_store():
    return generate_templates(GateLibrary.symmetric_group(4), 3)


class TestBuiltins:
    def test_permutations(self):
        images = {name: g.images for name, g in BUILTIN_GATES.items()}
        assert images == {
            "I": (0, 1),
            "X": (1, 0),
            "SWAP": (0, 2, 1, 3),
            "CNOT": (0, 1, 3, 2),
            "TOFFOLI": (0, 1, 2, 3, 4, 5, 7, 6),
            "FREDKIN": (0, 1, 2, 3, 4, 6, 5, 7),
        }

    def test_cnot_one_line_form(self):
        assert CNOT.one_line() == "(1,2,4,3)"

    def test_all_self_inverse(self):
        for g in BUILTIN_GATES.values():
            assert g.is_involution()

    def test_named_gate_recovers_builtin(self):
        assert Permutation([0, 2, 1, 3]) == SWAP

    def test_builtin_name_follows_permutation(self):
        for name, gate in BUILTIN_GATES.items():
            assert type(gate) is Permutation
            k = gate.size.bit_length() - 1
            wires = tuple(range(k))  # an equal permutation, not the same one
            c = Circuit(k, [GateInstance(Permutation(gate.images), wires)])
            assert format_circuit(c) == \
                f"qubits {k}\ngate {name} {' '.join(map(str, wires))}\n"
        fields = [f.name for f in dataclasses.fields(GateInstance)]
        assert fields == ["gate", "wires"]


class TestInstanceAndCircuit:
    @pytest.mark.parametrize("size", [3, 1])
    def test_gate_dimension_must_be_power_of_two(self, size):
        with pytest.raises(DimensionError) as info:
            GateInstance(Permutation(range(size)), (0,))
        assert str(info.value) == \
            f"gate dimension {size} is not a power of two >= 2"

    def test_arity_mismatch(self):
        with pytest.raises(WiringError):
            GateInstance(CNOT, (0,))

    def test_repeated_wire(self):
        with pytest.raises(WiringError):
            GateInstance(CNOT, (1, 1))

    def test_wire_out_of_range(self):
        # the file reader gives the same message, with the line number
        with pytest.raises(WiringError, match=r"^wire 5 out of range 0\.\.1$"):
            Circuit(2, [inst(X, 5)])

    def test_wire_cap(self):
        with pytest.raises(CapExceeded, match="a circuit of 13 wires refused: "
                                              "cap is 12 wires"):
            Circuit(13)
        assert Circuit(13, force=True).n_wires == 13

    @pytest.mark.parametrize("wires", [63, 70])
    def test_force_stops_where_basis_indices_pass_maxsize(self, wires):
        # the bound counting uses for (2^n)!, 63 on 64-bit builds
        assert wires >= sys.maxsize.bit_length()
        with pytest.raises(DimensionError, match="sys.maxsize"):
            Circuit(wires, force=True)
        with pytest.raises(FileFormatError, match=f"line 1: {wires} wires"):
            parse_circuit(f"qubits {wires}\ngate X 0\n", force=True)

    def test_invalid_wire_count(self):
        with pytest.raises(DimensionError):
            Circuit(0)


def lift(perm: Permutation, wires, n_wires: int) -> Permutation:
    """The permutation of an n-wire circuit holding one gate on `wires`."""
    return circuit_permutation(
        Circuit(n_wires, [GateInstance(perm, tuple(wires))]))


class TestEmbed:
    """How one gate acts on its wires of a wider circuit."""

    def test_not_on_low_wire(self):
        lifted = lift(Permutation([1, 0]), [0], 2)
        assert lifted.images == (1, 0, 3, 2)
        # tensor-structure oracle: wire 0 is the low-order index bit
        expected = np.kron(np.eye(2, dtype=np.uint8),
                           np.array([[0, 1], [1, 0]], dtype=np.uint8))
        assert np.array_equal(lifted.matrix(), expected)

    def test_not_on_high_wire(self):
        lifted = lift(Permutation([1, 0]), [1], 2)
        expected = np.kron(np.array([[0, 1], [1, 0]], dtype=np.uint8),
                           np.eye(2, dtype=np.uint8))
        assert np.array_equal(lifted.matrix(), expected)

    def test_identity_lifts_to_identity(self):
        for wire in range(3):
            assert lift(Permutation.identity(2), [wire], 3) == \
                Permutation.identity(8)

    def test_identity_wiring(self):
        cnot = Permutation.from_one_line("(1,2,4,3)")
        assert lift(cnot, [1, 0], 2) == cnot

    def test_wire_order_conjugates(self):
        cnot = Permutation.from_one_line("(1,2,4,3)")
        swap = Permutation([0, 2, 1, 3])
        assert lift(cnot, [0, 1], 2) == swap * cnot * swap

    def test_homomorphism(self):
        rng = random.Random(3)
        for _ in range(20):
            a = list(range(4))
            b = list(range(4))
            rng.shuffle(a)
            rng.shuffle(b)
            g, h = Permutation(a), Permutation(b)
            wires = tuple(rng.sample(range(4), 2))
            assert lift(g * h, wires, 4) == \
                lift(g, wires, 4) * lift(h, wires, 4)

    def test_wiring_errors(self):
        x = Permutation([1, 0])
        with pytest.raises(WiringError):
            lift(x, [0, 1], 2)  # arity
        with pytest.raises(WiringError):
            lift(x, [3], 2)  # range
        with pytest.raises(WiringError):
            lift(Permutation.identity(4), [1, 1], 2)  # collision
        with pytest.raises(DimensionError):
            lift(Permutation.identity(3), [0], 2)  # not a power of two


class TestCircuitPermutation:
    def test_empty_circuit(self):
        assert circuit_permutation(Circuit(3)) == Permutation.identity(8)

    def test_xx_is_identity(self):
        c = Circuit(1, [inst(X, 0), inst(X, 0)])
        assert circuit_permutation(c) == Permutation.identity(2)

    def test_leftmost_applied_first(self):
        # X then CNOT(control=0): |00> -> |01> -> |11>
        c = Circuit(2, [inst(X, 0), inst(CNOT, 0, 1)])
        assert circuit_permutation(c)(0) == 3

    def test_propagation_oracle_fixed(self):
        c = Circuit(3, [inst(CNOT, 0, 2), inst(TOFFOLI, 2, 1, 0),
                        inst(FREDKIN, 0, 1, 2)])
        perm = circuit_permutation(c)
        for x in range(8):
            assert perm(x) == propagate(c, x)

    def test_propagation_oracle_random(self):
        rng = random.Random(17)
        for trial in range(30):
            n = trial % 12 + 1
            c = random_circuit(rng, n, rng.randint(0, 12))
            perm = circuit_permutation(c)
            for x in range(2 ** n):
                assert perm(x) == propagate(c, x)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(c=circuits())
    def test_product_of_one_gate_circuits(self, c):
        # leftmost gate applied first: each later gate composes on the left
        expected = Permutation.identity(2 ** c.n_wires)
        for gi in c.gates:
            expected = circuit_permutation(Circuit(c.n_wires, [gi])) * expected
        assert circuit_permutation(c) == expected

    def test_disjoint_wires_commute(self):
        rng = random.Random(23)
        for _ in range(20):
            a = inst(X, 0)
            b = inst(rng.choice([X, X]), 1) if rng.random() < 0.5 \
                else inst(CNOT, 1, 2)
            c1 = Circuit(3, [a, b])
            c2 = Circuit(3, [b, a])
            assert circuit_permutation(c1) == circuit_permutation(c2)


class TestEquivalent:
    def test_same_permutation(self):
        swap = Circuit(2, [inst(SWAP, 0, 1)])
        cnots = Circuit(2, [inst(CNOT, 0, 1), inst(CNOT, 1, 0),
                            inst(CNOT, 0, 1)])
        assert equivalent(swap, cnots) is None
        assert equivalent(Circuit(1, [inst(X, 0), inst(X, 0)]),
                          Circuit(1)) is None

    def test_witness_zero(self):
        # index 0 is a witness too, not a false "equivalent"
        assert equivalent(Circuit(1, [inst(X, 0)]), Circuit(1)) == 0

    def test_first_differing_index_oracle(self):
        rng = random.Random(29)
        for trial in range(60):
            n = trial % 6 + 1
            a = random_circuit(rng, n, rng.randint(0, 8))
            # a with a cancelling X pair, a random circuit, or a with one
            # more controlled gate, which moves only the indices a sends to
            # where its controls are set
            k = min(n, 3)
            g = [X, CNOT, TOFFOLI][k - 1]
            tail = ((inst(X, n - 1),) * 2 if trial % 3 == 0
                    else (inst(g, *rng.sample(range(n), k)),))
            b = (random_circuit(rng, n, rng.randint(0, 8)) if trial % 3 == 1
                 else Circuit(n, a.gates + tail))
            expected = next((x for x in range(2 ** n)
                             if propagate(a, x) != propagate(b, x)), None)
            assert equivalent(a, b) == expected
            assert equivalent(b, a) == expected

    def test_wire_counts_must_match(self):
        with pytest.raises(DimensionError, match="wire counts differ"):
            equivalent(Circuit(1), Circuit(2))


class TestPastTheCap:
    """Forced circuits wider than the cap, where a build of the wire
    patterns that is quadratic in 2**n would show."""

    @pytest.mark.parametrize("n", range(13, 17))
    def test_propagation_oracle_sampled(self, n):
        rng = random.Random(n)
        c = random_circuit(rng, n, 40, force=True)
        perm = circuit_permutation(c)
        assert perm.size == 2 ** n
        for x in [0, 2 ** n - 1] + rng.sample(range(2 ** n), 200):
            assert perm(x) == propagate(c, x)
        assert circuit_permutation(Circuit(n, force=True)) == \
            Permutation.identity(2 ** n)

    @pytest.mark.parametrize("n", range(13, 17))
    def test_first_differing_index_oracle(self, n):
        rng = random.Random(100 + n)
        a = random_circuit(rng, n, 30, force=True)
        b = Circuit(n, a.gates + (inst(TOFFOLI, *rng.sample(range(n), 3)),),
                    force=True)
        expected = next(x for x in range(2 ** n)
                        if propagate(a, x) != propagate(b, x))
        assert equivalent(a, b) == expected
        assert equivalent(b, a) == expected
        assert equivalent(a, a) is None


class TestCompiledGates:
    """The semantics apply each gate as XORs of ANDs of its wires' ints,
    compiled once per distinct permutation within one call."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(pair=mixed_circuit_pairs())
    def test_every_index_against_propagation(self, pair):
        a, b = pair
        images_a = [propagate(a, x) for x in range(2 ** a.n_wires)]
        images_b = [propagate(b, x) for x in range(2 ** b.n_wires)]
        assert circuit_permutation(a).images == tuple(images_a)
        assert circuit_permutation(b).images == tuple(images_b)
        expected = next((x for x, (i, j) in enumerate(zip(images_a, images_b))
                         if i != j), None)
        assert equivalent(a, b) == expected
        assert equivalent(b, a) == expected

    def test_forced_13_wires_with_a_5_qubit_gate(self):
        rng = random.Random(13)
        images = list(range(32))
        rng.shuffle(images)
        wide = Permutation(images)
        a = random_circuit(rng, 13, 12, force=True)
        a = Circuit(13, a.gates[:6] + (inst(wide, 12, 3, 0, 7, 9),)
                    + a.gates[6:], force=True)
        # the inverse of the wide gate, on other wires, after the rest
        b = Circuit(13, a.gates + (inst(wide.inverse(),
                                        1, 11, 5, 0, 8),), force=True)
        images_a = [propagate(a, x) for x in range(2 ** 13)]
        images_b = [propagate(b, x) for x in range(2 ** 13)]
        assert circuit_permutation(a).images == tuple(images_a)
        expected = next(x for x, (i, j) in enumerate(zip(images_a, images_b))
                        if i != j)
        assert equivalent(a, b) == expected
        assert equivalent(b, a) == expected
        assert equivalent(a, a) is None

    def test_each_permutation_compiles_once_per_call(self, monkeypatch):
        compiled = []
        compile_plan = circuit_module._anf_plan

        def counting(images):
            compiled.append(images)
            return compile_plan(images)

        monkeypatch.setattr(circuit_module, "_anf_plan", counting)
        rng = random.Random(41)
        # every gate touches wire 0 and no two neighbours share their wire
        # tuple, so nothing of a b^-1 cancels, merges or commutes
        tuples = [(0, 1), (1, 0), (0, 2), (2, 0), (0, 1, 2), (2, 0, 1)]
        gates, last = [], None
        for _ in range(60):
            wires = rng.choice([t for t in tuples if t != last])
            pool = [g for g in BUILTIN_GATES.values()
                    if g.size == 2 ** len(wires)]
            gate = rng.choice(pool) if rng.random() < 0.7 else \
                Permutation(rng.sample(range(2 ** len(wires)),
                                       2 ** len(wires)))
            if gate.is_identity():
                gate = pool[-1]
            gates.append(inst(gate, *wires))
            last = wires
        # b repeats a's gates as new Permutation objects, then its own
        a = Circuit(3, gates[:40])
        b = Circuit(3, [inst(Permutation(gi.gate.images), *gi.wires)
                        for gi in gates[:40]][::-1] + gates[40:])
        assert a.gates[-1].wires != b.gates[-1].wires
        assert len(survivors(a, b)) == len(a) + len(b)
        # b enters a b^-1 inverted
        distinct = ({gi.gate.images for gi in a.gates}
                    | {gi.gate.inverse().images for gi in b.gates})
        assert len(distinct) < len(a) + len(b)  # the count is not trivial
        first_index = equivalent(a, b)
        first = sorted(compiled)
        assert first == sorted(distinct)
        compiled.clear()
        equivalent(a, b)  # no plan outlived the first call
        assert sorted(compiled) == first
        compiled.clear()
        # a pair that cancels fully simulates, and compiles, nothing
        assert equivalent(a, a) is None
        assert equivalent(b, Circuit(3, b.gates)) is None
        assert compiled == []
        assert first_index == ref_equivalent(a, b) is not None


class TestReducedDifference:
    """equivalent reduces the word a b^-1 and simulates what is left."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(pair=edited_pairs())
    def test_against_the_two_circuit_reference(self, pair):
        a, b, kept = pair
        n = a.n_wires
        expected = ref_equivalent(a, b)
        if n <= 7:
            assert expected == next((x for x in range(2 ** n)
                                     if propagate(a, x) != propagate(b, x)),
                                    None)
            # every reduction step keeps the permutation of a b^-1
            word = word_circuit(n, survivors(a, b))
            assert circuit_permutation(word) == \
                circuit_permutation(b).inverse() * circuit_permutation(a)
        assert equivalent(a, b) == expected
        assert equivalent(b, a) == expected
        if kept:
            assert expected is None
            assert survivors(a, b) == []
            assert survivors(b, a) == []

    def test_commuted_pair_compiles_nothing(self, monkeypatch):
        def never(images):
            raise AssertionError("a gate was simulated")

        monkeypatch.setattr(circuit_module, "_anf_plan", never)
        a = Circuit(3, [inst(CNOT, 0, 1), inst(X, 2), inst(CNOT, 0, 1)])
        b = Circuit(3, [inst(X, 2)])
        assert equivalent(a, b) is None
        assert equivalent(b, a) is None

    def test_wire_set_in_another_order(self):
        a = Circuit(2, [inst(CNOT, 0, 1)])
        b = Circuit(2, [inst(CNOT, 1, 0)])
        assert ref_equivalent(a, b) == 1
        assert equivalent(a, b) == 1
        assert equivalent(b, a) == 1

    def test_merges_in_order(self):
        # two non-commuting 2-qubit gates: the product depends on the order
        g, h = Permutation([1, 3, 2, 0]), Permutation([0, 2, 3, 1])
        assert g * h != h * g
        a = Circuit(2, [inst(g, 0, 1), inst(h, 0, 1)])
        b = Circuit(2, [inst(h * g, 0, 1)])  # g, then h
        assert equivalent(a, b) is None
        assert survivors(a, b) == []
        c = Circuit(2, [inst(g * h, 0, 1)])
        assert equivalent(a, c) == ref_equivalent(a, c) is not None

    def test_linear_work_past_long_blocks(self):
        # each of b's chain gates finds its partner in a below a's block of
        # 50 000 gates on other wires: a walk down past the block would take
        # 2.5e9 steps
        n = 50_000
        chain = [inst(CNOT, *((0, 3) if i % 2 else (3, 0))) for i in range(n)]
        block = [inst(CNOT, *((1, 2) if i % 2 else (2, 1))) for i in range(n)]
        a = Circuit(4, chain + block)
        b = Circuit(4, block + chain)
        start = time.perf_counter()
        assert equivalent(a, b) is None
        assert equivalent(b, a) is None
        assert time.perf_counter() - start < 10


def rewritten(circuit, store, cancels=0):
    """optimize with a store, checking that its cancel pass removed exactly
    `cancels` gates, so the rest of the change is the rewrite pass's."""
    out, report = optimize(circuit, store)
    assert report.cancelled_gates == cancels
    return out


class TestCancelAdjacentInverses:
    """The cancel pass, through optimize without a store."""

    def test_cnot_pair(self):
        c = Circuit(2, [inst(CNOT, 0, 1), inst(CNOT, 0, 1)])
        assert len(optimize(c)[0]) == 0

    def test_non_involution_pair_stays(self):
        c = Circuit(2, [inst(B_GATE, 0, 1), inst(B_GATE, 0, 1)])
        assert optimize(c)[0] == c

    def test_inverse_pair_cancels(self):
        b_inv = B_GATE.inverse()
        c = Circuit(2, [inst(B_GATE, 0, 1), inst(b_inv, 0, 1)])
        assert len(optimize(c)[0]) == 0

    def test_different_wires_stay(self):
        c = Circuit(2, [inst(X, 0), inst(X, 1)])
        assert optimize(c)[0] == c

    def test_different_wire_order_stays(self):
        c = Circuit(2, [inst(CNOT, 0, 1), inst(CNOT, 1, 0)])
        assert optimize(c)[0] == c

    def test_identity_gates_deleted(self):
        ident = Permutation.identity(4)
        c = Circuit(2, [inst(CNOT, 0, 1), inst(ident, 1, 0), inst(CNOT, 0, 1),
                        inst(BUILTIN_GATES["I"], 1)])
        assert len(optimize(c)[0]) == 0

    def test_nested_pairs(self):
        c = Circuit(2, [inst(SWAP, 0, 1), inst(CNOT, 0, 1),
                        inst(CNOT, 0, 1), inst(SWAP, 0, 1)])
        assert len(optimize(c)[0]) == 0

    def test_builds_no_permutation_product(self, monkeypatch):
        def refuse(p, q):
            raise AssertionError("the cancel pass composed two permutations")

        b_inv = B_GATE.inverse()
        monkeypatch.setattr(Permutation, "__mul__", refuse)
        c = Circuit(2, [inst(X, 1), inst(B_GATE, 0, 1), inst(CNOT, 1, 0),
                        inst(CNOT, 1, 0), inst(b_inv, 0, 1), inst(X, 1),
                        inst(B_GATE, 0, 1), inst(B_GATE, 0, 1)])
        out, report = optimize(c)
        assert out == Circuit(2, [inst(B_GATE, 0, 1), inst(B_GATE, 0, 1)])
        assert report.cancelled_gates == 6

    def test_preserves_semantics(self):
        rng = random.Random(5)
        for _ in range(20):
            c = random_circuit(rng, 2, 10)
            out = optimize(c)[0]
            assert circuit_permutation(out) == circuit_permutation(c)
            assert len(out) <= len(c)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(c=circuits_with_identities())
    def test_matches_the_brute_force_reference(self, c):
        out, report = optimize(c)
        gates = ref_cancel(c.gates)
        assert out == Circuit(c.n_wires, gates)
        assert report.cancelled_gates == len(c) - len(gates)


def three_gate_template(store):
    """The first 3-gate template of `store`: no two of its gates cancel."""
    return next(t for t in store.templates if len(t.gates) == 3).gates


class TestTemplateRewrite:
    """The rewrite pass, through optimize with a store; each input is one
    the cancel pass leaves alone, before and after each rewrite."""

    def test_two_of_three_window(self, s4_store):
        u1, u2, u3 = three_gate_template(s4_store)
        c = Circuit(2, [inst(u1, 1, 0), inst(u2, 1, 0)])
        out = rewritten(c, s4_store)
        assert len(out) == 1
        assert out.gates[0].gate == u3.inverse()
        assert circuit_permutation(out) == circuit_permutation(c)

    def test_full_window_deleted(self, s4_store):
        c = two_wire(*(g.one_line() for g in three_gate_template(s4_store)))
        out, report = optimize(c, s4_store)
        assert len(out) == 0
        assert (report.cancelled_gates, report.template_rewrites) == (0, 1)

    def test_no_match_unchanged(self, s4_store):
        c = Circuit(2, [inst(SWAP, 0, 1)])
        assert rewritten(c, s4_store) == c
        pair = Circuit(2, [inst(B_GATE, 0, 1), inst(B_GATE, 0, 1)])
        assert rewritten(pair, TemplateStore(4)) == pair

    def test_wire_tuple_must_match(self, s4_store):
        # the two windows land on different wire tuples, so no rewrite
        c = Circuit(3, [inst(B_GATE, 0, 1), inst(B_GATE.inverse(), 0, 2)])
        assert rewritten(c, s4_store) == c

    def test_non_power_of_two_store_rejected(self):
        store = parse_store("templates dim=6\n"
                            "template: (6,1,2,3,4,5);(2,3,4,5,6,1)\n")
        with pytest.raises(DimensionError):
            optimize(Circuit(2), store)

    def test_oversized_store_is_noop(self):
        store = parse_store("templates dim=8\n"
                            "template: (8,1,2,3,4,5,6,7);(2,3,4,5,6,7,8,1)\n")
        c = Circuit(2, [inst(CNOT, 0, 1)])
        assert rewritten(c, store) == c

    def test_semantics_and_count_random(self, s4_store):
        rng = random.Random(41)
        for _ in range(25):
            c = random_circuit(rng, 2, 12)
            out, _ = optimize(c, s4_store)
            assert circuit_permutation(out) == circuit_permutation(c)
            assert len(out) <= len(c)

    def test_long_circuit_reaches_its_fixpoint(self, s4_store):
        # its fixpoint takes more than 10 000 rewrites, and every one runs
        rng = random.Random(0)
        s4 = list(enumerate_permutations(4))
        c = Circuit(2, [inst(rng.choice(s4), 0, 1) for _ in range(30_000)])
        out, report = optimize(c, s4_store)
        assert len(out) == 1
        assert report.template_rewrites > 10_000
        assert equivalent(out, c) is None

    def test_one_pass_is_linear_in_the_gate_count(self, monkeypatch):
        # 1000 blocks that never match, then 100 windows of four gates
        # composing to the identity; each rewrite moves at most longest - 1
        # gates back after the window, so the pass tries at most
        # len + rewrites * longest windows, where a scan restarting at gate
        # 0 after each rewrite would try the 1000 blocks again each time
        store = parse_store("templates dim=4\n"
                            "template: (2,4,3,1);(2,4,3,1);(1,4,2,3);(3,2,4,1)\n")
        calls = []
        match = _RewriteScan.match
        monkeypatch.setattr(_RewriteScan, "match", lambda self, perms: (
            calls.append(len(perms)) or match(self, perms)))
        cycle = Permutation([1, 2, 3, 0])
        gates = ([inst(B_GATE, 0, 1), inst(B_GATE, 0, 1), inst(X, 2)] * 1000
                 + ([inst(cycle, 0, 1)] * 4 + [inst(X, 2)]) * 100)
        given = list(gates)
        scan = _RewriteScan(store)
        out, applied = _template_rewrite(gates, scan)
        assert gates == given  # the pass builds a new list
        assert (len(out), applied) == (3100, 100)
        assert len(calls) <= len(gates) + applied * scan.longest
        assert equivalent(Circuit(3, out), Circuit(3, gates)) is None

    def test_resumes_where_the_rewrite_can_reach(self):
        # the rewrite at gate 4 deletes gates 4-7, so gate 8 becomes the
        # last gate of the 4-gate window at gate 1 = 4 - 4 + 1, which only
        # then matches; the pass must resume there, not later, or it would
        # end after 2 rewrites, the second of them the template on wires
        # (1, 0) at the end
        store = parse_store("templates dim=4\n"
                            "template: (2,4,3,1);(2,4,3,1);(1,4,2,3);(3,2,4,1)\n"
                            "template: (2,4,3,1);(1,4,2,3);(3,4,2,1);(3,4,2,1)\n")

        def on(wires, *texts):
            return [inst(Permutation.from_one_line(t), *wires)
                    for t in texts]

        tail = on((1, 0), "(2,4,3,1)", "(2,4,3,1)", "(1,4,2,3)", "(3,2,4,1)")
        c = Circuit(2, on((0, 1), "(4,1,3,2)", "(3,2,4,1)", "(4,3,1,2)",
                          "(4,3,1,2)", "(1,4,2,3)", "(1,4,2,3)", "(4,2,1,3)",
                          "(3,1,2,4)", "(3,1,2,4)") + tail)
        final = on((0, 1), "(4,1,3,2)")
        gates, applied = _template_rewrite(_cancel_inverses(c.gates),
                                           _RewriteScan(store))
        assert (gates, applied) == (final, 3)
        assert rewritten(c, store) == Circuit(2, final)

    def test_reversed_inverse_orientation(self):
        # the store keeps one orientation of a word, but the word read
        # backwards with every gate inverted is an identity template too
        store = parse_store("templates dim=4\n"
                            "template: (2,3,4,1);(2,3,1,4);(4,3,1,2)\n")
        assert (rewritten(two_wire("(2,3,4,1)", "(2,3,1,4)"), store)
                == two_wire("(3,4,2,1)"))
        assert (rewritten(two_wire("(3,4,2,1)", "(3,1,2,4)"), store)
                == two_wire("(2,3,4,1)"))

    def test_forward_reading_wins_a_tie(self):
        # the window composes to an involution, so both readings of the
        # one word match it at the same rank and size; forward wins
        store = parse_store(
            "templates dim=4\n"
            "template: (2,4,3,1);(1,2,4,3);(4,1,3,2);(2,3,1,4);(2,1,3,4)\n")
        c = two_wire("(2,4,3,1)", "(1,2,4,3)", "(4,1,3,2)")
        forward = two_wire("(2,1,3,4)", "(3,1,2,4)")
        reverse = two_wire("(2,3,1,4)", "(2,1,3,4)")
        assert equivalent(forward, c) is None
        assert equivalent(reverse, c) is None
        assert rewritten(c, store) == forward

    def test_deterministic(self, s4_store):
        rng = random.Random(43)
        c = random_circuit(rng, 2, 15)
        first = optimize(c, s4_store)
        second = optimize(c, s4_store)
        assert first == second


class TestOptimize:
    def test_pair_plus_cnot(self, s4_store):
        c = Circuit(2, [inst(X, 0), inst(X, 0), inst(CNOT, 0, 1)])
        out, report = optimize(c, s4_store)
        assert out.gates == (inst(CNOT, 0, 1),)
        assert report.gates_before == 3
        assert report.gates_after == 1
        assert report.removed == 2

    def test_without_store(self):
        c = Circuit(1, [inst(X, 0), inst(X, 0)])
        out, report = optimize(c)
        assert len(out) == 0
        assert report.removed == 2

    def test_non_power_of_two_store_refused(self):
        store = parse_store("templates dim=6\n"
                            "template: (6,1,2,3,4,5);(2,3,4,5,6,1)\n")
        c = Circuit(2, [inst(CNOT, 0, 1), inst(CNOT, 0, 1), inst(X, 1)])
        with pytest.raises(DimensionError, match=(
                r"^store dimension 6 is not a power of two; it can never "
                r"match a window of qubit gates$")):
            optimize(c, store)

    def test_identity_gate_deleted(self):
        c = parse_circuit("qubits 1\ngate I 0\n")
        out, report = optimize(c)
        assert len(out) == 0
        assert report.cancelled_gates == 1

    def test_identity_in_a_run_deleted(self, s4_store):
        # without the identity gate, the other two are an inverse pair
        c = two_wire("(1,2,3,4)", "(2,3,4,1)", "(4,1,2,3)")
        out, report = optimize(c, s4_store)
        assert len(out) == 0
        assert (report.cancelled_gates, report.template_rewrites) == (3, 0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(c=circuits_with_identities())
    def test_sound_shrinking_idempotent_and_identity_free(self, s4_store, c):
        for store in (None, s4_store):
            out, report = optimize(c, store)
            assert equivalent(out, c) is None
            assert len(out) <= len(c)
            assert optimize(out, store) == (out, OptimizeReport(
                len(out), len(out), 0, 0))
            assert not any(g.gate.is_identity() for g in out.gates)
            assert report.gates_after == len(out)

    def test_idempotent(self, s4_store):
        rng = random.Random(47)
        for _ in range(10):
            c = random_circuit(rng, 2, 10)
            once, _ = optimize(c, s4_store)
            twice, report = optimize(once, s4_store)
            assert twice == once
            assert report.removed == 0

    def test_random_preservation(self, s4_store):
        rng = random.Random(53)
        for _ in range(50):
            n = rng.randint(1, 3)
            c = random_circuit(rng, n, rng.randint(0, 20))
            out, report = optimize(c, s4_store)
            assert circuit_permutation(out) == circuit_permutation(c)
            assert len(out) <= len(c)
            assert report.gates_after == len(out)


class TestCircuitFiles:
    def test_round_trip(self, tmp_path):
        c = Circuit(3, [inst(CNOT, 0, 2), inst(B_GATE, 2, 1), inst(X, 1)])
        text = format_circuit(c)
        assert parse_circuit(text) == c
        path = tmp_path / "c.circ"
        save_circuit(c, path)
        assert load_circuit(path) == c

    @settings(max_examples=200, deadline=None)
    @given(round_trip_circuits())
    def test_round_trip_property(self, c):
        text = format_circuit(c)
        parsed = parse_circuit(text)
        assert parsed == c
        assert format_circuit(parsed) == text

    def test_name_comes_from_the_permutation(self):
        # a gate is its permutation, so no name can disagree with it
        ident = Circuit(1, [inst(Permutation([0, 1]), 0)])
        assert format_circuit(ident) == "qubits 1\ngate I 0\n"
        # an X built from its permutation round-trips to an equal circuit
        x = Circuit(1, [inst(Permutation([1, 0]), 0)])
        assert format_circuit(x) == "qubits 1\ngate X 0\n"
        assert parse_circuit(format_circuit(x)) == x
        assert parse_circuit("qubits 1\nperm (2,1) 0\n") == x
        two = Circuit(2, [inst(Permutation([0, 2, 1, 3]), 0, 1),
                          inst(Permutation([1, 3, 2, 0]), 0, 1)])
        assert format_circuit(two) == \
            "qubits 2\ngate SWAP 0 1\nperm (4,1,3,2) 0 1\n"

    def test_format_text(self):
        c = Circuit(2, [inst(CNOT, 0, 1), inst(B_GATE, 1, 0)])
        assert format_circuit(c) == \
            "qubits 2\ngate CNOT 0 1\nperm (4,1,3,2) 1 0\n"

    def test_each_gate_objects_head_is_built_once(self, monkeypatch):
        twin = Permutation(B_GATE.images)  # equal to B_GATE, another object
        c = Circuit(3, [inst(B_GATE, 1, 0), inst(CNOT, 0, 2), inst(B_GATE, 2, 1),
                        inst(twin, 0, 1), inst(B_GATE, 1, 0)])
        rendered = []
        one_line = Permutation.one_line

        def counted_one_line(self):
            rendered.append(self)
            return one_line(self)

        monkeypatch.setattr(Permutation, "one_line", counted_one_line)
        assert format_circuit(c) == (
            "qubits 3\nperm (4,1,3,2) 1 0\ngate CNOT 0 2\nperm (4,1,3,2) 2 1\n"
            "perm (4,1,3,2) 0 1\nperm (4,1,3,2) 1 0\n")
        assert len(rendered) == 2  # B_GATE and its twin, once each

    def test_comments_and_blanks(self):
        text = ("# a circuit\n"
                "qubits 2\n"
                "\n"
                "gate X 0  # flip\n"
                "perm (2, 1) 1\n")
        c = parse_circuit(text)
        assert c.n_wires == 2
        assert len(c) == 2
        assert c.gates[1].gate == Permutation([1, 0])

    def test_missing_header(self):
        with pytest.raises(FileFormatError, match="line 1"):
            parse_circuit("gate X 0\n")
        with pytest.raises(FileFormatError, match="line 1"):
            parse_circuit("")

    def test_header_errors_carry_line(self):
        with pytest.raises(FileFormatError, match="line 2: a circuit of 13 "
                                                  "wires refused: cap is 12 wires"):
            parse_circuit("# wide\nqubits 13\ngate X 12\n")
        with pytest.raises(FileFormatError, match="line 1: invalid wire count 0"):
            parse_circuit("qubits 0\n")
        assert parse_circuit("qubits 13\ngate X 12\n", force=True).n_wires == 13

    def test_unknown_gate(self):
        with pytest.raises(FileFormatError, match="line 2: unknown gate 'FOO'"):
            parse_circuit("qubits 2\ngate FOO 0\n")

    def test_arity_mismatch(self):
        with pytest.raises(FileFormatError, match="line 2"):
            parse_circuit("qubits 2\ngate CNOT 0\n")

    def test_wire_out_of_range(self):
        with pytest.raises(FileFormatError,
                           match=r"^line 3: wire 2 out of range 0\.\.1$"):
            parse_circuit("qubits 2\ngate X 0\ngate X 2\n")

    @pytest.mark.parametrize("line", ["gate X", "perm (2,1)", "perm (2,1) # 0"])
    def test_empty_wire_list_gets_the_arity_message(self, line):
        with pytest.raises(FileFormatError,
                           match=r"^line 2: gate X needs 1 wires, got 0$"):
            parse_circuit(f"qubits 2\n{line}\n")

    @pytest.mark.parametrize("token", ["1_0", "+1", "-1", "0x1", "\u0661"])
    def test_wire_index_is_ascii_digits(self, token):
        with pytest.raises(FileFormatError,
                           match=rf"^line 2: bad wire index {re.escape(repr(token))}$"):
            parse_circuit(f"qubits 11\ngate X {token}\n")

    @pytest.mark.parametrize("token", ["1_2", "+2", "-2", "0x2", "\u0662"])
    def test_wire_count_is_ascii_digits(self, token):
        with pytest.raises(FileFormatError,
                           match=rf"^line 1: bad wire count {re.escape(repr(token))}$"):
            parse_circuit(f"qubits {token}\n")

    def test_repeated_wire(self):
        with pytest.raises(FileFormatError, match="line 2"):
            parse_circuit("qubits 2\ngate CNOT 1 1\n")

    def test_bad_notation(self):
        with pytest.raises(FileFormatError, match="line 2"):
            parse_circuit("qubits 2\nperm (1,1) 0\n")

    def test_bad_wire_token(self):
        with pytest.raises(FileFormatError, match="line 2"):
            parse_circuit("qubits 2\ngate X zero\n")

    def test_unknown_directive(self):
        with pytest.raises(FileFormatError, match="line 2"):
            parse_circuit("qubits 2\napply X 0\n")

    def test_inline_non_power_of_two(self):
        with pytest.raises(FileFormatError, match="line 2"):
            parse_circuit("qubits 2\nperm (2,3,1) 0 1\n")
