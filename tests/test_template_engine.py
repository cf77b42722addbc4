"""The integer template engine against a Permutation-level reference.

The reference below runs generation, loading and the rewrite scan the way
they ran on Permutation objects: two_gate_templates, expand_template,
Template.is_degenerate, Template.canonical_key and Template.verifies on
every candidate, a store keyed by image tuples, and a scan that composes
every window and template slice, reads each template forward and then
backwards with its gates inverted, and restarts at gate 0 after each
rewrite; its cancel pass is test_circuit's brute-force ref_cancel.
Libraries are random subgroups of S_3 and S_4, listed in shuffled order
so that library index order is not image order.
"""

import collections
import functools
import hashlib
import random
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permgate
from permgate import cli
from permgate.circuit import (
    BUILTIN_GATES,
    Circuit,
    GateInstance,
    OptimizeReport,
    optimize,
)
from permgate.errors import FileFormatError, WiringError
from permgate.perm import Permutation, _product, enumerate_permutations
from permgate.templates import (
    GateLibrary,
    Template,
    TemplateStore,
    _RewriteScan,
    expand_template,
    format_store,
    generate_templates,
    parse_store,
    two_gate_templates,
)
from test_circuit import ref_cancel

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None)
S4 = list(enumerate_permutations(4))


# --- the reference ----------------------------------------------------------


class RefStore:
    def __init__(self, dimension):
        self.dimension = dimension
        self.templates = []
        self.keys = set()
        self.complete = True

    def add(self, t):
        if not t.verifies():
            raise ValueError(f"template does not compose to identity: {t.one_line()}")
        key = t.canonical_key()
        if key in self.keys:
            return False
        self.keys.add(key)
        self.templates.append(t)
        return True

    def subsumes(self, t):
        n = len(t.gates)
        for size in range(2, n):
            for off in range(n):
                window = Template(tuple(t.gates[(off + k) % n] for k in range(size)))
                if window.verifies() and window.canonical_key() in self.keys:
                    return True
        return False


def ref_generate(library, max_size, max_templates):
    store = RefStore(library.dimension)

    def over_budget():
        if len(store.templates) >= max_templates:
            store.complete = False
            warnings.warn("partial")
            return True
        return False

    def try_add(t):
        if (t.is_degenerate() or t.canonical_key() in store.keys
                or store.subsumes(t)):
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


def ref_format(store):
    body = sorted((len(t.gates), t.one_line()) for t in store.templates)
    return "".join([f"templates dim={store.dimension}\n"]
                   + [f"template: {text}\n" for _, text in body])


def ref_parse(text):
    lines = text.splitlines()
    store = RefStore(int(lines[0].split("=", 1)[1]))
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        gates = tuple(Permutation.from_one_line(p)
                      for p in line[len("template:"):].split(";"))
        try:
            store.add(Template(gates))
        except ValueError as exc:
            raise FileFormatError(lineno, str(exc)) from None
    return store


def ref_find_rewrite(circuit, templates, dimension):
    gates = circuit.gates
    longest = max((len(t.gates) for t in templates), default=0)
    for start in range(len(gates)):
        wires = gates[start].wires
        if 2 ** len(wires) != dimension:
            continue
        run = 1
        while (run < longest and start + run < len(gates)
               and gates[start + run].wires == wires):
            run += 1
        if run < 2:
            continue
        windows = [_product((g.gate for g in gates[start:start + p]), dimension)
                   for p in range(run + 1)]
        for t in templates:
            m = len(t.gates)
            cyclic = t.gates * 2
            for p in range(min(m, run), m // 2, -1):
                # forward, the window composes to p consecutive gates; read
                # backwards with every gate inverted, to their inverse
                for reverse in (False, True):
                    window = windows[p].inverse() if reverse else windows[p]
                    for offset in range(m):
                        if _product(cyclic[offset:offset + p], dimension) != window:
                            continue
                        rest = cyclic[offset + p:offset + m]
                        rest = rest if reverse else [g.inverse() for g in reversed(rest)]
                        return start, p, [GateInstance(g, wires)
                                          for g in rest]
    return None


def scan_words(store):
    """The words the rewrite scan ranks: a loaded store's lines as read
    until the first read of its contents deduplicates them."""
    return store._words if store._as_read is None else store._as_read


def ref_scan_lookup(store):
    """The rewrite scan's ranked words and per-length lookup, each window
    keyed by its own forward composition, over the store's gate table."""
    mul = store._table.mul
    ranked = sorted(scan_words(store), key=lambda w: -len(w))
    longest = len(ranked[0]) if ranked else 0
    first = [{} for _ in range(longest + 1)]
    for rank, word in enumerate(ranked):
        m = len(word)
        cyclic = word + word
        for offset in range(m):
            acc = word[offset]
            for p in range(2, m + 1):
                acc = mul[cyclic[offset + p - 1]][acc]
                if p > m // 2:
                    first[p].setdefault(acc, (rank, offset))
    return ranked, first


def ref_optimize(circuit, store):
    templates = sorted(store.templates, key=lambda t: -len(t.gates))
    before, cancelled, rewrites = len(circuit), 0, 0
    while True:
        shrunk = Circuit(circuit.n_wires, ref_cancel(circuit.gates), force=True)
        cancelled += len(circuit) - len(shrunk)
        circuit = shrunk
        applied = 0
        while True:
            hit = ref_find_rewrite(circuit, templates, store.dimension)
            if hit is None:
                break
            start, count, replacement = hit
            circuit = Circuit(circuit.n_wires,
                              circuit.gates[:start] + tuple(replacement)
                              + circuit.gates[start + count:],
                              force=True)
            applied += 1
        rewrites += applied
        if applied == 0:
            break
    return circuit, OptimizeReport(before, len(circuit), cancelled, rewrites)


# --- strategies -------------------------------------------------------------


def closure(generators, dimension):
    group = {Permutation.identity(dimension)}
    frontier = list(group)
    while frontier:
        frontier = [g * a for a in frontier for g in generators
                    if g * a not in group]
        group.update(frontier)
    return group


@st.composite
def libraries(draw, dimensions=(3, 4)):
    """A subgroup of S_m from one or two random generators, in shuffled
    order."""
    m = draw(st.sampled_from(dimensions))
    generators = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=2))
    group = closure([Permutation(g) for g in generators], m)
    order = draw(st.permutations(sorted(group)))
    return GateLibrary(m, [(p.one_line(), p) for p in order])


def max_size_for(library):
    # keeps the reference search at a few tenths of a second per example
    return 5 if len(library) <= 6 else 4 if len(library) <= 12 else 3


@st.composite
def circuits(draw, pool, widths=st.just(3)):
    """Same-wire runs of two-qubit gates on 3 wires (or a width drawn from
    `widths`), from `pool` or all of S_4, some followed by a one-qubit X."""
    n_wires = draw(widths)
    gate = st.sampled_from(pool) | st.sampled_from(S4)
    gates = []
    for _ in range(draw(st.integers(0, 5))):
        wires = tuple(draw(st.permutations(range(n_wires)))[:2])
        for perm in draw(st.lists(gate, min_size=1, max_size=6)):
            gates.append(GateInstance(perm, wires))
        if draw(st.booleans()):
            gates.append(GateInstance(BUILTIN_GATES["X"],
                                      (draw(st.integers(0, n_wires - 1)),)))
    return Circuit(n_wires, gates)


@st.composite
def hand_stores(draw):
    """Store text over S_4 that is not group-closed: random identity words
    of 2-4 gates, some repeated up to rotation or reversal with inverses."""
    words = []
    for _ in range(draw(st.integers(1, 8))):
        head = [Permutation(draw(st.permutations(range(4))))
                for _ in range(draw(st.integers(1, 3)))]
        words.append(tuple(head) + (_product(head, 4).inverse(),))
    for word in draw(st.lists(st.sampled_from(words), max_size=3)):
        r = draw(st.integers(0, len(word) - 1))
        word = word[r:] + word[:r]
        if draw(st.booleans()):
            word = tuple(g.inverse() for g in reversed(word))
        words.append(word)
    lines = ["templates dim=4", "# hand-written"]
    lines += ["template: " + ";".join(g.one_line() for g in w) for w in words]
    return "\n".join(lines) + "\n"


def gate_lists(store):
    return [t.gates for t in store.templates]


# --- properties -------------------------------------------------------------


@SETTINGS
@given(library=libraries())
def test_generation_matches_reference(library):
    max_size = max_size_for(library)
    store = generate_templates(library, max_size)
    ref = ref_generate(library, max_size, 50_000)
    text = format_store(store)
    assert text == ref_format(ref)
    assert store.complete and ref.complete
    assert gate_lists(store) == gate_lists(ref)
    loaded = parse_store(text)
    assert format_store(loaded) == text
    assert gate_lists(loaded) == gate_lists(ref_parse(text))


@SETTINGS
@given(library=libraries(), data=st.data())
def test_partial_stores_match_reference(library, data):
    max_size = max_size_for(library)
    budget = data.draw(st.integers(0, 12))
    with warnings.catch_warnings(record=True) as ours:
        warnings.simplefilter("always")
        store = generate_templates(library, max_size, max_templates=budget)
    with warnings.catch_warnings(record=True) as theirs:
        warnings.simplefilter("always")
        ref = ref_generate(library, max_size, budget)
    assert store.complete == ref.complete
    assert len(ours) == len(theirs)
    assert format_store(store) == ref_format(ref)
    assert gate_lists(store) == gate_lists(ref)


@SETTINGS
@given(library=libraries(dimensions=(4,)), data=st.data())
def test_optimize_matches_reference(library, data):
    store = generate_templates(library, max_size_for(library))
    ref = ref_generate(library, max_size_for(library), 50_000)
    for _ in range(3):
        circuit = data.draw(circuits(list(library.gates)))
        assert optimize(circuit, store) == ref_optimize(circuit, ref)


@SETTINGS
@given(text=hand_stores(), data=st.data())
def test_hand_written_store_matches_reference(text, data):
    store = parse_store(text)
    ref = ref_parse(text)
    assert gate_lists(store) == gate_lists(ref)
    assert format_store(store) == ref_format(ref)
    pool = sorted({g for t in ref.templates for g in t.gates})
    for _ in range(3):
        circuit = data.draw(circuits(pool))
        assert optimize(circuit, store) == ref_optimize(circuit, ref)


@SETTINGS
@given(text=hand_stores(), data=st.data())
def test_loader_errors_match_reference(text, data):
    lines = text.splitlines()
    bad = Permutation(data.draw(st.permutations(range(4))))
    line = f"template: {bad.one_line()};{bad.one_line()}"
    lines.insert(data.draw(st.integers(1, len(lines))), line)
    text = "\n".join(lines) + "\n"
    if bad.is_involution():
        assert gate_lists(parse_store(text)) == gate_lists(ref_parse(text))
        return
    with pytest.raises(FileFormatError) as ours:
        parse_store(text)
    with pytest.raises(FileFormatError) as theirs:
        ref_parse(text)
    assert str(ours.value) == str(theirs.value)


def rotations_of(words):
    return {w[k:] + w[:k] for w in words for k in range(len(w))}


def test_store_shared_across_threads(monkeypatch):
    # threads optimizing with one loaded store intern the circuits' new
    # gates into its table at the same time, while others read its length
    # and templates, the first of which deduplicates the lines as read;
    # each must still get the result of a store used by one thread, and
    # the deduplication runs once
    lines = list(s4_store_lines(3))
    text = "".join(["templates dim=4\n",
                    "template: (2,4,3,1);(2,4,3,1);(1,4,2,3);(3,2,4,1)\n",
                    "template: (2,4,3,1);(1,4,2,3);(3,4,2,1);(3,4,2,1)\n",
                    "template: (2,1,3,4);(2,1,3,4)\n"]
                   + [line + "\n" for line in lines + lines[::-1]])
    rng = random.Random(7)
    circuits = [Circuit(2, [GateInstance(rng.choice(S4), (0, 1))
                            for _ in range(12)]) for _ in range(16)]
    expected = [optimize(c, parse_store(text)) for c in circuits]
    alone = parse_store(text)
    size, templates = len(alone), gate_lists(alone)
    assert size < text.count("template:")

    def read(i, circuit):
        # each thread reads the three ways, in one of three orders
        steps = [lambda: optimize(circuit, store), lambda: len(store),
                 lambda: gate_lists(store)]
        out = [None] * 3
        for k in (0, 1, 2)[i % 3:] + (0, 1, 2)[:i % 3]:
            out[k] = steps[k]()
        return out

    known = []
    real_known = TemplateStore._known

    def counted_known(self, word):
        known.append(word)
        return real_known(self, word)

    monkeypatch.setattr(TemplateStore, "_known", counted_known)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            store = parse_store(text)
            known.clear()
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(read, range(len(circuits)), circuits,
                                        timeout=60))
            assert [r[0] for r in results] == expected
            assert {r[1] for r in results} == {size}
            assert all(r[2] == templates for r in results)
            assert len(known) == text.count("template:")  # one pass
            assert len(set(store._words)) == len(store._words) == size
            assert store._rotations == rotations_of(store._words)
            images = [p.images for p in store._table.perms]
            assert len(set(images)) == len(images)
    finally:
        sys.setswitchinterval(interval)


def assert_gate_table_consistent(table):
    perms = table.perms
    assert len(table._index) == len(perms)
    for i, p in enumerate(perms):
        assert table._index[p.images] == i
    assert len(table.mul) == len(perms)
    for a, row in enumerate(table.mul):
        for b, c in row.items():
            assert 0 <= c < len(perms) and perms[c] == perms[a] * perms[b]
    for a, b in table.inv.items():
        assert perms[b] == perms[a].inverse()
    assert perms[table.identity].is_identity()


def test_gate_table_invariants_hold_after_each_way_in():
    # generation, loading and a rewrite scan that meets gates and products
    # the store never held all leave each gate at one index, under which
    # the table finds it, with every memoised product and inverse right
    generated = generate_templates(GateLibrary.symmetric_group(4), 4)
    loaded = parse_store(format_store(generated))
    partial = parse_store("templates dim=4\n"
                          "template: (1,2,4,3);(1,2,4,3)\n")
    rng = random.Random(5)
    circuit = Circuit(2, [GateInstance(rng.choice(S4), (0, 1))
                          for _ in range(40)])
    held = len(partial._table.perms)
    optimize(circuit, partial)
    assert len(partial._table.perms) > held
    for store in (generated, loaded, partial):
        assert_gate_table_consistent(store._table)


@pytest.mark.parametrize("blocks", [100, 200])
def test_optimize_builds_one_circuit_per_call(blocks, monkeypatch):
    # each block's B, B rewrites to one gate, and X on wire 2 keeps the
    # blocks apart: `blocks` rewrites in all
    store = generate_templates(GateLibrary.symmetric_group(4), 3)
    b = Permutation.from_one_line("(4,1,3,2)")
    block = [GateInstance(b, (0, 1)), GateInstance(b, (0, 1)),
             GateInstance(BUILTIN_GATES["X"], (2,))]
    circuit = Circuit(3, block * blocks)
    built = []
    init = Circuit.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Circuit, "__init__", counting_init)
    optimized, report = optimize(circuit, store)
    assert report.template_rewrites == blocks
    assert len(optimized) == 2 * blocks
    assert len(built) == 1


def test_optimize_checks_no_wire_again(monkeypatch):
    # every gate optimize returns comes from a checked circuit or from a
    # rewrite on a checked window's wires; a Circuit built by hand is
    # still checked
    store = generate_templates(GateLibrary.symmetric_group(4), 3)
    b = Permutation.from_one_line("(4,1,3,2)")
    circuit = Circuit(3, [GateInstance(b, (0, 1)), GateInstance(b, (0, 1)),
                          GateInstance(BUILTIN_GATES["X"], (2,)),
                          GateInstance(BUILTIN_GATES["X"], (2,)),
                          GateInstance(BUILTIN_GATES["CNOT"], (2, 1))] * 3)
    checked = []
    check = Circuit._check_wires

    def counting_check(self, wires):
        checked.append(wires)
        check(self, wires)

    monkeypatch.setattr(Circuit, "_check_wires", counting_check)
    optimized, report = optimize(circuit, store)
    assert report.template_rewrites > 0 and report.cancelled_gates > 0
    assert checked == []
    assert Circuit(3, optimized.gates) == optimized
    assert len(checked) == len(optimized)
    with pytest.raises(WiringError):
        Circuit(2, optimized.gates)


def calls_into_permgate(fn):
    """fn's result, and how often each permgate function ran during it."""
    src = str(Path(permgate.__file__).parent)
    counts = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(src):
            counts[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, counts


def test_one_rotation_set_per_stored_template():
    # S_4 max 4 keeps 1507 of 7056 candidates.  Each stored template adds
    # its rotations once, and per candidate only the rotation-set lookup
    # and the subsumption walk may run: no canonical key or degeneracy
    # routine.  A loaded store adds them at the first read of its length.
    library = GateLibrary.symmetric_group(4)
    store, made = calls_into_permgate(lambda: generate_templates(library, 4))
    text = format_store(store)

    def load_and_read():
        loaded = parse_store(text)
        len(loaded)
        return loaded

    loaded, read = calls_into_permgate(load_and_read)
    assert len(store) == len(loaded) == 1507
    per_candidate = {"try_add", "_known", "_subsumes", "<listcomp>"}
    for result, counts in ((store, made), (loaded, read)):
        assert counts["_insert"] == len(result)
        assert {name for name, n in counts.items() if n > len(result)} \
            <= per_candidate
        assert result._rotations == {w[k:] + w[:k] for w in result._words
                                     for k in range(len(w))}
    assert made["try_add"] > 4 * len(store)  # the profile saw the candidates
    # a candidate under 6 gates contains no shorter identity factor, so
    # only 6-gate candidates are walked for stored templates
    assert made["_subsumes"] == 0
    _, walked = calls_into_permgate(
        lambda: generate_templates(GateLibrary.symmetric_group(3), 6))
    assert walked["_subsumes"] > 0


def test_optimize_with_a_loaded_store_deduplicates_nothing(tmp_path):
    # the rewrite scan ranks the lines as read, so neither optimize nor the
    # optimize command builds a rotation or looks a line up; a later read
    # of the store's length still deduplicates it
    lines = list(s4_store_lines(3))
    text = "templates dim=4\n" + "".join(
        line + "\n" for line in lines + lines[::-1])
    rng = random.Random(3)
    circuit = Circuit(2, [GateInstance(rng.choice(S4), (0, 1))
                          for _ in range(40)])
    store = parse_store(text)
    (_, report), counts = calls_into_permgate(lambda: optimize(circuit, store))
    assert report.template_rewrites > 0
    assert counts["_insert"] == counts["_known"] == 0
    assert len(store) == len(lines)
    (tmp_path / "s.tmpl").write_text(text)
    (tmp_path / "c.circ").write_text("qubits 2\n" + "".join(
        f"perm {g.gate.one_line()} 0 1\n" for g in circuit.gates))
    argv = ["optimize", "--circuit", str(tmp_path / "c.circ"), "--templates",
            str(tmp_path / "s.tmpl"), "--out", str(tmp_path / "c.opt")]
    code, counts = calls_into_permgate(lambda: cli.main(argv))
    assert code == 0
    assert counts["_insert"] == counts["_known"] == 0


READS = {"len": len, "templates": gate_lists, "format_store": format_store}


@pytest.mark.parametrize("read", [*READS, "_subsumes"])
def test_each_read_of_a_loaded_store_deduplicates_it(read):
    # the S_4 max-3 store, then its lines again in reverse order
    lines = list(s4_store_lines(3))
    plain = parse_store("templates dim=4\n" + "".join(
        line + "\n" for line in lines))
    store = parse_store("templates dim=4\n" + "".join(
        line + "\n" for line in lines + lines[::-1]))
    assert len(store._as_read) == 2 * len(lines)
    assert store._words == [] and store._rotations == set()
    if read == "_subsumes":
        # the doubled last line holds it as a cyclic factor
        assert store._subsumes(store._as_read[-1] * 2)
    else:
        assert READS[read](store) == READS[read](plain)
    assert store._as_read is None and len(store._words) == len(lines)
    assert store._rotations == rotations_of(store._words)


@pytest.mark.parametrize("dimension, budget", [
    (2, 0), (2, 1), (2, 2), (3, 17), (3, 51), (3, 52),
    (3, 3), (3, 4), (3, 5), (4, 15), (4, 16), (4, 17)])
def test_budget_is_checked_before_skipped_candidates(dimension, budget):
    # S_2 stores one template, and every expansion of it is degenerate; at
    # a budget of 1 those skipped candidates still find the store full, so
    # the result is partial and warns, as the reference's is
    library = GateLibrary.symmetric_group(dimension)
    with warnings.catch_warnings(record=True) as ours:
        warnings.simplefilter("always")
        store = generate_templates(library, 6, max_templates=budget)
    with warnings.catch_warnings(record=True) as theirs:
        warnings.simplefilter("always")
        ref = ref_generate(library, 6, budget)
    assert gate_lists(store) == gate_lists(ref)
    assert store.complete == ref.complete
    assert len(ours) == len(theirs)


# A hand-written store need not be free of identity gates and adjacent
# inverse pairs; the 5- and 6-gate lines take the scan lookup's product path.
DEGENERATE_STORE = """templates dim=4
template: (1,2,3,4);(1,2,3,4)
template: (1,2,3,4);(2,3,1,4);(3,1,2,4)
template: (2,1,3,4);(2,1,3,4);(1,3,2,4);(1,3,2,4)
template: (2,1,3,4);(1,2,3,4);(2,1,3,4);(1,3,2,4);(1,3,2,4)
template: (2,3,1,4);(2,3,1,4);(2,3,1,4);(1,2,3,4);(4,3,2,1);(4,3,2,1)
template: (2,3,4,1);(2,3,4,1);(2,1,4,3);(1,2,3,4);(3,4,1,2);(2,1,4,3)
"""


def assert_scan_matches_forward_walk(store):
    # a loaded store's scan ranks its lines as read until the first read of
    # the store's length deduplicates them: both states are checked
    for _ in range(2):
        scan = _RewriteScan(store)
        ranked, first = ref_scan_lookup(store)
        assert scan.ranked == ranked
        assert scan.first == first
        len(store)


def shuffled(text, rng):
    header, *lines = text.splitlines()
    rng.shuffle(lines)
    return "\n".join([header] + lines) + "\n"


@pytest.mark.parametrize("dimension, max_size, budget", [
    (2, 6, 50_000), (3, 6, 50_000), (4, 4, 50_000), (4, 5, 50_000),
    (4, 6, 3000)])
def test_scan_lookup_matches_forward_walk(dimension, max_size, budget):
    # each window keyed by its remainder's inverse gives the forward walk's
    # lookup: on the generated store, on it loaded (a table that grows as
    # it goes) and loaded with its lines shuffled
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        store = generate_templates(GateLibrary.symmetric_group(dimension),
                                   max_size, max_templates=budget)
    text = format_store(store)
    rng = random.Random(dimension * 10 + max_size)
    for each in [store, parse_store(text)] + [parse_store(shuffled(text, rng))
                                              for _ in range(2)]:
        assert_scan_matches_forward_walk(each)


def test_scan_lookup_on_a_degenerate_hand_written_store():
    rng = random.Random(5)
    for text in [DEGENERATE_STORE] + [shuffled(DEGENERATE_STORE, rng)
                                      for _ in range(3)]:
        assert_scan_matches_forward_walk(parse_store(text))



# Gate (4,1,2,3) is only in the last 4-gate and the last 3-gate line, so
# each length's lookup is complete only after its last line.
LAST_LINE_STORE = """templates dim=4
template: (2,1,3,4);(3,1,4,2);(1,3,4,2);(3,4,1,2)
template: (4,1,2,3);(1,3,4,2);(4,1,2,3);(1,3,4,2)
template: (4,3,1,2);(2,4,1,3);(4,2,1,3)
template: (4,2,1,3);(4,1,2,3);(4,3,1,2)
"""

# (4,1,3,2) is here but not its inverse (2,4,3,1), and the 5-gate line
# keys some of first[3] before the 4-gate line is read: the keys still
# missing there are inverses of the 4-gate line's gates, not its gates.
NOT_INVERSE_CLOSED_STORE = """templates dim=4
template: (2,3,4,1);(2,1,4,3);(1,3,4,2);(2,1,3,4);(1,4,2,3)
template: (4,2,3,1);(4,1,3,2);(4,2,3,1);(4,1,3,2)
"""


def test_scan_lookup_keys_the_last_line_of_each_length():
    store = parse_store(LAST_LINE_STORE)
    assert len(store) == 4
    assert_scan_matches_forward_walk(store)


def test_scan_lookup_on_a_store_not_closed_under_inverses():
    store = parse_store(NOT_INVERSE_CLOSED_STORE)
    gates = {g for t in store.templates for g in t.gates}
    assert {g.inverse() for g in gates} != gates
    assert_scan_matches_forward_walk(store)


@functools.cache
def s4_store_lines(max_size):
    text = format_store(generate_templates(GateLibrary.symmetric_group(4),
                                           max_size))
    return tuple(text.splitlines()[1:])


@SETTINGS
@given(data=st.data())
def test_scan_lookup_on_shuffled_subsets_of_a_store(data):
    lines = data.draw(st.lists(st.sampled_from(s4_store_lines(4)), min_size=1,
                               max_size=60, unique=True))
    lines = data.draw(st.permutations(lines))
    assert_scan_matches_forward_walk(
        parse_store("\n".join(["templates dim=4"] + lines) + "\n"))


def line_word(line):
    return tuple(map(Permutation.from_one_line, line[len("template: "):].split(";")))


def word_line(word):
    return "template: " + ";".join(g.one_line() for g in word)


@SETTINGS
@given(data=st.data())
def test_duplicate_lines_change_no_rewrite(data):
    # a shuffled subset of the S_4 max-4 and max-5 stores, and the same
    # lines with rotations, reversed inverses and exact repeats of earlier
    # lines inserted after them: optimize and match read the padded lines
    # as read and must not tell the two apart, and once deduplicated the
    # padded store is the plain one
    # max-5 holds max-4's lines too: these draw the shorter lines more often
    pool = s4_store_lines(4) + s4_store_lines(5)
    lines = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40,
                               unique=True))
    lines = data.draw(st.permutations(lines))
    padded = list(lines)
    for _ in range(data.draw(st.integers(1, 40))):
        at = data.draw(st.integers(0, len(padded) - 1))
        word = line_word(padded[at])
        r = data.draw(st.integers(0, len(word) - 1))
        word = word[r:] + word[:r]
        if data.draw(st.booleans()):
            word = tuple(g.inverse() for g in reversed(word))
        padded.insert(data.draw(st.integers(at + 1, len(padded))),
                      word_line(word))
    plain = parse_store("\n".join(["templates dim=4"] + lines) + "\n")
    store = parse_store("\n".join(["templates dim=4"] + padded) + "\n")
    assert len(store._as_read) == len(padded)
    gates = sorted({g for line in lines for g in line_word(line)})
    for _ in range(3):
        circuit = data.draw(circuits(gates, widths=st.integers(2, 4)))
        assert optimize(circuit, store) == optimize(circuit, plain)
    windows = data.draw(st.lists(
        st.lists(st.sampled_from(gates) | st.sampled_from(S4), min_size=2,
                 max_size=4), min_size=1, max_size=20))
    reference = [_RewriteScan(plain).match(w) for w in windows]
    as_read = _RewriteScan(store)
    assert store._as_read is not None  # optimize and the scan read nothing
    assert [as_read.match(w) for w in windows] == reference
    assert len(store) == len(plain)
    assert gate_lists(store) == gate_lists(plain)
    assert format_store(store) == format_store(plain)
    deduplicated = _RewriteScan(store)
    assert len(deduplicated.ranked) == len(plain)
    assert [deduplicated.match(w) for w in windows] == reference


def test_forward_hit_wins_a_tie_with_the_backward_one():
    # the window's product is an involution, so at p = 3 the forward and
    # the backward lookup return the same hit: same rank, same p, and the
    # forward reading's replacement is the one the reference scan returns
    store = generate_templates(GateLibrary.symmetric_group(4), 5)
    window = [Permutation.from_one_line(g)
              for g in ("(1,2,4,3)", "(1,3,2,4)", "(1,2,4,3)")]
    assert _product(window, 4).is_involution()
    scan = _RewriteScan(store)
    p, replacement = scan.match(window)
    assert (p, [g.one_line() for g in replacement]) == (3, ["(1,4,2,3)", "(1,2,4,3)"])
    circuit = Circuit(2, [GateInstance(g, (0, 1)) for g in window])
    ranked = sorted(store.templates, key=lambda t: -len(t.gates))
    assert ref_find_rewrite(circuit, ranked, 4) == (
        0, 3, [GateInstance(g, (0, 1)) for g in replacement])


# --- byte identity ----------------------------------------------------------


@pytest.mark.parametrize("dimension, max_size, digest", [
    (3, 5, "2da404f450b2274f5083fe85718727dba9522dd0e39175cd870a1f3cfd9d6cb0"),
    (3, 6, "b4b16a21fe9914125889a086e4581fb403d33a5c8c44dd40ecf260e36303cd17"),
    (4, 3, "8016de5d18a51b21d33ac16b8f199b3ad979578aac2a6f055b55756dc593f77b"),
    (4, 4, "e65d7e81e7cc4e2b671dbd1216f15386ea168c727d93fd78438fb1e9639d9204"),
    (4, 5, "a8253dc79897e98b16e748d117c6c1cfe64dccdfbff3419aae12bab5eafd106f"),
])
def test_store_bytes_are_pinned(dimension, max_size, digest):
    # digests of the store files written by the Permutation-level search
    # (S_4 max 5, 22759 templates: by the canonical-key integer search)
    text = format_store(generate_templates(GateLibrary.symmetric_group(dimension),
                                           max_size))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
