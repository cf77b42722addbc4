import functools
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permgate import gatetable
from permgate.circuit import Circuit, GateInstance, optimize
from permgate.errors import (
    CapExceeded,
    ClosureError,
    DimensionError,
    FileFormatError,
)
from permgate.gatetable import GateTable
from permgate.perm import Permutation, enumerate_permutations
from permgate.templates import (
    GateLibrary,
    Template,
    _RewriteScan,
    expand_template,
    format_store,
    generate_templates,
    load_store,
    multiplication_table,
    parse_store,
    save_store,
    two_gate_templates,
)


def canonical_word(seq):
    """Oracle-side symmetry class representative: minimum over rotations of
    the word and of its reversed elementwise inverse."""
    variants = []
    for base in (tuple(seq), tuple(g.inverse() for g in reversed(seq))):
        for r in range(len(base)):
            variants.append(tuple(g.images for g in base[r:] + base[:r]))
    return min(variants)


def identity_words_up_to_3(library):
    """Oracle: every non-degenerate identity word of length 2 or 3 over the
    library, one representative per symmetry class, with words containing a
    shorter identity word as a cyclic factor dropped."""
    identity = Permutation.identity(library.dimension)
    classes = {}
    for g in library.gates:
        if g.is_identity():
            continue
        word = (g, g.inverse())
        classes.setdefault(canonical_word(word), word)
    for g, h in itertools.product(library.gates, repeat=2):
        k = (h * g).inverse()
        word = (g, h, k)
        if k * h * g != identity:
            continue
        if any(w.is_identity() for w in word):
            continue
        # cyclic factor of length 2 composing to identity == adjacent inverses
        if any(word[(i + 1) % 3] == word[i].inverse() for i in range(3)):
            continue
        classes.setdefault(canonical_word(word), word)
    return set(classes)


def s4_library():
    return GateLibrary.symmetric_group(4)


@functools.cache
def s4_max4_lines():
    text = format_store(generate_templates(s4_library(), 4))
    return text.splitlines()[1:]


class TestGateLibrary:
    @pytest.mark.parametrize("dimension, names", [
        (1, ("(1)",)), (2, ("(1,2)", "(2,1)"))])
    def test_symmetric_group(self, dimension, names):
        lib = GateLibrary.symmetric_group(dimension)
        assert lib.names == names
        assert len(lib) == len(names)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="names"):
            GateLibrary(2, [("a", Permutation([0, 1])), ("a", Permutation([1, 0]))])

    def test_duplicate_gates_rejected(self):
        with pytest.raises(ValueError, match="permutations"):
            GateLibrary(2, [("a", Permutation([0, 1])), ("b", Permutation([0, 1]))])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            GateLibrary(2, [("a", Permutation([0, 1, 2]))])
        with pytest.raises(DimensionError, match="^invalid dimension 0$"):
            GateLibrary(0, [])

    def test_closure_check(self):
        open_lib = GateLibrary(2, [("X", Permutation([1, 0]))])
        with pytest.raises(ClosureError, match="'X'"):
            multiplication_table(open_lib)

    def test_symmetric_group_is_capped_by_its_table(self):
        # 6! = 720 is the cap; 7! = 5040 passes it
        assert len(GateLibrary.symmetric_group(6)) == 720
        with pytest.raises(CapExceeded, match="the 7! gates of S_7 .*--force"):
            GateLibrary.symmetric_group(7)
        assert len(GateLibrary.symmetric_group(7, force=True)) == 5040
        with pytest.raises(DimensionError):
            GateLibrary.symmetric_group(0)

    def test_closure_check_is_capped(self):
        # 721 rotations of 1000 points: over the cap, and not closed
        lib = GateLibrary(1000, [(f"g{i}", _rotation(1000, i)) for i in range(721)])
        with pytest.raises(CapExceeded, match="--force"):
            multiplication_table(lib)
        with pytest.raises(CapExceeded):
            generate_templates(lib, 2)
        with pytest.raises(ClosureError, match="'g1' \\* 'g720'"):
            generate_templates(lib, 2, force=True)


class TestMultiplicationTable:
    def test_s2(self):
        lib = GateLibrary.symmetric_group(2)
        assert multiplication_table(lib) == [[0, 1], [1, 0]]

    def test_rearrangement_s4(self):
        lib = s4_library()
        table = multiplication_table(lib)
        full = list(range(24))
        for row in table:
            assert sorted(row) == full
        for j in range(24):
            assert sorted(table[i][j] for i in range(24)) == full

    def test_gate_times_inverse_is_identity(self):
        lib = s4_library()
        table = multiplication_table(lib)
        e = lib.index_of(Permutation.identity(4))
        for i, g in enumerate(lib.gates):
            assert table[i][lib.index_of(g.inverse())] == e

    def test_table_matches_composition(self):
        lib = GateLibrary.symmetric_group(3)
        table = multiplication_table(lib)
        for i, a in enumerate(lib.gates):
            for j, b in enumerate(lib.gates):
                assert lib.gates[table[i][j]] == a * b

    def test_closure_violation(self):
        lib = GateLibrary(3, [("r", Permutation([1, 2, 0])),
                              ("s", Permutation([2, 0, 1]))])
        want = "product 'r' * 's' = (1,2,3) is not in the library"
        with pytest.raises(ClosureError) as table_error:
            multiplication_table(lib)
        with pytest.raises(ClosureError) as generation_error:
            generate_templates(lib, 2)
        assert str(table_error.value) == str(generation_error.value) == want

    def test_every_product_is_computed_once_in_a_gate_table(self, monkeypatch):
        # multiplication_table and generation fill a GateTable through its
        # memo, one computation per product; an optimize with the generated
        # store then finds every product its windows need already there
        computed = []
        missing = gatetable._Row.__missing__

        def counted(row, b):
            computed.append(b)
            return missing(row, b)

        monkeypatch.setattr(gatetable._Row, "__missing__", counted)
        lib = s4_library()
        store = generate_templates(lib, 4)
        assert len(computed) == 24 ** 2
        computed.clear()
        assert len(multiplication_table(lib)) == 24
        assert len(computed) == 24 ** 2
        computed.clear()
        rng = random.Random(14)
        circuit = Circuit(3, [GateInstance(rng.choice(lib.gates),
                                           rng.choice([(0, 1), (1, 2)]))
                              for _ in range(200)])
        _, report = optimize(circuit, store)
        assert report.template_rewrites > 0
        assert computed == []

    def test_cap(self):
        lib = GateLibrary(1000, [(f"g{i}", _rotation(1000, i)) for i in range(721)])
        with pytest.raises(CapExceeded):
            multiplication_table(lib)


def _rotation(size, k):
    return Permutation([(j + k) % size for j in range(size)])


class TestTwoGateTemplates:
    def test_count_s4(self):
        out = two_gate_templates(s4_library())
        assert len(out) == 24
        assert all(t.verifies() for t in out)

    def test_s2(self):
        lib = GateLibrary.symmetric_group(2)
        out = two_gate_templates(lib)
        i2 = Permutation.identity(2)
        x = Permutation([1, 0])
        assert [t.gates for t in out] == [(i2, i2), (x, x)]
        assert out[0].is_degenerate()
        assert not out[1].is_degenerate()

    def test_pairs_are_inverses(self):
        for t in two_gate_templates(GateLibrary.symmetric_group(3)):
            u, v = t.gates
            assert v == u.inverse()

    def test_missing_inverse_is_closure_error(self):
        lib = GateLibrary(3, [("c", Permutation([1, 2, 0]))])
        with pytest.raises(ClosureError,
                           match="^inverse of 'c' is not in the library$"):
            two_gate_templates(lib)


class TestExpandTemplate:
    def test_count_and_verify(self):
        lib = s4_library()
        base = two_gate_templates(lib)[7]
        for position in (0, 1):
            out = expand_template(base, position, lib)
            assert len(out) == 24
            assert all(t.verifies() for t in out)
            assert all(len(t.gates) == 3 for t in out)

    def test_degenerate_insertion_present(self):
        lib = s4_library()
        u = Permutation([1, 2, 3, 0])
        base = Template((u, u.inverse()))
        out = expand_template(base, 1, lib)
        assert Template((u, u.inverse(), Permutation.identity(4))) in out

    def test_position_out_of_range(self):
        lib = GateLibrary.symmetric_group(2)
        with pytest.raises(IndexError):
            expand_template(two_gate_templates(lib)[1], 2, lib)

    def test_dimension_mismatch(self):
        x = Permutation([1, 0])
        with pytest.raises(DimensionError, match="^template dimension 2 != "
                                                 "library dimension 4$"):
            expand_template(Template((x, x)), 0, s4_library())

    def test_factor_outside_the_library_is_closure_error(self):
        # with u = c, the factor v = c * c^-1 is the identity, not in {c}
        c = Permutation([1, 2, 0])
        lib = GateLibrary(3, [("c", c)])
        with pytest.raises(ClosureError, match=r"^factor \(1,2,3\) of "
                                               r"\(3,1,2\) is not in the "
                                               r"library$"):
            expand_template(Template((c, c.inverse())), 0, lib)


class TestTemplate:
    def test_verify_self_inverse_pair(self):
        x = Permutation([1, 0])
        assert Template((x, x)).verifies()
        cnot = Permutation.from_one_line("(1,2,4,3)")
        assert Template((cnot, cnot)).verifies()

    def test_verify_rejects_non_identity(self):
        p = Permutation.from_one_line("(2,3,1,4)")
        assert not Template((p, p)).verifies()

    def test_too_short(self):
        with pytest.raises(ValueError):
            Template((Permutation.identity(2),))

    def test_mixed_dimensions(self):
        with pytest.raises(DimensionError):
            Template((Permutation.identity(2), Permutation.identity(4)))

    def test_composition_is_leftmost_first(self):
        p = Permutation([1, 2, 0])
        q = Permutation([0, 2, 1])
        assert Template((p, q)).composition() == q * p

    def test_symmetries_preserve_validity(self):
        lib = GateLibrary.symmetric_group(3)
        store = generate_templates(lib, 3)
        for t in store.templates:
            n = len(t.gates)
            for r in range(n):
                rotated = Template(t.gates[r:] + t.gates[:r])
                assert rotated.verifies()
            reversed_inv = Template(tuple(g.inverse() for g in reversed(t.gates)))
            assert reversed_inv.verifies()

    def test_canonical_key_invariance(self):
        g = Permutation([1, 2, 0])
        word = (g, g, g)
        t = Template(word)
        assert Template(word[1:] + word[:1]).canonical_key() == t.canonical_key()
        rev = Template(tuple(x.inverse() for x in reversed(word)))
        assert rev.canonical_key() == t.canonical_key()


class TestTemplateStore:
    def test_parse_dedups_by_symmetry(self):
        # a 3-cycle, a transposition, and the transposition closing the
        # word; the reversed inverse holds a^-1, so it is no rotation
        a, b = Permutation([1, 2, 0]), Permutation([1, 0, 2])
        word = (a, b, (b * a).inverse())
        lines = [word, word[1:] + word[:1],
                 tuple(g.inverse() for g in reversed(word)), (a, a, a)]
        store = parse_store("templates dim=3\n" + "".join(
            "template: " + ";".join(g.one_line() for g in w) + "\n"
            for w in lines))
        assert [t.gates for t in store.templates] == [word, (a, a, a)]
        with pytest.raises(TypeError):
            Template(word) in store

    def test_subsumption_detection(self):
        lib = GateLibrary.symmetric_group(3)
        store = generate_templates(lib, 2)
        x = lib.gates[1]
        intern = store._table.intern
        padded = tuple(map(intern, (x, x.inverse(), x, x.inverse())))
        assert store._subsumes(padded)


class TestGenerate:
    def test_s2_max2(self):
        store = generate_templates(GateLibrary.symmetric_group(2), 2)
        assert [t.one_line() for t in store.templates] == ["(2,1);(2,1)"]

    def test_oracle_s2_max3(self):
        lib = GateLibrary.symmetric_group(2)
        store = generate_templates(lib, 3)
        keys = {t.canonical_key() for t in store.templates}
        assert keys == identity_words_up_to_3(lib)

    def test_oracle_s3_max3(self):
        lib = GateLibrary.symmetric_group(3)
        store = generate_templates(lib, 3)
        keys = {t.canonical_key() for t in store.templates}
        assert keys == identity_words_up_to_3(lib)

    def test_oracle_s4_max3(self):
        lib = s4_library()
        store = generate_templates(lib, 3)
        keys = {t.canonical_key() for t in store.templates}
        assert keys == identity_words_up_to_3(lib)

    def test_s4_store_size_fixtures(self):
        # regression sizes, cross-checked against the word oracle above
        lib = s4_library()
        assert len(generate_templates(lib, 2)) == 16
        assert len(generate_templates(lib, 3)) == 103
        assert len(generate_templates(lib, 4)) == 1507
        # the cheap case where stored templates subsume longer candidates
        assert len(generate_templates(GateLibrary.symmetric_group(3), 6)) == 51

    def test_all_verify_and_non_degenerate(self):
        store = generate_templates(s4_library(), 3)
        for t in store.templates:
            assert t.verifies()
            assert not t.is_degenerate()

    def test_requires_closed_library(self):
        lib = GateLibrary(2, [("X", Permutation([1, 0]))])
        with pytest.raises(ClosureError):
            generate_templates(lib, 2)

    def test_max_size_range(self):
        lib = GateLibrary.symmetric_group(2)
        with pytest.raises(ValueError):
            generate_templates(lib, 1)
        with pytest.raises(ValueError):
            generate_templates(lib, 7)

    def test_budget_gives_partial_store(self):
        lib = s4_library()
        with pytest.warns(UserWarning, match="partial"):
            store = generate_templates(lib, 3, max_templates=5)
        assert len(store) == 5
        assert not store.complete
        assert all(t.verifies() for t in store.templates)


class TestStoreFiles:
    def test_round_trip(self, tmp_path):
        store = generate_templates(s4_library(), 3)
        path = tmp_path / "s4.tmpl"
        save_store(store, path)
        loaded = load_store(path)
        assert loaded.dimension == 4
        assert {t.canonical_key() for t in loaded.templates} == {
            t.canonical_key() for t in store.templates}
        # byte-identical on re-save (writer sorts lines)
        save_store(loaded, tmp_path / "again.tmpl")
        assert (tmp_path / "again.tmpl").read_bytes() == path.read_bytes()

    def test_format_text(self):
        text = "templates dim=2\ntemplate: (2,1);(2,1)\n"
        assert format_store(parse_store(text)) == text

    def test_loader_rejects_non_identity_line(self):
        text = "templates dim=4\ntemplate: (2,3,1,4);(2,3,1,4)\n"
        with pytest.raises(FileFormatError, match="line 2"):
            parse_store(text)

    def test_loader_verifies_each_line_once(self, monkeypatch):
        # lines are verified as index words in the store's gate table
        store = generate_templates(s4_library(), 3)
        calls = []
        verifies = GateTable.is_identity_word

        def counted(table, word):
            calls.append(word)
            return verifies(table, word)

        monkeypatch.setattr(GateTable, "is_identity_word", counted)
        loaded = parse_store(format_store(store))
        assert len(loaded) == len(store)
        assert len(calls) == len(store)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_loader_keeps_the_first_line_of_each_symmetry_class(self, data):
        # lines of the S_4 max 4 store, rotated and reversed-inverse copies
        # of some of them, shuffled: each class keeps its first line
        words = [tuple(map(Permutation.from_one_line,
                           line[len("template: "):].split(";")))
                 for line in data.draw(st.lists(st.sampled_from(
                     s4_max4_lines()), min_size=1, max_size=40))]
        for word in data.draw(st.lists(st.sampled_from(words), max_size=40)):
            r = data.draw(st.integers(0, len(word) - 1))
            word = word[r:] + word[:r]
            if data.draw(st.booleans()):
                word = tuple(g.inverse() for g in reversed(word))
            words.append(word)
        words = data.draw(st.permutations(words))
        text = "templates dim=4\n" + "".join(
            "template: " + ";".join(g.one_line() for g in w) + "\n"
            for w in words)
        store = parse_store(text)
        kept = {}
        for word in words:
            kept.setdefault(canonical_word(word), word)
        assert [t.gates for t in store.templates] == list(kept.values())
        assert store._rotations == {w[k:] + w[:k] for w in store._words
                                    for k in range(len(w))}

    def test_loader_rejects_bad_header(self):
        with pytest.raises(FileFormatError, match="line 1"):
            parse_store("dim=4\n")
        with pytest.raises(FileFormatError, match="line 1"):
            parse_store("")
        with pytest.raises(FileFormatError, match="line 1: invalid dimension 0"):
            parse_store("templates dim=0")

    @pytest.mark.parametrize("token", ["0_4", "+4", "-4", "0x4", "4.0", "\u0664"])
    def test_header_dimension_is_ascii_digits(self, token):
        header = f"templates dim={token}"
        with pytest.raises(FileFormatError) as info:
            parse_store(header + "\n")
        assert str(info.value) == f"line 1: bad dimension in header {header!r}"

    def test_header_dimension_may_carry_spaces(self):
        assert parse_store("templates dim= 4 \n").dimension == 4

    @pytest.mark.parametrize("dimension", [10 ** 20, 2 ** 40])
    def test_header_alone_builds_nothing_of_its_dimension(self, dimension):
        # the identity of a store's dimension is built only once a line's
        # gates, of that dimension, have been read; the rewrite scan of an
        # empty store builds none either
        tracemalloc.start()
        try:
            store = parse_store(f"templates dim={dimension}\n")
            scan = _RewriteScan(store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (store.dimension, len(store), scan.longest) == (dimension, 0, 0)
        assert peak < 2 ** 20

    def test_loader_rejects_bad_notation(self):
        text = "templates dim=2\ntemplate: (2,1);(2,x)\n"
        with pytest.raises(FileFormatError, match="line 2"):
            parse_store(text)

    def test_loader_rejects_wrong_dimension_gate(self):
        text = "templates dim=4\ntemplate: (2,1);(2,1)\n"
        with pytest.raises(FileFormatError, match="line 2"):
            parse_store(text)

    def test_loader_tolerates_comments_and_order(self):
        text = ("templates dim=2\n"
                "# a comment\n"
                "\n"
                "   # an indented comment\n"
                "template: (2,1);(2,1)\n"
                "template:(2,1);(2,1)\n")  # no space after the colon
        store = parse_store(text)
        assert len(store) == 1
        # a '#' after a line's gates is part of its last gate's text
        with pytest.raises(FileFormatError) as info:
            parse_store("templates dim=2\ntemplate: (2,1);(2,1) # x\n")
        assert str(info.value) == ("line 2: expected parenthesized list, "
                                   "got '(2,1) # x'")
