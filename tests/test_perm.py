import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permgate.counting import involution_count
from permgate.errors import (_MAX_DIGITS, CapExceeded, DimensionError,
                             NotationError)
from permgate.perm import Permutation, enumerate_permutations, involutions


def s4():
    return list(enumerate_permutations(4))


class TestIdentity:
    def test_images_and_notation(self):
        p = Permutation.identity(4)
        assert p.images == (0, 1, 2, 3)
        assert p.one_line() == "(1,2,3,4)"

    def test_degenerate_dimension(self):
        assert Permutation.identity(1).images == (0,)

    def test_invalid_dimension(self):
        with pytest.raises(DimensionError):
            Permutation.identity(0)
        with pytest.raises(DimensionError):
            Permutation([])

    def test_identity_law_over_s4(self):
        e = Permutation.identity(4)
        for p in s4():
            assert e * p == p
            assert p * e == p


class TestCompose:
    def test_not_squared(self):
        x = Permutation([1, 0])
        assert x * x == Permutation.identity(2)

    def test_b_gate_not_self_inverse(self):
        # sample 2-qubit gate: |00>->|01>->|11>->|00>, |10> fixed
        b = Permutation([1, 3, 2, 0])
        assert (b * b)(0) == 3
        assert b * b != Permutation.identity(4)

    def test_inverse_law(self):
        p = Permutation.from_one_line("(2,3,1,4)")
        assert p * p.inverse() == Permutation.identity(4)

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            Permutation([1, 0]) * Permutation([0, 1, 2])

    def test_apply_rightmost_first(self):
        # (p * q)(x) must equal p(q(x))
        p = Permutation([1, 2, 0])
        q = Permutation([2, 1, 0])
        for x in range(3):
            assert (p * q)(x) == p(q(x))


class TestInverse:
    def test_frozen_example(self):
        p = Permutation([1, 2, 0, 3])
        inv = p.inverse()
        # oracle: composing with the inverse yields the identity
        assert p * inv == Permutation.identity(4)
        assert inv * p == Permutation.identity(4)
        assert inv.images == (2, 0, 1, 3)

    def test_identity_self_inverse(self):
        for m in (1, 2, 5):
            assert Permutation.identity(m).inverse() == Permutation.identity(m)

    def test_involutions_equal_own_inverse(self):
        for p in s4():
            if p.is_involution():
                assert p.inverse() == p


class TestIsInvolution:
    def test_cnot(self):
        assert Permutation.from_one_line("(1,2,4,3)").is_involution()

    def test_three_cycle(self):
        assert not Permutation.from_one_line("(2,3,1,4)").is_involution()

    def test_identity(self):
        for m in range(1, 7):
            assert Permutation.identity(m).is_involution()

    def test_matches_definition(self):
        for p in s4():
            assert p.is_involution() == (p * p == Permutation.identity(4))


class TestOneLineNotation:
    def test_swap_of_first_two(self):
        p = Permutation.from_one_line("(2,1,3,4)")
        assert p.images == (1, 0, 2, 3)
        assert p.is_involution()

    def test_identity_2(self):
        assert Permutation.from_one_line("(1,2)") == Permutation.identity(2)

    def test_whitespace_tolerated(self):
        assert Permutation.from_one_line(" ( 2 , 1 ) ").one_line() == "(2,1)"

    def test_duplicate_entry(self):
        with pytest.raises(NotationError, match="duplicate entry '1'"):
            Permutation.from_one_line("(2,1,1,4)")

    def test_out_of_range_entry(self):
        with pytest.raises(NotationError, match="out of range"):
            Permutation.from_one_line("(1,2,5,3)")

    def test_malformed(self):
        with pytest.raises(NotationError, match="'x'"):
            Permutation.from_one_line("(1,x,3)")
        with pytest.raises(NotationError):
            Permutation.from_one_line("1,2,3")
        with pytest.raises(NotationError):
            Permutation.from_one_line("()")
        with pytest.raises(NotationError):
            Permutation.from_one_line("(1,-2)")

    @pytest.mark.parametrize("text, token", [
        ("(²,1)", "²"),  # superscript two: int() refuses it
        ("(１,2)", "１"),  # fullwidth one: int() reads 1
        ("(1,٢)", "٢")])  # Arabic-Indic two: int() reads 2
    def test_non_ascii_digits_refused(self, text, token):
        with pytest.raises(NotationError, match=repr(token)):
            Permutation.from_one_line(text)

    def test_round_trip_fixed(self):
        assert Permutation.from_one_line("(4,3,1,2)").one_line() == "(4,3,1,2)"
        assert Permutation.identity(2).one_line() == "(1,2)"

    def test_round_trip_all_of_s4(self):
        for p in s4():
            assert Permutation.from_one_line(p.one_line()) == p

    def test_renders_without_building_permutations(self, monkeypatch):
        perms = list(enumerate_permutations(5))
        expected = ["(" + ",".join(str(i + 1) for i in p.inverse().images) + ")"
                    for p in perms]

        def refuse(self, images):
            pytest.fail("one_line built a Permutation")

        monkeypatch.setattr(Permutation, "__init__", refuse)
        assert [p.one_line() for p in perms] == expected

    def test_notation_direction(self):
        # entry 2 at position 1 means input index 1 -> output index 0
        p = Permutation.from_one_line("(2,1,3,4)")
        assert p(1) == 0 and p(0) == 1


def per_token_from_one_line(text):
    """The images from_one_line gives, read by its per-token loop alone."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise NotationError(f"expected parenthesized list, got {text!r}")
    tokens = [t.strip() for t in s[1:-1].split(",")]
    if tokens == [""]:
        raise NotationError("empty one-line notation '()'")
    images = [-1] * len(tokens)
    for pos, tok in enumerate(tokens):
        if not (tok.isascii() and tok.isdigit() and len(tok) <= _MAX_DIGITS):
            raise NotationError(f"expected positive integer, got {tok!r}")
        entry = int(tok)
        if not 1 <= entry <= len(tokens):
            raise NotationError(f"entry {tok!r} out of range 1..{len(tokens)}")
        if images[entry - 1] != -1:
            raise NotationError(f"duplicate entry {tok!r}")
        images[entry - 1] = pos
    return tuple(images)


# entries no notation of up to 9 points holds as they stand
ODD_ENTRIES = ["", "0", "+1", "1_0", "-1", "x", "1 0", "\u00b2", "\uff11",
               "\u0662", "1" * _MAX_DIGITS, "1" * (_MAX_DIGITS + 1),
               "0" * (_MAX_DIGITS - 1) + "1", "0" * _MAX_DIGITS + "1"]


@st.composite
def notations(draw):
    """One-line notation of 1-9 points, perhaps with duplicate, out-of-range
    or malformed entries, spaces around entries, or a missing parenthesis."""
    m = draw(st.integers(1, 9))
    entries = [str(e) for e in draw(st.permutations(range(1, m + 1)))]
    for _ in range(draw(st.integers(0, 2))):
        entries[draw(st.integers(0, m - 1))] = draw(st.one_of(
            st.sampled_from(ODD_ENTRIES),
            # leading zeros, duplicates and entries past the size
            st.builds(lambda zeros, k: "0" * zeros + str(k),
                      st.integers(0, 2), st.integers(0, m + 2))))
    space = st.sampled_from(["", "", " ", "\t", " \u3000"])
    if draw(st.booleans()):
        entries = [draw(space) + e + draw(space) for e in entries]
    left, right = draw(st.sampled_from(
        [("(", ")")] * 6 + [(" (", ") "), ("", ")"), ("(", ""), ("", ""),
                            ("((", ")"), ("(", "))")]))
    return left + ",".join(entries) + right


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(notations())
@example("(1,,2)")
@example(" ( 2 , 1 ) ")
@example("(02,+1)")
@example("(2,1_0)")
@example("(\u00b2,1)")
@example("(\uff11,2)")
@example("(1,\u0662)")
@example(f"({'0' * (_MAX_DIGITS - 1)}2,1)")
@example(f"({'0' * _MAX_DIGITS}2,1)")
@example("(2,1,1)")
@example("(3,1)")
@example("2,1")
@example("()")
def test_from_one_line_agrees_with_the_per_token_loop(text):
    """The bulk check gives the loop's images, or the loop's error text."""
    try:
        want = per_token_from_one_line(text)
    except NotationError as exc:
        with pytest.raises(NotationError) as info:
            Permutation.from_one_line(text)
        assert str(info.value) == str(exc)
    else:
        got = Permutation.from_one_line(text)
        assert got.images == want
        assert got == Permutation(want) and hash(got) == hash(Permutation(want))


class TestEnumerate:
    def test_s2(self):
        got = [p.one_line() for p in enumerate_permutations(2)]
        assert got == ["(1,2)", "(2,1)"]

    def test_s4_count(self):
        assert len(s4()) == 24

    def test_s1(self):
        assert list(enumerate_permutations(1)) == [Permutation.identity(1)]

    def test_lexicographic_and_distinct(self):
        perms = list(enumerate_permutations(4))
        images = [p.images for p in perms]
        assert images == sorted(images)
        assert len(set(images)) == 24

    def test_cap_refusal(self):
        with pytest.raises(CapExceeded, match="cap is 12"):
            next(enumerate_permutations(13))

    def test_cap_override_is_lazy(self):
        gen = enumerate_permutations(13, force=True)
        first = next(gen)
        assert first == Permutation.identity(13)


class TestInvolutions:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_enumeration(self, m):
        assert list(involutions(m)) == [
            p.images for p in enumerate_permutations(m) if p.is_involution()]

    @pytest.mark.parametrize("m", range(1, 13))
    def test_counts_match_recurrence(self, m):
        assert sum(1 for _ in involutions(m)) == involution_count(m)

    def test_cap_refusal(self):
        with pytest.raises(CapExceeded, match="cap is 12"):
            next(involutions(13))

    def test_forced_past_the_recursion_limit(self):
        # the search keeps its own stack, so a forced size of 2000 points
        # yields the identity, then the swap of the last two points
        gen = involutions(2000, force=True)
        assert next(gen) == tuple(range(2000))
        assert next(gen) == tuple(range(1998)) + (1999, 1998)


class TestMatrix:
    def test_not_matrix(self):
        x = Permutation([1, 0])
        assert np.array_equal(x.matrix(), np.array([[0, 1], [1, 0]]))

    def test_identity_matrix(self):
        for m in (1, 2, 4):
            assert np.array_equal(Permutation.identity(m).matrix(), np.eye(m))

    def test_column_j_hits_row_images_j(self):
        p = Permutation([2, 0, 1])
        mat = p.matrix()
        for j in range(3):
            assert mat[p(j), j] == 1

    def test_unitarity_over_s4(self):
        eye = np.eye(4, dtype=np.uint8)
        for p in s4():
            m = p.matrix()
            assert np.array_equal(m @ m.T, eye)
            assert np.array_equal(m.T @ m, eye)

    def test_symmetric_iff_involution_over_s4(self):
        for p in s4():
            m = p.matrix()
            assert np.array_equal(m, m.T) == p.is_involution()

    def test_inverse_is_transpose(self):
        rng = random.Random(7)
        for _ in range(50):
            images = list(range(8))
            rng.shuffle(images)
            p = Permutation(images)
            assert np.array_equal(p.inverse().matrix(), p.matrix().T)


class TestAlgebraicLaws:
    def test_antihomomorphism_of_inverse(self):
        # inverse(p q) == inverse(q) inverse(p), exhaustive on S_3
        for p in enumerate_permutations(3):
            for q in enumerate_permutations(3):
                assert (p * q).inverse() == q.inverse() * p.inverse()

    def test_antihomomorphism_random_s8(self):
        rng = random.Random(11)
        for _ in range(100):
            a = list(range(8))
            b = list(range(8))
            rng.shuffle(a)
            rng.shuffle(b)
            p, q = Permutation(a), Permutation(b)
            assert (p * q).inverse() == q.inverse() * p.inverse()

    def test_ordering_matches_images(self):
        perms = s4()
        assert sorted(perms) == perms

    def test_hash_and_set_membership(self):
        assert len(set(s4())) == 24

    @pytest.mark.parametrize("images, message", [
        ([0, 0, 1], r"^not a bijection on 0\.\.2: \[0, 0, 1\]$"),
        ([1, 2], r"^not a bijection on 0\.\.1: \[1, 2\]$")])
    def test_not_a_bijection_rejected(self, images, message):
        with pytest.raises(ValueError, match=message):
            Permutation(images)
