import argparse
import contextlib
import decimal
import functools
import hashlib
import io
import itertools
import math
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import permgate
from permgate import circuit, cli, counting, templates
from permgate.cli import main
from permgate.perm import Permutation, enumerate_permutations, involutions
from permgate.templates import load_store

NON_INVOLUTIONS_4 = [
    "(1,3,4,2)", "(1,4,2,3)", "(2,3,1,4)", "(2,3,4,1)", "(2,4,1,3)",
    "(2,4,3,1)", "(3,1,2,4)", "(3,1,4,2)", "(3,2,4,1)", "(3,4,2,1)",
    "(4,1,2,3)", "(4,1,3,2)", "(4,2,1,3)", "(4,3,1,2)",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def wide_circuit(tmp_path):
    """A 13-wire circuit, one wire over the cap, holding one X pair."""
    path = tmp_path / "wide.circ"
    path.write_text("qubits 13\ngate CNOT 12 0\ngate X 5\ngate X 5\n"
                    "gate TOFFOLI 0 1 12\n")
    return path


@functools.cache
def listing_oracle(m, which):
    """enumerate's expected stdout, built from Permutation objects."""
    keep = {"all": lambda p: True,
            "involution": Permutation.is_involution,
            "non-involution": lambda p: not p.is_involution()}[which]
    lines = [p.one_line() for p in enumerate_permutations(m) if keep(p)]
    lines.sort(key=lambda line: tuple(int(t) for t in line[1:-1].split(",")))
    return "".join(line + "\n" for line in lines)


def first_difference(got, want):
    """None if the texts are equal, else the first line where they differ
    and both its versions; on megabytes of text `got == want` would make
    pytest diff them line by line when they differ."""
    if got == want:
        return None
    pairs = itertools.zip_longest(got.split("\n"), want.split("\n"))
    return next((number, a, b) for number, (a, b) in enumerate(pairs, 1)
                if a != b)


def listing_head(m, which, count):
    """The first `count` lines of enumerate's stdout, from
    itertools.permutations and the plain involution test."""
    ident = tuple(range(m))
    keep = {"all": lambda p: True,
            "non-involution": lambda p: tuple(map(p.__getitem__, p)) != ident
            }[which]
    head = itertools.islice(filter(keep, itertools.permutations(ident)), count)
    tokens = [str(k + 1) for k in ident]
    return "".join("(" + ",".join(map(tokens.__getitem__, p)) + ")\n"
                   for p in head)


class WriteRecorder:
    """A stdout stand-in that keeps each write call's text; after `limit`
    calls it raises Stopped, to cut off a listing that would not end."""

    class Stopped(Exception):
        pass

    def __init__(self, limit=None):
        self.writes = []
        self.limit = limit

    def write(self, text):
        if len(self.writes) == self.limit:
            raise self.Stopped
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


class CountingSink:
    """A stdout stand-in that keeps only the number of lines written."""

    def __init__(self):
        self.lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)

    def flush(self):
        pass


class HashingSink:
    """A stdout stand-in that keeps only the sha256 of the text written."""

    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, text):
        self.sha256.update(text.encode("ascii"))
        return len(text)

    def flush(self):
        pass


@st.composite
def skipped_lines(draw):
    """(m, the sorted line numbers of a subset of S_m's listing), m in
    1..8; the subset may hold a block's first line, its last line, two
    adjacent lines, a whole block, or every line."""
    m = draw(st.integers(1, 8))
    total, block = math.factorial(m), math.factorial(min(m, cli.ENUMERATE_TAIL))
    skipped = set(draw(st.lists(st.integers(0, total - 1), max_size=12)))
    start = block * draw(st.integers(0, total // block - 1))
    if draw(st.booleans()):
        skipped.add(start)
    if draw(st.booleans()):
        skipped.add(start + block - 1)
    if total > 1 and draw(st.booleans()):
        line = draw(st.integers(0, total - 2))
        skipped.update((line, line + 1))
    if draw(st.integers(0, 5)) == 0:
        skipped.update(range(start, start + block))
    if draw(st.integers(0, 9)) == 0:
        skipped.update(range(total))
    return m, sorted(skipped)


class TestParser:
    def test_built_once_per_process(self, capsys, monkeypatch):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(self, *args, **kwargs):
            parsers.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        assert main(["stats", "--qubits", "2"]) == 0
        assert main(["classify", "--qubits", "1"]) == 0
        assert len(parsers) == 2
        assert parsers[0] is parsers[1]

    def test_usage_error_after_a_successful_call(self, capsys):
        assert run(capsys, "stats", "--qubits", "2")[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["stats"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--dimension", "0"])
        assert exc.value.code == 2
        assert run(capsys, "stats", "--qubits", "2")[0] == 0

    @pytest.mark.parametrize("argv, line", [
        (["stats", "--qubits", "0"], "--qubits must be >= 1"),
        (["stats", "--qubits", "2", "--decimals", "51"],
         "--decimals must be in 0..50"),
        (["classify", "--qubits", "0"], "--qubits must be >= 1"),
        (["classify", "--qubits", "2", "--decimals", "51"],
         "--decimals must be in 0..50"),
        (["optimize", "--circuit", "a.circ", "--out", "b.circ",
          "--budget", "1"], "unrecognized arguments: --budget 1"),
    ])
    def test_usage_error_line(self, capsys, argv, line):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"\npermgate: error: {line}\n")


class TestStats:
    def test_two_qubits_two_decimals(self, capsys):
        code, out, err = run(capsys, "stats", "--qubits", "2", "--decimals", "2")
        assert code == 0
        assert out == ("qubits=2\ndimension=4\ntotal=24\nhermitian=10\n"
                       "non_hermitian=14\nnon_hermitian_percent=58.33%\n")

    def test_three_qubits_default_decimals(self, capsys):
        code, out, _ = run(capsys, "stats", "--qubits", "3")
        assert code == 0
        assert "non_hermitian_percent=98.1052%" in out
        assert "total=40320" in out
        assert "hermitian=764" in out

    def test_one_qubit(self, capsys):
        code, out, _ = run(capsys, "stats", "--qubits", "1")
        assert code == 0
        assert "non_hermitian_percent=0.0000%" in out

    def test_out_of_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--qubits", "0"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--qubits", "2", "--decimals", "51"])
        assert exc.value.code == 2
        capsys.readouterr()
        # past the census cap, stats is bounded by the census as classify is
        code, out, err = run(capsys, "stats", "--qubits", "65")
        assert (code, out) == (1, "")
        assert err == ("error: census over 65 qubits refused: cap is 14 "
                       "qubits; pass force=True (--force on the command "
                       "line) to override\n")
        assert run(capsys, "classify", "--qubits", "65") == (code, out, err)

    def test_counts_past_the_int_digit_limit(self, capsys):
        # 2048! has 5895 digits, past the default int-to-str limit of 4300
        code, out, err = run(capsys, "stats", "--qubits", "11")
        assert code == 0
        assert err == ""
        total = next(line for line in out.splitlines()
                     if line.startswith("total="))
        assert int(decimal.Decimal(total[len("total="):])) == math.factorial(2048)

    def test_fraction_from_the_printed_counts(self, capsys, monkeypatch):
        _, expected, _ = run(capsys, "stats", "--qubits", "3")

        def recount(n_qubits):
            raise AssertionError("stats recounted its totals")

        monkeypatch.setattr(counting, "non_hermitian_fraction", recount)
        code, out, _ = run(capsys, "stats", "--qubits", "3")
        assert code == 0
        assert out == expected

    def test_byte_determinism(self, capsys):
        _, first, _ = run(capsys, "stats", "--qubits", "4")
        _, second, _ = run(capsys, "stats", "--qubits", "4")
        assert first == second

    def test_cap_is_domain_error(self, capsys):
        code, out, err = run(capsys, "stats", "--qubits", "15")
        assert code == 1
        assert out == ""
        assert err.startswith("error: census over 15 qubits refused: "
                              "cap is 14 qubits; ")
        assert "--force" in err

    def test_force_overrides_the_cap(self, capsys, monkeypatch):
        _, expected, _ = run(capsys, "stats", "--qubits", "3")
        monkeypatch.setattr(counting, "CENSUS_CAP", 2)
        code, out, err = run(capsys, "stats", "--qubits", "3")
        assert (code, out) == (1, "")
        assert "cap" in err
        code, out, err = run(capsys, "stats", "--qubits", "3", "--force")
        assert (code, out, err) == (0, expected, "")

    @pytest.mark.parametrize("qubits", ["63", "64"])
    def test_forced_past_math_factorial_is_domain_error(self, capsys, qubits):
        # (2^63)! is past the C long that math.factorial takes
        code, out, err = run(capsys, "stats", "--qubits", qubits, "--force",
                             "--decimals", "0")
        assert (code, out) == (1, "")
        assert err == (f"error: the (2^{qubits})! gates on {qubits} qubits "
                       f"are past what math.factorial can count\n")

    @pytest.mark.parametrize("decimals", ["0", "2", "12"])
    def test_same_census_lines_as_classify(self, capsys, decimals):
        shared = ("total=", "hermitian=", "non_hermitian=",
                  "non_hermitian_percent=")
        for n in range(1, 13):
            lines = []
            for command in ("stats", "classify"):
                code, out, err = run(capsys, command, "--qubits", str(n),
                                     "--decimals", decimals)
                assert (code, err) == (0, "")
                lines.append([line for line in out.splitlines()
                              if line.startswith(shared)])
            assert lines[0] == lines[1]
            assert len(lines[0]) == 4


class TestEnumerate:
    def test_dimension_two(self, capsys):
        code, out, err = run(capsys, "enumerate", "--dimension", "2")
        assert code == 0
        assert out == "(1,2)\n(2,1)\n"
        assert err == "count=2\n"

    def test_dimension_one(self, capsys):
        code, out, err = run(capsys, "enumerate", "--dimension", "1")
        assert code == 0
        assert out == "(1)\n"
        assert err == "count=1\n"

    def test_non_involutions_match_published_list(self, capsys):
        code, out, err = run(capsys, "enumerate", "--dimension", "4",
                             "--filter", "non-involution")
        assert code == 0
        assert out.splitlines() == NON_INVOLUTIONS_4
        assert err == "count=14\n"

    def test_involution_filter(self, capsys):
        code, out, err = run(capsys, "enumerate", "--dimension", "4",
                             "--filter", "involution")
        assert code == 0
        assert len(out.splitlines()) == 10
        assert err == "count=10\n"

    def test_output_sorted_by_notation(self, capsys):
        _, out, _ = run(capsys, "enumerate", "--dimension", "4")
        lines = out.splitlines()
        keys = [tuple(int(t) for t in line.strip("()").split(",")) for line in lines]
        assert keys == sorted(keys)
        assert len(keys) == 24

    def test_cap_is_domain_error(self, capsys):
        code, out, err = run(capsys, "enumerate", "--dimension", "13")
        assert code == 1
        assert out == ""
        assert "cap" in err
        assert "--force" in err

    @pytest.mark.parametrize("which", ["all", "involution", "non-involution"])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_listing_matches_permutation_oracle(self, capsys, m, which):
        code, out, err = run(capsys, "enumerate", "--dimension", str(m),
                             "--filter", which)
        assert code == 0
        assert first_difference(out, listing_oracle(m, which)) is None
        total, involutions = math.factorial(m), counting.involution_count(m)
        count = {"all": total, "involution": involutions,
                 "non-involution": total - involutions}[which]
        assert err == f"count={count}\n"

    def test_lists_without_building_permutations(self, capsys, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("enumerate built a Permutation")

        monkeypatch.setattr(Permutation, "__init__", refuse)
        for which, count in [("all", 120), ("involution", 26),
                             ("non-involution", 94)]:
            code, out, err = run(capsys, "enumerate", "--dimension", "5",
                                 "--filter", which)
            assert code == 0
            assert len(out.splitlines()) == count
            assert err == f"count={count}\n"

    @pytest.mark.parametrize("m", [10, 12])
    def test_multi_digit_involutions(self, capsys, m):
        code, out, err = run(capsys, "enumerate", "--dimension", str(m),
                             "--filter", "involution")
        assert code == 0
        assert err == f"count={counting.involution_count(m)}\n"
        lines = out.splitlines()
        keys = [tuple(int(t) for t in line[1:-1].split(",")) for line in lines]
        assert keys == sorted(keys)
        # as strings, "(1,10,...)" would sort before "(1,2,...)"
        assert lines != sorted(lines)
        # each line is a permutation of 1..m and an involution: the entry e
        # at position i has i at position e
        entries = list(range(1, m + 1))
        assert all(sorted(k) == entries
                   and all(k[e - 1] == i for i, e in enumerate(k, start=1))
                   for k in keys)
        assert lines[0] == "(" + ",".join(map(str, range(1, m + 1))) + ")"
        assert lines[-1] == "(" + ",".join(map(str, range(m, 0, -1))) + ")"

    @pytest.mark.parametrize("which", ["all", "involution", "non-involution"])
    @pytest.mark.parametrize("m", range(1, 10))
    def test_count_is_the_lines_written(self, capsys, m, which):
        code, out, err = run(capsys, "enumerate", "--dimension", str(m),
                             "--filter", which)
        assert code == 0
        lines = out.count("\n")
        assert err == f"count={lines}\n"

    @pytest.mark.parametrize("m, writes, which", [
        (10, 10, "all"), (10, 10, "non-involution"),
        (12, 10, "all"), (12, 10, "non-involution"), (10, 74, "all")])
    def test_multi_digit_blocks(self, monkeypatch, m, writes, which):
        # ten writes cover prefixes that hold a two-digit token, such as
        # (1,2,10) for m = 10, and blocks that hold involutions; 74 writes
        # of S_10 pass the first change of the leading entry, at block 73
        recorder = WriteRecorder(limit=writes)
        monkeypatch.setattr(sys, "stdout", recorder)
        with pytest.raises(WriteRecorder.Stopped):
            main(["enumerate", "--dimension", str(m), "--filter", which])
        assert max(text.count("\n") for text in recorder.writes) <= (
            cli.ENUMERATE_BLOCK)
        text = "".join(recorder.writes)
        assert first_difference(
            text, listing_head(m, which, text.count("\n"))) is None

    def test_streams_in_bounded_chunks(self, monkeypatch):
        recorder = WriteRecorder()
        monkeypatch.setattr(sys, "stdout", recorder)
        for which, count in [("all", 40320), ("involution", 764),
                             ("non-involution", 40320 - 764)]:
            recorder.writes.clear()
            assert main(["enumerate", "--dimension", "8",
                         "--filter", which]) == 0
            sizes = [text.count("\n") for text in recorder.writes]
            assert max(sizes) <= cli.ENUMERATE_BLOCK
            assert sum(sizes) == count
            assert first_difference("".join(recorder.writes),
                                    listing_oracle(8, which)) is None
            if which != "involution":
                assert len(sizes) == 8  # one write per block of 7! lines
        recorder.writes.clear()
        assert main(["enumerate", "--dimension", "10",
                     "--filter", "involution"]) == 0
        assert [text.count("\n") for text in recorder.writes] == [
            cli.ENUMERATE_BLOCK, counting.involution_count(10)
            - cli.ENUMERATE_BLOCK]

    def test_forced_non_involutions_stream_without_the_involution_set(
            self, monkeypatch):
        # past the cap each block's involutions are cut at the line indices
        # its prefix decides, and none is drawn from the involution search:
        # S_13's first block is written, checked, and the listing cut off.
        # The involution filter draws through the same counter.
        drawn, drawn_at_write = 0, []

        def counted(*args, **kwargs):
            nonlocal drawn
            for images in involutions(*args, **kwargs):
                drawn += 1
                yield images

        class Recorder(WriteRecorder):
            def write(self, text):
                drawn_at_write.append(drawn)
                return super().write(text)

        monkeypatch.setattr(cli, "involutions", counted)
        recorder = Recorder(limit=1)
        monkeypatch.setattr(sys, "stdout", recorder)
        with pytest.raises(WriteRecorder.Stopped):
            main(["enumerate", "--dimension", "13", "--force",
                  "--filter", "non-involution"])
        assert drawn == 0
        head = itertools.islice(itertools.permutations(range(13)),
                                cli.ENUMERATE_BLOCK)
        expected = ["(" + ",".join(str(k + 1) for k in p) + ")"
                    for p in head if not Permutation(p).is_involution()]
        assert recorder.writes[0].splitlines() == expected
        drawn_at_write.clear()
        monkeypatch.setattr(sys, "stdout", Recorder(limit=1))
        with pytest.raises(WriteRecorder.Stopped):
            main(["enumerate", "--dimension", "13", "--force",
                  "--filter", "involution"])
        assert drawn_at_write[0] == cli.ENUMERATE_BLOCK

    def test_byte_determinism(self, capsys):
        _, first, _ = run(capsys, "enumerate", "--dimension", "3")
        _, second, _ = run(capsys, "enumerate", "--dimension", "3")
        assert first == second

    @settings(max_examples=150, deadline=None)
    @given(case=skipped_lines())
    def test_any_sorted_skip_is_cut_line_for_line(self, case):
        m, skipped = case
        k = min(m, cli.ENUMERATE_TAIL)
        images = list(itertools.permutations(range(m)))
        by_prefix = {}  # a block's prefix -> its skipped lines, ascending
        for line in skipped:
            by_prefix.setdefault(images[line][:m - k], []).append(
                line % math.factorial(k))
        asked = []

        def skip(prefix):
            asked.append(prefix)
            return by_prefix.get(prefix, ())

        lines = listing_oracle(m, "all").splitlines(keepends=True)
        recorder = WriteRecorder()
        tokens = [str(v + 1) for v in range(m)]
        count = cli._write_blocks(m, tokens, skip, recorder.write)
        kept = set(range(len(lines))).difference(skipped)
        want = "".join(lines[i] for i in sorted(kept))
        assert first_difference("".join(recorder.writes), want) is None
        assert count == len(kept)
        # one skip call and one write per block, an emptied block included
        assert asked == list(itertools.permutations(range(m), m - k))
        assert len(recorder.writes) == math.factorial(m) // math.factorial(k)

    def test_skips_two_digit_lines_at_block_ends(self):
        # S_10's first two blocks, less the first and last line of each
        block = cli.ENUMERATE_BLOCK
        ends = {(0, 1, 2): [0, block - 1], (0, 1, 3): [0, block - 1]}
        skipped = [0, block - 1, block, 2 * block - 1]
        recorder = WriteRecorder(limit=2)
        tokens = [str(v + 1) for v in range(10)]
        with pytest.raises(WriteRecorder.Stopped):
            cli._write_blocks(10, tokens, lambda prefix: ends.get(prefix, ()),
                              recorder.write)
        lines = listing_head(10, "all", 2 * block).splitlines(keepends=True)
        for i in reversed(skipped):
            del lines[i]
        assert [text.count("\n") for text in recorder.writes] == [block - 2] * 2
        assert first_difference("".join(recorder.writes), "".join(lines)) is None

    @pytest.mark.parametrize("m", range(1, 12))
    def test_involution_lines_on_every_block(self, m):
        # the reference: each involution's tail, written as the ranks of its
        # values, located in permutations(range(k)); involutions itself is
        # pinned against a filter of S_m in test_perm.  Every block is
        # asked: one block with an empty prefix for m <= 7, and past that
        # blocks with no involution and blocks that pair prefix entries
        k = min(m, cli.ENUMERATE_TAIL)
        j = m - k
        tail_index = {ranks: i for i, ranks in
                      enumerate(itertools.permutations(range(k)))}
        want = {}
        for images in involutions(m):
            tail = images[j:]
            ranks = tuple(map(sorted(tail).index, tail))
            want.setdefault(images[:j], []).append(tail_index[ranks])
        lines = cli._involution_lines(m)
        got = {prefix: list(lines(prefix))
               for prefix in itertools.permutations(range(m), j)}
        assert {prefix: got[prefix] for prefix in got if got[prefix]} == want
        if j >= 2:
            assert got.keys() - want.keys()
            assert got[(1, 0) + tuple(range(2, j))]

    def test_involution_lines_on_seeded_blocks_of_s12(self):
        # brute force over each block's 7! lines; the prefixes are random,
        # those of random involutions, and a few of each kind: entries
        # paired among themselves, all forced, mixed, and no involution
        m, k = 12, cli.ENUMERATE_TAIL
        j = m - k
        rng = random.Random(1201)
        prefixes = [(1, 0, 3, 2, 4), (0, 1, 2, 3, 4), (11, 10, 9, 8, 7),
                    (1, 0, 7, 3, 9), (2, 3, 0, 1, 5), (1, 2, 0, 3, 4),
                    (0, 6, 2, 3, 4)]
        for _ in range(8):
            prefixes.append(tuple(rng.sample(range(m), j)))
            images, points = list(range(m)), rng.sample(range(m), m)
            for a, b in zip(points[::2], points[1::2]):
                if rng.random() < 0.7:
                    images[a], images[b] = b, a
            prefixes.append(tuple(images[:j]))
        identity = tuple(range(m))
        lines = cli._involution_lines(m)
        empty = 0
        for prefix in prefixes:
            tail = sorted(set(range(m)).difference(prefix))
            want = []
            for i, ranks in enumerate(itertools.permutations(range(k))):
                images = prefix + tuple(map(tail.__getitem__, ranks))
                if tuple(map(images.__getitem__, images)) == identity:
                    want.append(i)
            assert list(lines(prefix)) == want, prefix
            empty += not want
        assert 0 < empty < len(prefixes)

    @pytest.mark.parametrize("which, digest", [
        ("all",
         "9cc3c3daa0a45780a3df0f9ffc7ca15a21e4e4ac27a6acc1907f308d933ccdc8"),
        ("involution",
         "bbbfbf676c30fe7c32e04471b8d4f29f8be54e64f4289fa84f56ae6292543f58"),
        ("non-involution",
         "cbc85d60061a93901102c0c8b225ab5d444c64010bbed031beee7a1dad5e5ce9"),
    ])
    def test_dimension_nine_listing_bytes(self, monkeypatch, which, digest):
        sink = HashingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(["enumerate", "--dimension", "9", "--filter", which]) == 0
        assert sink.sha256.hexdigest() == digest

    @pytest.mark.parametrize("which", ["non-involution", "all"])
    def test_dimension_nine_listing_memory_is_bounded(
            self, capsys, monkeypatch, which):
        # a materialised listing (over 6 MB) would show, as would a table
        # of S_7's line offsets (about 0.8 MB) beside a block.  A small run
        # first builds the parser and imports what the command imports, so
        # the peak is the listing's alone.
        sink = CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(["enumerate", "--dimension", "3", "--filter", which]) == 0
        capsys.readouterr()
        sink.lines = 0
        tracemalloc.start()
        try:
            assert main(["enumerate", "--dimension", "9",
                         "--filter", which]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == f"count={sink.lines}\n"
        assert peak < 1_000_000


class TestClassify:
    def test_two_qubits(self, capsys):
        code, out, _ = run(capsys, "classify", "--qubits", "2")
        assert code == 0
        assert out == ("qubits=2\ntotal=24\nhermitian=10\nnon_hermitian=14\n"
                       "separable=4\nentangled=20\n"
                       "non_hermitian_percent=58.33%\n"
                       "entangled_percent=83.33%\n")

    def test_one_qubit(self, capsys):
        code, out, _ = run(capsys, "classify", "--qubits", "1")
        assert code == 0
        assert "entangled=0\n" in out

    def test_three_qubits_hermitian_count(self, capsys):
        code, out, _ = run(capsys, "classify", "--qubits", "3")
        assert code == 0
        assert "hermitian=764\n" in out

    def test_cap_is_domain_error(self, capsys):
        code, out, err = run(capsys, "classify", "--qubits", "15")
        assert (code, out) == (1, "")
        assert err.startswith("error: census over 15 qubits refused: "
                              "cap is 14 qubits; ")
        assert "--force" in err
        code, out, err = run(capsys, "classify", "--qubits", "4")
        assert (code, err) == (0, "")
        assert "separable=323232\n" in out

    def test_cap_refusal_names_the_qubit_count(self, capsys):
        # S_{2^99999} would print 2^99999, past the 4300-digit int-to-str limit
        code, out, err = run(capsys, "classify", "--qubits", "99999")
        assert (code, out) == (1, "")
        assert err.startswith("error: census over 99999 qubits refused: ")
        assert "--force" in err

    @pytest.mark.parametrize("qubits", ["63", "99999"])
    def test_forced_past_math_factorial_is_domain_error(self, capsys, qubits):
        code, out, err = run(capsys, "classify", "--qubits", qubits, "--force")
        assert (code, out) == (1, "")
        assert err == (f"error: the (2^{qubits})! gates on {qubits} qubits "
                       f"are past what math.factorial can count\n")

    def test_force_answers_past_the_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(counting, "CENSUS_CAP", 3)
        code, out, err = run(capsys, "classify", "--qubits", "4")
        assert (code, out) == (1, "")
        assert "cap is 3 qubits" in err
        code, out, err = run(capsys, "classify", "--qubits", "4", "--force")
        assert code == 0
        assert err == ""
        assert "separable=323232\n" in out
        assert "entangled=20922789564768\n" in out

    def test_forced_counts_past_the_int_digit_limit(self, capsys):
        # (2^11)! has 5895 digits, past the default int-to-str limit of 4300
        code, out, err = run(capsys, "classify", "--qubits", "11", "--force")
        assert code == 0
        assert err == ""
        total = next(line for line in out.splitlines()
                     if line.startswith("total="))
        assert int(decimal.Decimal(total[len("total="):])) == math.factorial(2048)


class TestTemplates:
    def test_generate_store_file(self, capsys, tmp_path):
        out_path = tmp_path / "s2.tmpl"
        code, out, _ = run(capsys, "templates", "--dimension", "2",
                           "--max-size", "2", "--out", str(out_path))
        assert code == 0
        assert out == "templates=1\n"
        assert out_path.read_text() == "templates dim=2\ntemplate: (2,1);(2,1)\n"

    def test_store_reloads_and_verifies(self, capsys, tmp_path):
        out_path = tmp_path / "s4.tmpl"
        code, out, _ = run(capsys, "templates", "--dimension", "4",
                           "--max-size", "3", "--out", str(out_path))
        assert code == 0
        assert out == "templates=103\n"
        store = load_store(out_path)
        assert len(store) == 103
        assert all(t.verifies() for t in store.templates)

    def test_size_fixture_stable(self, capsys, tmp_path):
        a, b = tmp_path / "a.tmpl", tmp_path / "b.tmpl"
        run(capsys, "templates", "--dimension", "4", "--max-size", "3",
            "--out", str(a))
        run(capsys, "templates", "--dimension", "4", "--max-size", "3",
            "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_non_power_of_two_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["templates", "--dimension", "3", "--max-size", "2",
                  "--out", str(tmp_path / "x.tmpl")])
        assert exc.value.code == 2

    def test_max_size_range_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["templates", "--dimension", "2", "--max-size", "7",
                  "--out", str(tmp_path / "x.tmpl")])
        assert exc.value.code == 2

    def test_oversize_library_is_domain_error(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            pytest.fail("the S_8 library was built before the cap check")

        monkeypatch.setattr(templates, "enumerate_permutations", refuse)
        code, _, err = run(capsys, "templates", "--dimension", "8",
                           "--max-size", "2", "--out", str(tmp_path / "x.tmpl"))
        assert code == 1
        assert "cap" in err
        assert "--force" in err

    @pytest.mark.parametrize("dimension", ["2048", "9223372036854775808"])
    def test_cap_refusal_names_the_dimension(self, capsys, tmp_path, dimension):
        # 2048! has 5895 digits, past the 4300-digit int-to-str limit, and
        # math.factorial refuses 2^63
        out_path = tmp_path / "x.tmpl"
        code, out, err = run(capsys, "templates", "--dimension", dimension,
                             "--max-size", "2", "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: multiplication table for the "
                              f"{dimension}! gates of S_{dimension} refused: ")
        assert "--force" in err
        assert err.count("\n") == 1
        assert not out_path.exists()

    def test_budget_warning_is_one_fixed_line(self, capsys, tmp_path,
                                              monkeypatch):
        # not the warnings module's format, which names the source file
        monkeypatch.setattr(templates, "generate_templates", functools.partial(
            templates.generate_templates, max_templates=10))
        out_path = tmp_path / "x.tmpl"
        code, out, err = run(capsys, "templates", "--dimension", "4",
                             "--max-size", "3", "--out", str(out_path))
        assert (code, out) == (0, "templates=10\n")
        assert err == ("warning: template store budget of 10 reached; "
                       "result is partial\n")
        assert len(load_store(out_path)) == 10

    def test_unwritable_out_is_domain_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "templates", "--dimension", "2",
                           "--max-size", "2",
                           "--out", str(tmp_path / "missing" / "x.tmpl"))
        assert code == 1
        assert err


class TestOptimize:
    def test_xx_to_empty(self, capsys, tmp_path):
        circ = tmp_path / "c.circ"
        circ.write_text("qubits 1\ngate X 0\ngate X 0\n")
        out_path = tmp_path / "opt.circ"
        code, out, _ = run(capsys, "optimize", "--circuit", str(circ),
                           "--out", str(out_path))
        assert code == 0
        assert out == "gates_before=2\ngates_after=0\nremoved=2\nrewrites=0\n"
        assert out_path.read_text() == "qubits 1\n"

    def test_long_circuit_reaches_its_fixpoint(self, capsys, tmp_path,
                                               s4_store_path):
        # its fixpoint takes more than 10 000 rewrites, and every one runs
        rng = random.Random(0)
        s4 = [p.one_line() for p in enumerate_permutations(4)]
        circ, out_path = tmp_path / "long.circ", tmp_path / "long.opt"
        circ.write_text("qubits 2\n" + "".join(
            f"perm {rng.choice(s4)} 0 1\n" for _ in range(30_000)))
        code, out, err = run(capsys, "optimize", "--circuit", str(circ),
                             "--templates", str(s4_store_path),
                             "--out", str(out_path))
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[:3] == ["gates_before=30000", "gates_after=1",
                             "removed=29999"]
        assert int(lines[3].removeprefix("rewrites=")) > 10_000
        assert len(circuit.load_circuit(out_path)) == 1

    def test_cnot_pair_to_empty(self, capsys, tmp_path):
        circ = tmp_path / "c.circ"
        circ.write_text("qubits 2\ngate CNOT 0 1\ngate CNOT 0 1\n")
        out_path = tmp_path / "opt.circ"
        code, out, _ = run(capsys, "optimize", "--circuit", str(circ),
                           "--out", str(out_path))
        assert code == 0
        assert "gates_after=0" in out

    def test_with_template_store(self, capsys, tmp_path):
        store_path = tmp_path / "s4.tmpl"
        run(capsys, "templates", "--dimension", "4", "--max-size", "3",
            "--out", str(store_path))
        circ = tmp_path / "c.circ"
        # B then B: no adjacent-inverse cancel, but the window composes to
        # two gates of a stored three-gate template
        circ.write_text("qubits 2\nperm (4,1,3,2) 0 1\nperm (4,1,3,2) 0 1\n")
        out_path = tmp_path / "opt.circ"
        code, out, _ = run(capsys, "optimize", "--circuit", str(circ),
                           "--templates", str(store_path),
                           "--out", str(out_path))
        assert code == 0
        assert "gates_after=1" in out
        assert "rewrites=1" in out
        code, out, _ = run(capsys, "verify", "--circuit", str(circ),
                           "--circuit", str(out_path))
        assert code == 0

    def test_parse_error_exit_one(self, capsys, tmp_path):
        circ = tmp_path / "bad.circ"
        circ.write_text("qubits 2\ngate FOO 0\n")
        code, _, err = run(capsys, "optimize", "--circuit", str(circ),
                           "--out", str(tmp_path / "o.circ"))
        assert code == 1
        assert "line 2" in err
        assert not (tmp_path / "o.circ").exists()

    def test_non_ascii_store_exit_one(self, capsys, tmp_path):
        circ = tmp_path / "c.circ"
        circ.write_text("qubits 1\ngate X 0\n")
        store = tmp_path / "bad.tmpl"
        store.write_bytes(b"templates dim=2\n# caf\xc3\xa9\ntemplate: (2,1);(2,1)\n")
        code, _, err = run(capsys, "optimize", "--circuit", str(circ),
                           "--templates", str(store),
                           "--out", str(tmp_path / "o.circ"))
        assert code == 1
        assert err == "error: line 2: non-ASCII byte 0xc3\n"

    def test_huge_store_dimension_exit_one(self, tmp_path):
        # run as a script, so an uncaught error would show as a traceback
        circ = tmp_path / "c.circ"
        circ.write_text("qubits 1\ngate X 0\n")
        store = tmp_path / "huge.tmpl"
        store.write_text("templates dim=99999999999999999999\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(permgate.__file__).resolve().parents[1]),
            env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "permgate.cli", "optimize", "--circuit",
             str(circ), "--templates", str(store), "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == ("error: store dimension 99999999999999999999 "
                               "is not a power of two; it can never match a "
                               "window of qubit gates\n")
        assert not (tmp_path / "o").exists()

    def test_dim6_store_refused(self, capsys, tmp_path):
        circ = tmp_path / "c.circ"
        circ.write_text("qubits 1\ngate X 0\ngate X 0\ngate X 0\n")
        store = tmp_path / "dim6.tmpl"
        store.write_text("templates dim=6\n"
                         "template: (2,3,4,5,6,1);(6,1,2,3,4,5)\n")
        out_path = tmp_path / "o.circ"
        argv = ["optimize", "--circuit", str(circ), "--templates", str(store),
                "--out", str(out_path)]
        assert run(capsys, *argv) == (
            1, "", "error: store dimension 6 is not a power of two; it can "
                   "never match a window of qubit gates\n")
        assert not out_path.exists()

    def test_non_equivalent_result_writes_nothing(self, capsys, tmp_path,
                                                  monkeypatch):
        def wrong(circ, store=None):
            extra = circuit.GateInstance(circuit.BUILTIN_GATES["X"], (0,))
            report = circuit.OptimizeReport(len(circ), len(circ) + 1, 0, 0)
            return circuit.Circuit(circ.n_wires, circ.gates + (extra,)), report

        monkeypatch.setattr(circuit, "optimize", wrong)
        path, out_path = tmp_path / "c.circ", tmp_path / "o.circ"
        path.write_text("qubits 1\ngate X 0\n")
        code, out, err = run(capsys, "optimize", "--circuit", str(path),
                             "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err == ("internal error: optimized circuit is not equivalent; "
                       "no output written\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("text, wrong", [
        # two gates that share wire 0 do not commute
        ("qubits 2\ngate CNOT 0 1\ngate X 0\n",
         lambda gates: gates[::-1]),
        # a merged run loses one of its gates
        ("qubits 2\nperm (2,3,1,4) 0 1\nperm (2,3,1,4) 0 1\n",
         lambda gates: gates[1:]),
    ])
    def test_guard_catches_a_wrong_reordering(self, capsys, tmp_path,
                                              monkeypatch, text, wrong):
        def bad(circ, store=None):
            gates = wrong(circ.gates)
            report = circuit.OptimizeReport(len(circ), len(gates), 0, 0)
            return circuit.Circuit(circ.n_wires, gates), report

        monkeypatch.setattr(circuit, "optimize", bad)
        path, out_path = tmp_path / "c.circ", tmp_path / "o.circ"
        path.write_text(text)
        code, out, err = run(capsys, "optimize", "--circuit", str(path),
                             "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err == ("internal error: optimized circuit is not equivalent; "
                       "no output written\n")
        assert not out_path.exists()

    def test_missing_file_exit_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "optimize",
                           "--circuit", str(tmp_path / "nope.circ"),
                           "--out", str(tmp_path / "o.circ"))
        assert code == 1
        assert err

    def test_over_cap_wire_count_names_force(self, capsys, tmp_path):
        out_path = tmp_path / "o.circ"
        code, out, err = run(capsys, "optimize", "--circuit",
                             str(wide_circuit(tmp_path)), "--out", str(out_path))
        assert code == 1
        assert out == ""
        assert "cap" in err
        assert "--force" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("wires", [63, 70])
    def test_force_stops_where_basis_indices_pass_maxsize(self, capsys,
                                                          tmp_path, wires):
        # 2^n basis indices past sys.maxsize are refused even under --force
        path = tmp_path / "deep.circ"
        path.write_text(f"qubits {wires}\ngate X 0\n")
        out_path = tmp_path / "o.circ"
        code, out, err = run(capsys, "optimize", "--circuit", str(path),
                             "--out", str(out_path), "--force")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: line 1: {wires} wires")
        assert err.count("\n") == 1
        assert "sys.maxsize" in err
        assert not out_path.exists()

    def test_force_optimizes_past_the_wire_cap(self, capsys, tmp_path):
        wide = wide_circuit(tmp_path)
        out_path = tmp_path / "o.circ"
        code, out, err = run(capsys, "optimize", "--circuit", str(wide),
                             "--out", str(out_path), "--force")
        assert code == 0
        assert err == ""
        assert out == "gates_before=4\ngates_after=2\nremoved=2\nrewrites=0\n"
        assert out_path.read_text() == (
            "qubits 13\ngate CNOT 12 0\ngate TOFFOLI 0 1 12\n")
        code, out, _ = run(capsys, "verify", "--circuit", str(wide),
                           "--circuit", str(out_path), "--force")
        assert code == 0
        assert out == "EQUIVALENT\n"


class TestVerify:
    def test_equivalent(self, capsys, tmp_path):
        a = tmp_path / "a.circ"
        b = tmp_path / "b.circ"
        a.write_text("qubits 1\ngate X 0\ngate X 0\n")
        b.write_text("qubits 1\n")
        code, out, _ = run(capsys, "verify", "--circuit", str(a),
                           "--circuit", str(b))
        assert code == 0
        assert out == "EQUIVALENT\n"

    def test_differ(self, capsys, tmp_path):
        a = tmp_path / "a.circ"
        b = tmp_path / "b.circ"
        a.write_text("qubits 1\ngate X 0\n")
        b.write_text("qubits 1\n")
        code, out, err = run(capsys, "verify", "--circuit", str(a),
                             "--circuit", str(b))
        assert code == 1
        assert out == "DIFFER\n"
        assert "first differing basis index: 0" in err

    def test_b_pair_differs_from_identity(self, capsys, tmp_path):
        a = tmp_path / "a.circ"
        b = tmp_path / "b.circ"
        a.write_text("qubits 2\nperm (4,1,3,2) 1 0\nperm (4,1,3,2) 1 0\n")
        b.write_text("qubits 2\n")
        code, out, _ = run(capsys, "verify", "--circuit", str(a),
                           "--circuit", str(b))
        assert code == 1
        assert out == "DIFFER\n"

    def test_wire_mismatch_exit_two(self, capsys, tmp_path):
        a = tmp_path / "a.circ"
        b = tmp_path / "b.circ"
        a.write_text("qubits 1\n")
        b.write_text("qubits 2\n")
        code, _, err = run(capsys, "verify", "--circuit", str(a),
                           "--circuit", str(b))
        assert code == 2
        assert "wire counts differ" in err

    def test_parse_error_exit_two(self, capsys, tmp_path):
        a = tmp_path / "a.circ"
        b = tmp_path / "b.circ"
        a.write_text("garbage\n")
        b.write_text("qubits 1\n")
        code, _, err = run(capsys, "verify", "--circuit", str(a),
                           "--circuit", str(b))
        assert code == 2
        assert "line 1" in err

    def test_non_ascii_circuit_exit_two(self, capsys, tmp_path):
        a = tmp_path / "a.circ"
        b = tmp_path / "b.circ"
        a.write_bytes(b"qubits 2\n# caf\xc3\xa9\ngate CNOT 0 1\n")
        b.write_text("qubits 2\ngate CNOT 0 1\n")
        code, out, err = run(capsys, "verify", "--circuit", str(a),
                             "--circuit", str(b))
        assert code == 2
        assert out == ""
        assert err == "error: line 2: non-ASCII byte 0xc3\n"

    def test_over_cap_wire_count_exit_two(self, capsys, tmp_path):
        a = tmp_path / "a.circ"
        b = tmp_path / "b.circ"
        a.write_text("qubits 99\n")
        b.write_text("qubits 99\n")
        code, _, err = run(capsys, "verify", "--circuit", str(a),
                           "--circuit", str(b))
        assert code == 2
        assert "cap" in err

    def test_over_cap_wire_count_names_force(self, capsys, tmp_path):
        wide = wide_circuit(tmp_path)
        code, out, err = run(capsys, "verify", "--circuit", str(wide),
                             "--circuit", str(wide))
        assert code == 2
        assert out == ""
        assert "--force" in err

    @pytest.mark.parametrize("wires", [63, 70])
    def test_force_stops_where_basis_indices_pass_maxsize(self, capsys,
                                                          tmp_path, wires):
        path = tmp_path / "deep.circ"
        path.write_text(f"qubits {wires}\ngate X 0\n")
        code, out, err = run(capsys, "verify", "--circuit", str(path),
                             "--circuit", str(path), "--force")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: line 1: {wires} wires")
        assert err.count("\n") == 1
        assert "sys.maxsize" in err

    def test_force_verifies_past_the_wire_cap(self, capsys, tmp_path):
        wide = wide_circuit(tmp_path)
        other = tmp_path / "other.circ"
        other.write_text("qubits 13\ngate CNOT 12 0\ngate TOFFOLI 0 1 12\n")
        code, out, _ = run(capsys, "verify", "--circuit", str(wide),
                           "--circuit", str(other), "--force")
        assert code == 0
        assert out == "EQUIVALENT\n"
        other.write_text("qubits 13\ngate CNOT 12 0\n")
        code, out, _ = run(capsys, "verify", "--circuit", str(wide),
                           "--circuit", str(other), "--force")
        assert code == 1
        assert out == "DIFFER\n"

    def test_needs_two_circuits(self, tmp_path):
        a = tmp_path / "a.circ"
        a.write_text("qubits 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--circuit", str(a)])
        assert exc.value.code == 2


@st.composite
def valid_circuit_texts(draw):
    """A circuit file of 1-4 wires from valid lines only: builtins and
    inline 1-3-qubit gates, with 2-qubit gates often on wires 0 1 so that
    runs reach the S_4 store's templates."""
    n_wires = draw(st.integers(1, 4))
    lines = [f"qubits {n_wires}"]
    for _ in range(draw(st.integers(0, 12))):
        k = draw(st.integers(1, min(3, n_wires)))
        if k == 2 and draw(st.booleans()):
            wires = "0 1"
        else:
            wires = " ".join(map(str, draw(st.permutations(range(n_wires)))[:k]))
        if draw(st.booleans()):
            names = sorted(n for n, g in circuit.BUILTIN_GATES.items()
                           if g.size == 2 ** k)
            lines.append(f"gate {draw(st.sampled_from(names))} {wires}")
        else:
            perm = Permutation(draw(st.permutations(range(2 ** k))))
            lines.append(f"perm {perm.one_line()} {wires}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def s4_store_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "s4.tmpl"
    templates.save_store(templates.generate_templates(
        templates.GateLibrary.symmetric_group(4), 3), path)
    return path


def run_main(*argv):
    """(exit code, stdout, stderr) of one in-process CLI call; argparse's
    SystemExit is read as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(text=valid_circuit_texts(), with_store=st.booleans())
def test_valid_runs_through_the_cli(s4_store_path, text, with_store):
    """optimize of a valid circuit exits 0 with an equivalent circuit of no
    more gates, which optimize leaves as it is and verify finds equivalent
    to itself."""
    store = ["--templates", s4_store_path] if with_store else []
    with tempfile.TemporaryDirectory() as tmp:
        src, once, twice = (Path(tmp, name) for name in ("c", "o1", "o2"))
        src.write_text(text)
        code, out, err = run_main("optimize", "--circuit", src, *store,
                                  "--out", once)
        assert code == 0, err
        assert "Traceback" not in err
        before, after = circuit.load_circuit(src), circuit.load_circuit(once)
        assert circuit.equivalent(after, before) is None
        assert len(after) <= len(before)
        code, out, err = run_main("optimize", "--circuit", once, *store,
                                  "--out", twice)
        assert code == 0, err
        assert "removed=0\n" in out and "rewrites=0\n" in out
        assert run_main("verify", "--circuit", once, "--circuit", once) == (
            0, "EQUIVALENT\n", "")


@st.composite
def boundary_argvs(draw):
    """argv of stats, classify, enumerate or templates at and around each
    bound, templates without --out.  --force is passed only where the run
    stays small: at most 12 qubits, dimension at most 8 (4 for templates),
    or an input refused even under force."""
    command = draw(st.sampled_from(["stats", "classify", "enumerate",
                                    "templates"]))
    if command in ("stats", "classify"):
        n = draw(st.integers(-2, 12) | st.sampled_from([15, 63, 10 ** 20]))
        argv = [command, "--qubits", n]
        if draw(st.booleans()):
            argv += ["--decimals", draw(st.integers(-1, 51))]
        small = n <= 12 or n >= 63
    elif command == "enumerate":
        m = draw(st.integers(-1, 8) | st.sampled_from([13, sys.maxsize + 1]))
        argv = [command, "--dimension", m, "--filter",
                draw(st.sampled_from(["all", "involution", "non-involution"]))]
        small = m <= 8 or m > sys.maxsize
    else:
        m = draw(st.sampled_from([-1, 0, 1, 2, 3, 4, 6, 8]))
        max_size = draw(st.integers(0, 4 if m == 4 else 7))
        argv = [command, "--dimension", m, "--max-size", max_size]
        small = m <= 4 or not 2 <= max_size <= templates.MAX_TEMPLATE_SIZE
    if small and draw(st.booleans()):
        argv.append("--force")
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=boundary_argvs())
@example(argv=["stats", "--qubits", 11])
@example(argv=["stats", "--qubits", 63, "--force"])
@example(argv=["classify", "--qubits", 63, "--force"])
@example(argv=["enumerate", "--dimension", sys.maxsize + 1, "--force"])
def test_exit_contract_at_boundary_values(argv):
    """Every run exits 0, 1 or 2 without a traceback; exit 1 is one error
    line and no stdout; enumerate's count= counts its stdout lines, and a
    store that templates writes loads with the count it printed."""
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp, "store.tmpl")
        if argv[0] == "templates":
            argv = [*argv, "--out", store]
        code, out, err = run_main(*argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 1:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        elif code == 0 and argv[0] == "enumerate":
            lines = out.count("\n")
            assert err == f"count={lines}\n"
        elif code == 0 and argv[0] == "templates":
            stored = templates.parse_store(store.read_text())
            assert out == f"templates={len(stored)}\n"
