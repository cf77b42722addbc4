"""The readers' contract on corrupted files.

Circuit and store texts are drawn line by line from valid lines and
corruptions, each line tagged good or bad by construction.  parse_circuit
and parse_store must return when every line is good, and otherwise raise
FileFormatError naming the first bad line; nothing else may escape.  The
same files through the CLI must give exit 1 (2 for verify), empty stdout,
one `error: line N: ` stderr line and no traceback.  Lines are joined by
any of the breaks str.splitlines knows, and a non-ASCII byte on a line is
refused under the number the readers give that line.  Two texts read
with one shared line memo, as verify reads its files, read as two separate
parse_circuit calls do, and no memo outlives its call.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permgate import circuit
from permgate.circuit import (BUILTIN_GATES, GateInstance, _parse_circuits,
                              equivalent, parse_circuit)
from permgate.cli import main
from permgate.errors import FileFormatError, PermGateError
from permgate.perm import Permutation
from permgate.templates import format_store, parse_store

FILLER = ["", "   ", "# a comment", "  # indented comment"]
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c"]  # one line break each


def bad_circuit_lines(n_wires, unicode):
    """Body lines an n-wire circuit refuses wherever they stand; non-ASCII
    ones only when `unicode` is set."""
    return [
        "gate", "gate X", "perm", "perm (2,1)", "perm 2,1 0",  # missing tokens
        "gate X zero", "gate X 0.5", "perm (2,1) w0",  # bad wire tokens
        "gate X 1_0", "gate X +1", "gate X 0x1", "perm (2,1) +0",  # not digits
        f"gate X {n_wires}", "gate X -1",  # wires out of range
        "gate CNOT 0 0", "perm (1,2,4,3) 1 1",  # repeated wires
        "qubits 2",  # a second header
        "perm (2,3,1) 0 1", "perm (1) 0",  # size not a power of two
        "perm (2,1) 0 1", "gate TOFFOLI 0",  # wrong dimension for the wires
        "perm (1,1) 0", "perm (3,1) 0", "perm (2,x) 0", "perm () 0",  # notation
        "gate NOT 0", "apply X 0",  # unknown gate or directive
        "perm x(2,1) 0", "perm 5 (2,1) 0",  # junk before the notation
        "perm (2,1)0", "perm (2,1)) 0",  # junk after the notation
    ] + ["gate X \u0661", "perm (2,1) \u0660"] * unicode  # Arabic-Indic 1, 0


# a size that is not a power of two is refused before the wire tokens
SIZE_BEFORE_WIRES = ["perm (2,3,1) x", "perm (1) zero"]

# an identity word one gate past the reader's cap on a template's length
SEVEN_GATE_LINE = "template: " + ";".join(["(2,1,3,4)"] * 6 + ["(1,2,3,4)"])

BAD_STORE_LINES = [
    "template:", "template: (2,1,3,4)",  # missing tokens
    "(1,2,4,3);(1,2,4,3)", "templates dim=4",  # no prefix, second header
    "template: (1,1,3,4);(1,1,3,4)", "template: (2,1,3,x);(2,1,3,4)",
    "template: (1,2,4,3);;(1,2,4,3)",  # bad one-line notation
    "template: (2,1);(2,1)", "template: (2,3,1);(3,1,2)",  # dimension
    "template: (2,1,3,4);(1,2,4,3)",  # does not compose to the identity
    SEVEN_GATE_LINE,
]


@st.composite
def circuit_line(draw, n_wires, unicode):
    """(line, good) for one body line of an n-wire circuit; non-ASCII lines
    only when `unicode` is set."""
    if draw(st.booleans()):
        k = draw(st.integers(1, min(3, n_wires)))
        wires = " ".join(map(str, draw(st.permutations(range(n_wires)))[:k]))
        if draw(st.booleans()):
            names = [n for n, g in BUILTIN_GATES.items() if g.size == 2 ** k]
            line = f"gate {draw(st.sampled_from(names))} {wires}"
        else:
            perm = Permutation(draw(st.permutations(range(2 ** k))))
            line = f"perm {perm.one_line()} {wires}"
        comment = draw(st.sampled_from(["", "  # note", " #(2,1) 0)"]))
        return line + comment, True
    bad = draw(st.sampled_from(bad_circuit_lines(n_wires, unicode)
                               + SIZE_BEFORE_WIRES))
    return bad, False


@st.composite
def circuit_texts(draw, unicode=False):
    """(text, first bad line number or None); lines end in '\\n'."""
    n_wires = draw(st.integers(1, 4))
    tagged = [(line, True) for line in draw(st.lists(st.sampled_from(FILLER),
                                                     max_size=2))]
    header = draw(st.sampled_from([f"qubits {n_wires}"] * 4 + [
        "qubits", "qubits x", "qubits 0", "qubits 13", f"qubits {n_wires} 1",
        "gate X 0", "qubits 1_2", "qubits +2"]))
    tagged.append((header, header == f"qubits {n_wires}"))
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 3)) == 0:
            tagged.append((draw(st.sampled_from(FILLER)), True))
        else:
            tagged.append(draw(circuit_line(n_wires, unicode)))
    return "\n".join(line for line, _ in tagged) + "\n", first_bad(tagged)


def identity_word(draw):
    """Notation of 2-6 dimension-4 gates composing to the identity."""
    perms = [Permutation(draw(st.permutations(range(4))))
             for _ in range(draw(st.integers(1, 5)))]
    last = Permutation.identity(4)
    for p in perms:
        last = p * last
    return [p.one_line() for p in perms + [last.inverse()]]


@st.composite
def store_line(draw):
    """(line, good) for one body line of a dimension-4 store."""
    if draw(st.booleans()):
        return "template: " + ";".join(identity_word(draw)), True
    bad = draw(st.sampled_from(BAD_STORE_LINES))
    return bad, False


@st.composite
def store_texts(draw):
    """(text, first bad line number or None); the header is line 1, and
    lines end in '\\n'."""
    header = draw(st.sampled_from(["templates dim=4"] * 4 + [
        "templates dim=x", "templates dim=", "templates dim=0", "template dim=4",
        "# templates dim=4", "templates dim=0_4", "templates dim=+4"]))
    tagged = [(header, header == "templates dim=4")]
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 3)) == 0:
            tagged.append((draw(st.sampled_from(FILLER)), True))
        else:
            tagged.append(draw(store_line()))
    return "\n".join(line for line, _ in tagged) + "\n", first_bad(tagged)


def first_bad(tagged):
    return next((i for i, (_, good) in enumerate(tagged, 1) if not good), None)


def assert_reader_contract(parse, text, bad, newline):
    """parse, on `text` with each line ended by `newline`, raises
    FileFormatError at line `bad`, or returns when bad is None."""
    try:
        got = parse(text.replace("\n", newline))
    except FileFormatError as exc:
        assert bad is not None, (text, str(exc))
        assert str(exc).startswith(f"line {bad}: "), (text, str(exc))
        assert exc.line == bad
    else:
        assert bad is None, text
        return got


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_cli_refuses(argv, code, bad):
    got, out, err = run_cli(*argv)
    assert (got, out) == (code, ""), (got, out, err)
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: line {bad}: "), err
    return err


@settings(max_examples=300, deadline=None)
@given(circuit_texts(unicode=True), st.sampled_from(BREAKS))
def test_parse_circuit_names_the_first_bad_line(case, newline):
    got = assert_reader_contract(parse_circuit, *case, newline)
    if case[1] is None:  # every line break reads as the '\n' twin does
        assert got == parse_circuit(case[0])


@settings(max_examples=300, deadline=None)
@given(store_texts(), st.sampled_from(BREAKS))
def test_parse_store_names_the_first_bad_line(case, newline):
    got = assert_reader_contract(parse_store, *case, newline)
    if case[1] is None:
        twin = parse_store(case[0])
        assert got.templates == twin.templates
        assert format_store(got) == format_store(twin)


# what each bad line raises on line 2 of a 2-wire circuit or an S_4 store
CIRCUIT_MESSAGES = {
    "gate": "missing gate name",
    "gate X": "gate X needs 1 wires, got 0",
    "perm": "missing one-line notation after 'perm'",
    "perm (2,1)": "gate X needs 1 wires, got 0",
    "perm 2,1 0": "missing one-line notation after 'perm'",
    "gate X zero": "bad wire index 'zero'",
    "gate X 0.5": "bad wire index '0.5'",
    "perm (2,1) w0": "bad wire index 'w0'",
    "gate X 1_0": "bad wire index '1_0'",
    "gate X +1": "bad wire index '+1'",
    "gate X 0x1": "bad wire index '0x1'",
    "perm (2,1) +0": "bad wire index '+0'",
    "gate X 2": "wire 2 out of range 0..1",
    "gate X -1": "bad wire index '-1'",
    "gate CNOT 0 0": "repeated wire in (0, 0)",
    "perm (1,2,4,3) 1 1": "repeated wire in (1, 1)",
    "qubits 2": "unknown directive 'qubits'",
    "perm (2,3,1) 0 1": "gate dimension 3 is not a power of two >= 2",
    "perm (1) 0": "gate dimension 1 is not a power of two >= 2",
    "perm (2,3,1) x": "gate dimension 3 is not a power of two >= 2",
    "perm (1) zero": "gate dimension 1 is not a power of two >= 2",
    "perm (2,1) 0 1": "gate X needs 1 wires, got 2",
    "gate TOFFOLI 0": "gate TOFFOLI needs 3 wires, got 1",
    "perm (1,1) 0": "duplicate entry '1'",
    "perm (3,1) 0": "entry '3' out of range 1..2",
    "perm (2,x) 0": "expected positive integer, got 'x'",
    "perm () 0": "empty one-line notation '()'",
    "gate NOT 0": "unknown gate 'NOT'",
    "apply X 0": "unknown directive 'apply'",
    "perm x(2,1) 0": "missing one-line notation after 'perm'",
    "perm 5 (2,1) 0": "missing one-line notation after 'perm'",
    "perm (2,1)0": "expected whitespace after the one-line notation",
    "perm (2,1)) 0": "expected whitespace after the one-line notation",
    "gate X \u0661": "bad wire index '\u0661'",
    "perm (2,1) \u0660": "bad wire index '\u0660'",
}
STORE_MESSAGES = {
    "template:": "expected parenthesized list, got ''",
    "template: (2,1,3,4)": "template needs at least 2 gates",
    "(1,2,4,3);(1,2,4,3)":
        "expected 'template:' line, got '(1,2,4,3);(1,2,4,3)'",
    "templates dim=4": "expected 'template:' line, got 'templates dim=4'",
    "template: (1,1,3,4);(1,1,3,4)": "duplicate entry '1'",
    "template: (2,1,3,x);(2,1,3,4)": "expected positive integer, got 'x'",
    "template: (1,2,4,3);;(1,2,4,3)": "expected parenthesized list, got ''",
    "template: (2,1);(2,1)": "gate dimension differs from dim=4",
    "template: (2,3,1);(3,1,2)": "gate dimension differs from dim=4",
    "template: (2,1,3,4);(1,2,4,3)":
        "template does not compose to identity: (2,1,3,4);(1,2,4,3)",
    SEVEN_GATE_LINE: "a template of 7 gates refused: cap is 6 gates; pass "
                     "force=True (--force on the command line) to override",
}


@pytest.mark.parametrize("parse, header, messages, line", [
    (parse_circuit, "qubits 2", CIRCUIT_MESSAGES, line)
    for line in bad_circuit_lines(2, True)] + [
    (parse_store, "templates dim=4", STORE_MESSAGES, line)
    for line in BAD_STORE_LINES] + [
    (parse_circuit, "qubits 2", CIRCUIT_MESSAGES, line)
    for line in SIZE_BEFORE_WIRES])
def test_each_bad_line_raises_its_own_message(parse, header, messages, line):
    """The grammars above seldom make a given bad line the first bad one of
    a file; here each is, on line 2 after a good header."""
    with pytest.raises(FileFormatError) as info:
        parse(f"{header}\n{line}\n")
    assert str(info.value) == f"line 2: {messages[line]}"


def cli_cases(tmp, circuit_case, store_case):
    """(case, its file, [(argv, exit code)]) for a circuit file under
    optimize and verify and a store file under optimize, each beside a
    good circuit file."""
    circ, store = Path(tmp, "c.circ"), Path(tmp, "s.tmpl")
    good = Path(tmp, "good.circ")
    good.write_text("qubits 2\ngate CNOT 0 1\n")
    out = str(Path(tmp, "out.circ"))
    return [
        (circuit_case, circ, [
            (["optimize", "--circuit", str(circ), "--out", out], 1),
            (["verify", "--circuit", str(good), "--circuit", str(circ)], 2)]),
        (store_case, store, [
            (["optimize", "--circuit", str(good), "--templates", str(store),
              "--out", out], 1)]),
    ]


@settings(max_examples=40, deadline=None)
@given(circuit_texts(), store_texts(), st.sampled_from(BREAKS))
def test_cli_refuses_a_bad_file_in_one_line(circuit_case, store_case, newline):
    with tempfile.TemporaryDirectory() as tmp:
        for (text, bad), path, runs in cli_cases(tmp, circuit_case, store_case):
            path.write_bytes(text.replace("\n", newline).encode("ascii"))
            for argv, code in runs:
                if bad is not None:
                    assert_cli_refuses(argv, code, bad)
                elif argv[0] == "optimize":  # verify beside a 2-wire file may
                    assert run_cli(*argv)[0] == 0  # refuse the wire count
        if circuit_case[1] is None:
            circ = str(Path(tmp, "c.circ"))
            assert run_cli("verify", "--circuit", circ, "--circuit",
                           circ)[:2] == (0, "EQUIVALENT\n")


# a line each reader refuses wherever the lines before it are good
MARKERS = {"c.circ": "apply X 0", "s.tmpl": "(2,1,3,4);(2,1,3,4)"}


@settings(max_examples=40, deadline=None)
@given(circuit_texts(), store_texts(), st.sampled_from(BREAKS), st.data())
def test_cli_refuses_a_non_ascii_byte_at_the_readers_line(
        circuit_case, store_case, newline, data):
    """A line i with no bad line before it is refused as line i by the
    reader; with a non-ASCII byte put in it, it is refused as line i too."""
    with tempfile.TemporaryDirectory() as tmp:
        for (text, bad), path, runs in cli_cases(tmp, circuit_case, store_case):
            lines = text.split("\n")[:-1]
            i = data.draw(st.integers(1, bad or len(lines)))
            at = data.draw(st.integers(0, len(lines[i - 1])))
            byte = data.draw(st.integers(0x80, 0xff))

            def with_line(line):
                body = lines[:i - 1] + [line] + lines[i:]
                return "".join(x + newline for x in body).encode("latin-1")

            for argv, code in runs:
                path.write_bytes(with_line(MARKERS[path.name]))
                assert_cli_refuses(argv, code, i)
                path.write_bytes(with_line(
                    lines[i - 1][:at] + chr(byte) + lines[i - 1][at:]))
                err = assert_cli_refuses(argv, code, i)
                assert err == f"error: line {i}: non-ASCII byte 0x{byte:02x}\n"


def test_integer_token_and_form_feed_pinned(tmp_path):
    path = tmp_path / "c.circ"
    for text, err in [
        (b"qubits 11\ngate X 1_0\n", "error: line 2: bad wire index '1_0'\n"),
        (b"qubits 2\x0cgate X 0\ngate X 7\n",
         "error: line 3: wire 7 out of range 0..1\n"),
        (b"qubits 2\x0cgate X 0\ngate X \xff\n",
         "error: line 3: non-ASCII byte 0xff\n"),
    ]:
        path.write_bytes(text)
        assert run_cli("verify", "--circuit", str(path), "--circuit",
                       str(path)) == (2, "", err)


def test_a_notation_glued_to_its_wires_is_refused(tmp_path):
    """After a `perm` notation's `)` comes whitespace or the line's end, as
    after a builtin's name: `perm (2,1)0` is refused like `gate X0`."""
    path, out = tmp_path / "c.circ", str(tmp_path / "o.circ")
    err = "error: line 2: expected whitespace after the one-line notation\n"
    for line in ["perm (2,1)0", "perm (2,1)) 0", "perm (2,1)0 # x"]:
        path.write_text(f"qubits 2\n{line}\n")
        assert run_cli("verify", "--circuit", str(path), "--circuit",
                       str(path)) == (2, "", err)
        assert run_cli("optimize", "--circuit", str(path), "--out", out) == \
            (1, "", err)
    assert parse_circuit("qubits 2\nperm (2,1)\t0\n") == \
        parse_circuit("qubits 2\ngate X 0\n")


def test_a_token_past_4300_digits_is_a_bad_token(tmp_path):
    """4300 digits is CPython's default int() limit; a longer token gets
    the reader's own message on every interpreter, never CPython's."""
    path, out = tmp_path / "c.circ", str(tmp_path / "o.circ")
    big = "1" * 5000
    assert parse_circuit(f"qubits 1\ngate X {'0' * 4300}\n") == \
        parse_circuit("qubits 1\ngate X 0\n")
    for text, err in [
        (f"qubits 2\ngate X {big}\n", f"error: line 2: bad wire index '{big}'\n"),
        (f"qubits 1\ngate X {'0' * 4301}\n",
         f"error: line 2: bad wire index '{'0' * 4301}'\n"),
        (f"qubits {big}\ngate X 0\n", f"error: line 1: bad wire count '{big}'\n"),
        (f"qubits 2\nperm ({big},1) 0\n",
         f"error: line 2: expected positive integer, got '{big}'\n"),
    ]:
        path.write_text(text)
        assert run_cli("verify", "--circuit", str(path), "--circuit",
                       str(path)) == (2, "", err)
        assert run_cli("optimize", "--circuit", str(path), "--out", out) == \
            (1, "", err)


@st.composite
def text_pairs(draw):
    """Two circuit texts, each valid or corrupted.  Mostly both are drawn
    from one body of lines valid at `width` wires, one text at that width
    and one at any width up to it, in either order; so a line valid in one
    file (gate X 2 under qubits 3) recurs where it is out of range (under
    qubits 2)."""
    if draw(st.integers(0, 3)) == 0:
        return draw(circuit_texts())[0], draw(circuit_texts())[0]
    width = draw(st.integers(1, 4))
    body = [draw(circuit_line(width, False))[0]
            for _ in range(draw(st.integers(1, 5)))]

    def text(wires):
        lines = draw(st.lists(st.sampled_from(body + FILLER), max_size=8))
        return "\n".join([f"qubits {wires}"] + lines) + "\n"

    pair = text(width), text(draw(st.integers(1, width)))
    return pair[::-1] if draw(st.booleans()) else pair


def parsed(parse, *args):
    """parse(*args), or its error's text and line number."""
    try:
        return parse(*args)
    except FileFormatError as exc:
        return str(exc), exc.line


def verify_as_two_loads(a, b):
    """verify's exit code, stdout and stderr with a separate parse per file."""
    try:
        first = equivalent(parse_circuit(a), parse_circuit(b))
    except PermGateError as exc:
        return 2, "", f"error: {exc}\n"
    if first is None:
        return 0, "EQUIVALENT\n", ""
    return 1, "DIFFER\n", f"first differing basis index: {first}\n"


# texts the wire-token memo must read as if it kept nothing, and the error
# (text, line) each gives
TOKEN_MEMO_CASES = [
    # two token texts for one wire
    (("qubits 2\ngate CNOT 1 0\ngate CNOT 01 1\n", "qubits 2\n"),
     ("line 3: repeated wire in (1, 1)", 3)),
    # a bad token after lines whose tokens the memo holds
    (("qubits 3\ngate CNOT 0 1\ngate TOFFOLI 0 1 x\n", "qubits 3\n"),
     ("line 3: bad wire index 'x'", 3)),
    # a token of the wider first file, out of range in the second
    (("qubits 3\ngate X 2\n", "qubits 2\ngate CNOT 0 2\n"),
     ("line 2: wire 2 out of range 0..1", 2)),
]


@settings(max_examples=200, deadline=None)
@given(text_pairs())
@example(("qubits 3\ngate X 2\n", "qubits 2\ngate X 2\n"))
@example(TOKEN_MEMO_CASES[0][0])
@example(TOKEN_MEMO_CASES[1][0])
@example(TOKEN_MEMO_CASES[2][0])
@example(("qubits 1\nperm (2,1) 0\n", "qubits 1\nperm ( 2 , 1 ) 0\n"))
def test_a_shared_line_memo_reads_as_two_separate_parses(pair):
    alone = [parsed(parse_circuit, text) for text in pair]
    errors = [got for got in alone if isinstance(got, tuple)]
    # the first file's error, as when it is loaded first, else both circuits
    assert parsed(_parse_circuits, pair, False) == (errors[0] if errors else alone)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, "a.circ"), Path(tmp, "b.circ")]
        for path, text in zip(paths, pair):
            path.write_text(text)
        assert run_cli("verify", "--circuit", str(paths[0]), "--circuit",
                       str(paths[1])) == verify_as_two_loads(*pair)


def test_the_line_memo_lasts_one_call(tmp_path, monkeypatch):
    """verify of a file with itself builds each distinct line's instance,
    and parses each distinct notation, once; a second verify in the same
    process does all of it again."""
    path = tmp_path / "c.circ"
    body = ["gate CNOT 0 1", "perm (2,1) 2", "gate CNOT 0 1", "perm (2,1) 0",
            "perm (2,1) 2", "perm (1,2,4,3) 2 1", "gate X 0"]
    path.write_text("\n".join(["qubits 3"] + body) + "\n")
    made, notations = [], []
    post_init, from_one_line = GateInstance.__post_init__, Permutation.from_one_line

    def counted_post_init(self):
        made.append(self)
        post_init(self)

    def counted_from_one_line(cls, text):
        notations.append(text)
        return from_one_line(text)

    monkeypatch.setattr(GateInstance, "__post_init__", counted_post_init)
    monkeypatch.setattr(Permutation, "from_one_line",
                        classmethod(counted_from_one_line))
    for calls in (1, 2):
        assert run_cli("verify", "--circuit", str(path), "--circuit",
                       str(path)) == (0, "EQUIVALENT\n", "")
        assert len(made) == calls * len(set(body))
        assert sorted(notations) == sorted(["(2,1)", "(1,2,4,3)"] * calls)


@pytest.mark.parametrize("pair, err", TOKEN_MEMO_CASES)
def test_the_token_memo_changes_no_error(pair, err):
    assert parsed(_parse_circuits, pair, False) == err


def test_a_notation_with_inner_spaces_is_read_by_the_scan():
    assert parse_circuit("qubits 1\nperm ( 2 , 1 ) 0\n") == \
        parse_circuit("qubits 1\ngate X 0\n")
    with pytest.raises(FileFormatError,
                       match="^line 2: expected whitespace after the one-line "
                             "notation$"):
        parse_circuit("qubits 1\nperm ( 2 , 1 )0\n")


def test_each_token_and_inverse_once_per_call(tmp_path, monkeypatch):
    """verify of a file with itself reads each distinct wire-token text, and
    inverts each distinct gate object, once; a second verify in the same
    process does both again."""
    path = tmp_path / "c.circ"
    body = ["gate CNOT 0 1", "gate CNOT 1 0", "perm (2,1) 2", "gate X 00",
            "gate TOFFOLI 2 1 0", "perm (1,2,4,3) 2 1", "perm (2,1) 0",
            "gate X 0", "gate CNOT 0 1"]
    path.write_text("\n".join(["qubits 3"] + body) + "\n")
    a, b = _parse_circuits([path.read_text()] * 2, False)
    gates = {id(inst.gate) for inst in a.gates + b.gates}
    assert len(gates) == 5  # CNOT, X, TOFFOLI and two inline gates
    tokens, inverted = [], []
    read, invert = circuit._int, circuit._inverse

    def counted_int(token, what):
        if what == "wire index":
            tokens.append(token)
        return read(token, what)

    def counted_inverse(images):
        inverted.append(images)
        return invert(images)

    monkeypatch.setattr(circuit, "_int", counted_int)
    monkeypatch.setattr(circuit, "_inverse", counted_inverse)
    for calls in (1, 2):
        assert run_cli("verify", "--circuit", str(path), "--circuit",
                       str(path)) == (0, "EQUIVALENT\n", "")
        assert sorted(tokens) == sorted(["0", "1", "2", "00"] * calls)
        assert len(inverted) == calls * len(gates)


def test_verify_parses_the_first_file_before_opening_the_second(tmp_path):
    bad = tmp_path / "bad.circ"
    bad.write_text("qubits 2\ngate X 2\n")
    assert run_cli("verify", "--circuit", str(bad), "--circuit",
                   str(tmp_path / "missing.circ")) == (
        2, "", "error: line 2: wire 2 out of range 0..1\n")
