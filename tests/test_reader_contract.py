"""The readers' contract on corrupted files.

Circuit and store texts are drawn line by line from valid lines and
corruptions, each line tagged good or bad by construction.  parse_circuit
and parse_store must return when every line is good, and otherwise raise
FileFormatError naming the first bad line; nothing else may escape.  The
same files through the CLI must give exit 1 (2 for verify), empty stdout,
one `error: line N: ` stderr line and no traceback.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from permgate.circuit import BUILTIN_GATES, parse_circuit
from permgate.cli import main
from permgate.errors import FileFormatError
from permgate.perm import Permutation
from permgate.templates import parse_store

FILLER = ["", "   ", "# a comment", "  # indented comment"]


@st.composite
def circuit_line(draw, n_wires):
    """(line, good) for one body line of an n-wire circuit."""
    if draw(st.booleans()):
        k = draw(st.integers(1, min(3, n_wires)))
        wires = " ".join(map(str, draw(st.permutations(range(n_wires)))[:k]))
        if draw(st.booleans()):
            names = [n for n, g in BUILTIN_GATES.items() if g.n_qubits == k]
            line = f"gate {draw(st.sampled_from(names))} {wires}"
        else:
            perm = Permutation(draw(st.permutations(range(2 ** k))))
            line = f"perm {perm.one_line()} {wires}"
        comment = draw(st.sampled_from(["", "  # note", " #(2,1) 0)"]))
        return line + comment, True
    bad = draw(st.sampled_from([
        "gate", "gate X", "perm", "perm (2,1)", "perm 2,1 0",  # missing tokens
        "gate X zero", "gate X 0.5", "perm (2,1) w0",  # bad wire tokens
        f"gate X {n_wires}", "gate X -1",  # wires out of range
        "gate CNOT 0 0", "perm (1,2,4,3) 1 1",  # repeated wires
        "qubits 2",  # a second header
        "perm (2,3,1) 0 1", "perm (1) 0",  # size not a power of two
        "perm (2,1) 0 1", "gate TOFFOLI 0",  # wrong dimension for the wires
        "perm (1,1) 0", "perm (3,1) 0", "perm (2,x) 0", "perm () 0",  # notation
        "gate NOT 0", "apply X 0",  # unknown gate or directive
    ]))
    return bad, False


@st.composite
def circuit_texts(draw):
    """(text, first bad line number or None)."""
    n_wires = draw(st.integers(1, 4))
    tagged = [(line, True) for line in draw(st.lists(st.sampled_from(FILLER),
                                                     max_size=2))]
    header = draw(st.sampled_from([f"qubits {n_wires}"] * 4 + [
        "qubits", "qubits x", "qubits 0", "qubits 13", f"qubits {n_wires} 1",
        "gate X 0"]))
    tagged.append((header, header == f"qubits {n_wires}"))
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 3)) == 0:
            tagged.append((draw(st.sampled_from(FILLER)), True))
        else:
            tagged.append(draw(circuit_line(n_wires)))
    return "\n".join(line for line, _ in tagged) + "\n", first_bad(tagged)


def identity_word(draw):
    """Notation of 2-4 dimension-4 gates composing to the identity."""
    perms = [Permutation(draw(st.permutations(range(4))))
             for _ in range(draw(st.integers(1, 3)))]
    last = Permutation.identity(4)
    for p in perms:
        last = p * last
    return [p.one_line() for p in perms + [last.inverse()]]


@st.composite
def store_line(draw):
    """(line, good) for one body line of a dimension-4 store."""
    if draw(st.booleans()):
        return "template: " + ";".join(identity_word(draw)), True
    bad = draw(st.sampled_from([
        "template:", "template: (2,1,3,4)",  # missing tokens
        "(1,2,4,3);(1,2,4,3)", "templates dim=4",  # no prefix, second header
        "template: (1,1,3,4);(1,1,3,4)", "template: (2,1,3,x);(2,1,3,4)",
        "template: (1,2,4,3);;(1,2,4,3)",  # bad one-line notation
        "template: (2,1);(2,1)", "template: (2,3,1);(3,1,2)",  # dimension
        "template: (2,1,3,4);(1,2,4,3)",  # does not compose to the identity
    ]))
    return bad, False


@st.composite
def store_texts(draw):
    """(text, first bad line number or None); the header is line 1."""
    header = draw(st.sampled_from(["templates dim=4"] * 4 + [
        "templates dim=x", "templates dim=", "templates dim=0", "template dim=4",
        "# templates dim=4"]))
    tagged = [(header, header == "templates dim=4")]
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 3)) == 0:
            tagged.append((draw(st.sampled_from(FILLER)), True))
        else:
            tagged.append(draw(store_line()))
    return "\n".join(line for line, _ in tagged) + "\n", first_bad(tagged)


def first_bad(tagged):
    return next((i for i, (_, good) in enumerate(tagged, 1) if not good), None)


def assert_reader_contract(parse, text, bad):
    try:
        parse(text)
    except FileFormatError as exc:
        assert bad is not None, (text, str(exc))
        assert str(exc).startswith(f"line {bad}: "), (text, str(exc))
        assert exc.line == bad
    else:
        assert bad is None, text


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


@settings(max_examples=300, deadline=None)
@given(circuit_texts())
def test_parse_circuit_names_the_first_bad_line(case):
    assert_reader_contract(parse_circuit, *case)


@settings(max_examples=300, deadline=None)
@given(store_texts())
def test_parse_store_names_the_first_bad_line(case):
    assert_reader_contract(parse_store, *case)


@settings(max_examples=40, deadline=None)
@given(circuit_texts(), store_texts())
def test_cli_refuses_a_bad_file_in_one_line(circuit_case, store_case):
    (circuit_text, circuit_bad), (store_text, store_bad) = circuit_case, store_case
    with tempfile.TemporaryDirectory() as tmp:
        circ, store = Path(tmp, "c.circ"), Path(tmp, "s.tmpl")
        good = Path(tmp, "good.circ")
        circ.write_text(circuit_text)
        store.write_text(store_text)
        good.write_text("qubits 2\ngate CNOT 0 1\n")
        out = str(Path(tmp, "out.circ"))
        if circuit_bad is not None:
            assert_cli_refuses(["optimize", "--circuit", str(circ), "--out", out],
                               1, circuit_bad)
            assert_cli_refuses(["verify", "--circuit", str(good), "--circuit",
                                str(circ)], 2, circuit_bad)
        else:
            assert run_cli("verify", "--circuit", str(circ), "--circuit",
                           str(circ))[:2] == (0, "EQUIVALENT\n")
        if store_bad is not None:
            assert_cli_refuses(["optimize", "--circuit", str(good), "--templates",
                                str(store), "--out", out], 1, store_bad)
        else:
            assert run_cli("optimize", "--circuit", str(good), "--templates",
                           str(store), "--out", out)[0] == 0
