"""Every size cap is refused in one shape, by the library and by the CLI.

The library raises CapExceeded, naming the cap and the override.  The CLI
prints that message as one error line, with empty stdout and exit 1 (2 for
verify, where exit 1 means DIFFER), and never a traceback.  stats and
classify are bounded by the one census cap, so they refuse alike.  A
store line past the template length cap is refused naming its line, in
bounded memory, before any of its gates is read.  A forced run past a
cap that runs out of memory ends in one error line too.
"""

import contextlib
import io
import itertools
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import permgate
from permgate.circuit import Circuit
from permgate.cli import main
from permgate.counting import census
from permgate.errors import CapExceeded, DimensionError
from permgate.perm import (check_enumeration_cap, enumerate_permutations,
                           involutions)
from permgate.templates import GateLibrary, multiplication_table

OVERRIDE = "; pass force=True (--force on the command line) to override"
REFUSAL = re.compile(r"^error: (line 1: )?.+ refused: cap is .+; pass "
                     r"force=True \(--force on the command line\) to "
                     r"override$")
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


def library_past_the_table_cap() -> GateLibrary:
    """721 gates of S_7, one past the multiplication table's cap."""
    return GateLibrary(7, [(p.one_line(), p) for p in
                           itertools.islice(enumerate_permutations(7), 721)])


# cap -> (the call, refused text, whether the forced call stays bounded)
CAPS = {
    "wires": (lambda force: Circuit(13, force=force),
              "a circuit of 13 wires refused: cap is 12 wires", True),
    "enumeration": (lambda force: next(enumerate_permutations(13, force)),
                    "enumeration of S_13 refused: cap is 12 "
                    "(12! permutations)", True),
    "census": (lambda force: census(15, force),
               "census over 15 qubits refused: cap is 14 qubits", False),
    "symmetric group table": (
        lambda force: GateLibrary.symmetric_group(7, force),
        "multiplication table for the 7! gates of S_7 refused: cap is 720",
        True),
    "library table": (
        lambda force: multiplication_table(library_past_the_table_cap(), force),
        "multiplication table for 721 gates refused: cap is 720", False),
}


@pytest.mark.parametrize("cap", CAPS)
def test_every_cap_raises_cap_exceeded_naming_the_override(cap):
    call, text, bounded = CAPS[cap]
    with pytest.raises(CapExceeded) as exc:
        call(False)
    assert str(exc.value) == text + OVERRIDE
    if bounded:
        call(True)


def run(*argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(result, code=1):
    got, out, err = result
    assert (got, out) == (code, "")
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith("\n")


def assert_refused(result, code=1):
    assert_one_error_line(result, code)
    assert REFUSAL.match(result[2][:-1])


@SETTINGS
@given(n=st.integers(15, 10 ** 6), force=st.booleans())
@example(n=14285, force=False)
def test_stats_and_classify_share_the_census_bound(n, force):
    # --force only where the run stays bounded: from 63 qubits on, (2^n)!
    # is refused as past math.factorial even under force
    force = force and n >= 63
    flags = ["--force"] if force else []
    stats = run("stats", "--qubits", str(n), *flags)
    classify = run("classify", "--qubits", str(n), *flags)
    assert stats == classify
    if force:
        assert_one_error_line(stats)
    else:
        assert_refused(stats)


@SETTINGS
@given(m=st.integers(13, 10 ** 6),
       which=st.sampled_from(["all", "involution", "non-involution"]))
def test_enumerate_refuses_past_its_cap(m, which):
    assert_refused(run("enumerate", "--dimension", str(m), "--filter", which))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("refusals")


@SETTINGS
@given(k=st.integers(3, 40), max_size=st.integers(2, 6))
@example(k=11, max_size=3)
def test_templates_refuses_past_the_table_cap(workdir, k, max_size):
    out = workdir / "store.tmpl"
    assert_refused(run("templates", "--dimension", str(2 ** k),
                       "--max-size", str(max_size), "--out", str(out)))
    assert not out.exists()


@SETTINGS
@given(n=st.integers(13, 62))
def test_optimize_and_verify_refuse_wide_circuits(workdir, n):
    path, out = workdir / "wide.circ", workdir / "wide.opt"
    path.write_text(f"qubits {n}\ngate X 0\n")
    assert_refused(run("optimize", "--circuit", str(path), "--out", str(out)))
    assert not out.exists()
    assert_refused(run("verify", "--circuit", str(path), "--circuit",
                       str(path)), code=2)


def one_line_store(n_gates: int) -> str:
    """A dim=2 store whose line 2 is an identity word of n_gates gates: X
    an even number of times, then the identity gate if n_gates is odd."""
    gates = ["(2,1)"] * (n_gates - n_gates % 2) + ["(1,2)"] * (n_gates % 2)
    return "templates dim=2\ntemplate: " + ";".join(gates) + "\n"


@pytest.mark.parametrize("n_gates", [6, 7, 100_000])
def test_optimize_refuses_a_store_line_past_the_template_cap(tmp_path,
                                                             n_gates):
    circ, store, out = (tmp_path / "x.circ", tmp_path / "long.tmpl",
                        tmp_path / "long.opt")
    circ.write_text("qubits 1\ngate X 0\n")
    store.write_text(one_line_store(n_gates))
    argv = ["optimize", "--circuit", str(circ), "--templates", str(store),
            "--out", str(out)]
    ran = (0, "gates_before=1\ngates_after=1\nremoved=0\nrewrites=0\n", "")
    if n_gates <= 6:
        assert run(*argv) == ran
        return
    tracemalloc.start()
    try:
        result = run(*argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_refused(result)
    assert result[2] == (f"error: line 2: a template of {n_gates} gates "
                         f"refused: cap is 6 gates{OVERRIDE}\n")
    assert not out.exists()
    # the text and its split line, about 9 MB for 100 000 gates; storing
    # the word would hold its 100 000 rotations of 100 000 gates each
    assert peak < 2 ** 24
    if n_gates == 7:
        assert run(*argv, "--force") == ran


@pytest.mark.parametrize("size", [sys.maxsize + 1, 10 ** 20])
def test_enumeration_past_maxsize_is_refused_under_force(size):
    # no str or list holds a line of more than sys.maxsize entries, so the
    # listing could never be written; the refusal builds nothing first
    check_enumeration_cap(sys.maxsize, True)  # the largest size that passes
    text = f"S_{size} has more than sys.maxsize points"
    calls = [check_enumeration_cap,
             lambda m, force: next(involutions(m, force)),
             lambda m, force: next(enumerate_permutations(m, force)),
             GateLibrary.symmetric_group]
    for call in calls:
        with pytest.raises(DimensionError) as exc:
            call(size, True)
        assert str(exc.value) == text
    for which in ["all", "involution", "non-involution"]:
        tracemalloc.start()
        try:
            result = run("enumerate", "--dimension", str(size), "--force",
                         "--filter", which)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_one_error_line(result)
        assert result[2] == f"error: {text}\n"
        assert peak < 2 ** 20


# Runs the CLI in a child interpreter whose address space is capped, so a
# run that would allocate without bound hits MemoryError within the cap.
CAPPED_CHILD = r"""
import resource, sys
from permgate import cli
limit = 256 * 2 ** 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(cli.main(sys.argv[1:]))
"""


def run_capped(tmp_path, argv):
    """The CLI in a child capped at 256 MB, beside two 30-wire circuits."""
    (tmp_path / "wide.circ").write_text("qubits 30\ngate X 0\n")
    (tmp_path / "other.circ").write_text("qubits 30\ngate X 1\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(permgate.__file__).resolve().parents[1]),
        env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", CAPPED_CHILD, *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("argv, code", [
    (["templates", "--dimension", "4611686018427387904", "--force",
      "--max-size", "2", "--out", "x.tmpl"], 1),
    (["enumerate", "--dimension", "3037000500", "--force",
      "--filter", "involution"], 1),
    # verify's exit 1 means DIFFER, so its failures exit 2; nothing of
    # X 0, X 1 cancels, so all 2^30 basis indices are simulated
    (["verify", "--circuit", "wide.circ", "--circuit", "other.circ",
      "--force"], 2),
])
def test_forced_run_out_of_memory_is_one_error_line(tmp_path, argv, code):
    done = run_capped(tmp_path, argv)
    assert_one_error_line((done.returncode, done.stdout, done.stderr), code)
    assert done.stderr == "error: out of memory\n"
    assert not (tmp_path / "x.tmpl").exists()


def test_forced_wide_pair_that_cancels_is_verified(tmp_path):
    # a b^-1 reduces to nothing, so no 2^30-bit wire int is built
    done = run_capped(tmp_path, ["verify", "--circuit", "wide.circ",
                                 "--circuit", "wide.circ", "--force"])
    assert (done.returncode, done.stdout, done.stderr) == \
        (0, "EQUIVALENT\n", "")

