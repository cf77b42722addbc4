"""Output checks for each kind of operation, against oracle.py.

``Checker.check(op, record)`` reads what one operation printed and wrote
and returns (problems, gates written).  An empty problem list means the
output is right; the gate count feeds the ``gates_out`` metric.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np

import oracle


def _expect_text(label: str, got: str, want: str) -> list[str]:
    if got == want:
        return []
    return [f"{label}: expected {want[:200]!r}, got {got[:200]!r}"]


class Checker:
    def __init__(self, workdir: str, files: dict):
        self.workdir = workdir
        self.files = files  # input path -> text, as generated from the seed
        self._orbits = {}
        self._circuits = {}

    def _read(self, rel: str) -> str:
        with open(os.path.join(self.workdir, rel), encoding="utf-8") as fh:
            return fh.read()

    def _circuit(self, rel: str):
        """(n_wires, gates, simulation) of an input circuit, cached."""
        if rel not in self._circuits:
            n_wires, gates = oracle.read_circuit(self.files[rel])
            self._circuits[rel] = (n_wires, gates, oracle.simulate(n_wires, gates))
        return self._circuits[rel]

    def check(self, op, record) -> tuple[list[str], int]:
        stdout = self._read(os.path.join("stdout", op.name))
        try:
            return getattr(self, f"_{op.kind}")(op, record, stdout)
        except (OSError, ValueError) as exc:
            # a missing or malformed output file is a wrong output
            return [f"unreadable output: {exc}"], 0

    # --- census ----------------------------------------------------------------

    def _stats(self, op, record, stdout):
        n, decimals = op.params["qubits"], op.params["decimals"]
        dim = 2 ** n
        total = math.factorial(dim)
        hermitian = oracle.involutions_closed_form(dim)
        want = (f"qubits={n}\ndimension={dim}\ntotal={total}\n"
                f"hermitian={hermitian}\nnon_hermitian={total - hermitian}\n"
                "non_hermitian_percent="
                + oracle.percent_text(Fraction(total - hermitian, total), decimals)
                + "\n")
        return (_expect_text("exit", str(record["exit"]), "0")
                + _expect_text("stderr", record["stderr"], "")
                + _expect_text("stdout", stdout, want)), 0

    def _classify(self, op, record, stdout):
        n, decimals = op.params["qubits"], op.params["decimals"]
        total = math.factorial(2 ** n)
        hermitian = oracle.involutions_closed_form(2 ** n)
        separable = oracle.separable_count(n)
        pct = lambda k: oracle.percent_text(Fraction(k, total), decimals)
        want = (f"qubits={n}\ntotal={total}\nhermitian={hermitian}\n"
                f"non_hermitian={total - hermitian}\nseparable={separable}\n"
                f"entangled={total - separable}\n"
                f"non_hermitian_percent={pct(total - hermitian)}\n"
                f"entangled_percent={pct(total - separable)}\n")
        return (_expect_text("exit", str(record["exit"]), "0")
                + _expect_text("stderr", record["stderr"], "")
                + _expect_text("stdout", stdout, want)), 0

    def _enumerate(self, op, record, stdout):
        m = op.params["dimension"]
        want_count = math.factorial(m) - oracle.involutions_closed_form(m)
        problems = (_expect_text("exit", str(record["exit"]), "0")
                    + _expect_text("stderr", record["stderr"], f"count={want_count}\n"))
        lines = stdout.split("\n")
        if lines[-1] != "":
            problems.append("stdout does not end with a newline")
        lines = lines[:-1]
        if len(lines) != want_count:
            problems.append(f"{len(lines)} gates listed, expected {want_count}")
        points = set(range(1, m + 1))
        previous = ()
        for line in lines:
            entries = tuple(map(int, line[1:-1].split(",")))
            if (line != "(" + ",".join(map(str, entries)) + ")"
                    or set(entries) != points or len(entries) != m):
                problems.append(f"not a one-line permutation of {m}: {line!r}")
                break
            if entries <= previous:
                problems.append(f"not strictly increasing at {line!r}")
                break
            if all(entries[e - 1] == i + 1 for i, e in enumerate(entries)):
                problems.append(f"involution listed: {line!r}")
                break
            previous = entries
        return problems, len(lines)

    # --- templates -------------------------------------------------------------

    def _brute_orbits(self, dimension: int, max_size: int) -> set:
        key = (dimension, max_size)
        if key not in self._orbits:
            self._orbits[key] = set().union(*(
                oracle.identity_word_orbits(dimension, k)
                for k in range(2, max_size + 1)))
        return self._orbits[key]

    def _templates(self, op, record, stdout):
        dimension, max_size = op.params["dimension"], op.params["max_size"]
        lines = self._read(op.params["out"]).splitlines()
        problems = (_expect_text("exit", str(record["exit"]), "0")
                    + _expect_text("stderr", record["stderr"], "")
                    + _expect_text("stdout", stdout, f"templates={len(lines) - 1}\n")
                    + _expect_text("store header", lines[0] if lines else "",
                                   f"templates dim={dimension}"))
        keys = set()
        for line in lines[1:]:
            if not line.startswith("template: "):
                problems.append(f"bad store line {line!r}")
                continue
            word = tuple(oracle.parse_one_line(g) for g in line[10:].split(";"))
            if not oracle.is_identity(oracle.word_product(word)):
                problems.append(f"does not compose to the identity: {line!r}")
            if not oracle.nondegenerate(word):
                problems.append(f"degenerate template: {line!r}")
            if not 2 <= len(word) <= max_size:
                problems.append(f"template length {len(word)} outside 2..{max_size}")
            key = oracle.orbit_key(word)
            if key in keys:
                problems.append(f"equivalent to an earlier line: {line!r}")
            keys.add(key)
        if max_size <= 4 and keys != self._brute_orbits(dimension, max_size):
            want = self._brute_orbits(dimension, max_size)
            problems.append(f"{len(keys - want)} stored orbits not in the brute-force "
                            f"set, {len(want - keys)} missing")
        return problems, 0

    # --- circuits --------------------------------------------------------------

    def _optimize(self, op, record, stdout):
        n_wires, gates, semantics = self._circuit(op.params["circuit"])
        out_wires, out_gates = oracle.read_circuit(self._read(op.params["out"]))
        before, after = len(gates), len(out_gates)
        problems = _expect_text("exit", str(record["exit"]), "0")
        problems += _expect_text("stderr", record["stderr"], "")
        head = (f"gates_before={before}\ngates_after={after}\n"
                f"removed={before - after}\nrewrites=")
        tail = stdout[len(head):]
        if not (stdout.startswith(head) and tail.endswith("\n")
                and tail[:-1].isdigit()):
            problems.append(f"stdout: expected {head!r}<count>, got {stdout[:200]!r}")
        if out_wires != n_wires:
            problems.append(f"output has {out_wires} wires, input {n_wires}")
        elif not np.array_equal(oracle.simulate(out_wires, out_gates), semantics):
            problems.append("output is not equivalent to the input")
        bound = len(oracle.reduce_gates(gates, op.params["collapse_runs"]))
        if after > bound:
            problems.append(f"{after} gates out, the reference reduction has {bound}")
        return problems, after

    def _verify(self, op, record, stdout):
        wires_a, _, sim_a = self._circuit(op.params["a"])
        wires_b, _, sim_b = self._circuit(op.params["b"])
        if wires_a != wires_b:
            raise RuntimeError(f"{op.name}: generated circuits differ in width")
        differ = np.flatnonzero(sim_a != sim_b)
        if (op.params["expect"] == "differ") != bool(differ.size):
            raise RuntimeError(f"{op.name}: generated pair is not {op.params['expect']}")
        if differ.size:
            want = ("1", "DIFFER\n", f"first differing basis index: {differ[0]}\n")
        else:
            want = ("0", "EQUIVALENT\n", "")
        return (_expect_text("exit", str(record["exit"]), want[0])
                + _expect_text("stdout", stdout, want[1])
                + _expect_text("stderr", record["stderr"], want[2])), 0
