"""The benchmark's reference computations, each against small brute force.

    python3 -m pytest bench/test_oracle.py
"""

import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import checks
import inputs
import oracle
import run
import speedprobe


def brute_involutions(m):
    return sum(oracle.is_involution(p) for p in itertools.permutations(range(m)))


@pytest.mark.parametrize("m", range(1, 8))
def test_involution_closed_form_matches_brute_force(m):
    assert oracle.involutions_closed_form(m) == brute_involutions(m)


def factors_across(p, n, block):
    """p factors across (block, rest) iff the block bits of p(x) depend only
    on the block bits of x, and the rest only on the rest."""
    mask_a = sum(1 << w for w in block)
    mask_b = (2 ** n - 1) ^ mask_a
    seen_a, seen_b = {}, {}
    for x, y in enumerate(p):
        if seen_a.setdefault(x & mask_a, y & mask_a) != y & mask_a:
            return False
        if seen_b.setdefault(x & mask_b, y & mask_b) != y & mask_b:
            return False
    return True


@pytest.mark.parametrize("n", [1, 2, 3])
def test_separable_count_matches_brute_force(n):
    if n == 1:
        brute = math.factorial(2)
    else:
        blocks = [b for r in range(1, n) for b in itertools.combinations(range(n), r)
                  if 0 in b]
        brute = sum(any(factors_across(p, n, b) for b in blocks)
                    for p in itertools.permutations(range(2 ** n)))
    assert oracle.separable_count(n) == brute
    assert oracle.separable_count(2) == 4 and oracle.separable_count(3) == 128


def test_percent_text_rounds_half_even():
    assert oracle.percent_text(Fraction(7, 12), 2) == "58.33%"
    assert oracle.percent_text(Fraction(1, 8), 0) == "12%"
    assert oracle.percent_text(Fraction(3, 200), 0) == "2%"
    assert oracle.percent_text(Fraction(1, 200), 0) == "0%"
    assert oracle.percent_text(Fraction(0), 3) == "0.000%"
    assert oracle.percent_text(Fraction(1), 0) == "100%"
    total = math.factorial(8)
    herm = oracle.involutions_closed_form(8)
    assert oracle.percent_text(Fraction(total - herm, total), 4) == "98.1052%"


def test_percent_text_matches_exact_rounding():
    rng = random.Random(0)
    for _ in range(2000):
        den = rng.choice([rng.randint(1, 50), 2 ** rng.randint(1, 40),
                          10 ** rng.randint(1, 6) * 8, math.factorial(rng.randint(1, 12))])
        ratio = Fraction(rng.randint(0, den), den)
        decimals = rng.randint(0, 8)
        want = round(ratio * 100, decimals)  # Fraction rounds half-even exactly
        whole, frac = divmod(abs(want.numerator * 10 ** decimals // want.denominator),
                             10 ** decimals)
        text = f"{whole}.{frac:0{decimals}d}%" if decimals else f"{whole}%"
        assert oracle.percent_text(ratio, decimals) == text, (ratio, decimals)


def orbit_count_by_closure(dimension, length):
    """Orbits of non-degenerate identity words under rotation and
    reversal-with-inverse, found by walking each orbit explicitly."""
    words = [w for w in itertools.product(itertools.permutations(range(dimension)),
                                          repeat=length)
             if oracle.is_identity(oracle.word_product(w)) and oracle.nondegenerate(w)]
    left, count = set(words), 0
    while left:
        count += 1
        todo = [left.pop()]
        while todo:
            w = todo.pop()
            for nxt in (w[1:] + w[:1], tuple(oracle.invert(g) for g in reversed(w))):
                if nxt in left:
                    left.remove(nxt)
                    todo.append(nxt)
    return count


@pytest.mark.parametrize("length", [2, 3, 4])
def test_identity_word_orbits_match_closure_over_s3(length):
    assert len(oracle.identity_word_orbits(3, length)) == orbit_count_by_closure(3, length)


def test_identity_word_orbits_over_s4():
    assert [len(oracle.identity_word_orbits(4, k)) for k in (2, 3, 4)] == [16, 87, 1404]


def propagate(n_wires, gates, x):
    for perm, wires in gates:
        k = len(wires)
        local = sum((x >> w & 1) << (k - 1 - t) for t, w in enumerate(wires))
        mapped = perm[local]
        for t, w in enumerate(wires):
            x = (x & ~(1 << w)) | (mapped >> (k - 1 - t) & 1) << w
    return x


def random_gates(rng, n_wires, length):
    return inputs.random_circuit(rng, n_wires, length)


def test_simulate_matches_per_index_propagation():
    rng = random.Random(1)
    for n_wires in (3, 4, 6):
        gates = random_gates(rng, n_wires, 40)
        sim = oracle.simulate(n_wires, gates)
        assert list(sim) == [propagate(n_wires, gates, x) for x in range(2 ** n_wires)]


def test_builtin_conventions():
    # CNOT with control on wire 1 flips wire 0 when bit 1 is set
    assert list(oracle.simulate(2, [(oracle.BUILTINS["CNOT"], (1, 0))])) == [0, 1, 3, 2]
    assert oracle.parse_one_line("(1,2,4,3)") == oracle.BUILTINS["CNOT"]
    assert oracle.parse_one_line("(2,3,1)") == (2, 0, 1)


def test_read_circuit_round_trips_generated_text():
    rng = random.Random(2)
    gates = random_gates(rng, 5, 30)
    assert oracle.read_circuit(inputs.format_circuit(5, gates)) == (5, gates)


def test_reduce_gates_preserves_semantics_and_shrinks():
    rng = random.Random(3)
    for collapse in (False, True):
        for _ in range(20):
            gates = inputs.rewrite_circuit(rng, 4, inputs.rewrite_runs(0)[:4])
            gates = inputs.insert_pairs(rng, 4, gates, 5)
            reduced = oracle.reduce_gates(gates, collapse)
            assert len(reduced) <= len(gates)
            assert np.array_equal(oracle.simulate(4, reduced), oracle.simulate(4, gates))
    cnot = oracle.BUILTINS["CNOT"]
    b = (1, 3, 2, 0)
    assert oracle.reduce_gates([(cnot, (0, 1)), (cnot, (0, 1))], False) == []
    assert len(oracle.reduce_gates([(b, (0, 1)), (b, (0, 1)), (cnot, (0, 1))], True)) == 1
    assert len(oracle.reduce_gates([(b, (0, 1)), (b, (0, 1))], False)) == 2


@pytest.mark.parametrize("seed", range(6))
def test_reduced_sizes_do_not_depend_on_the_seed(seed):
    """gates_out is exact and the same for every seed: each rewrite run
    collapses to one gate beside its separator, and cancelling the pairs
    inserted into a semantics circuit gives the generated circuit back."""
    ops, files = inputs.workload("rewrite", seed)
    for op in ops:
        if op.kind == "optimize":
            n_wires, gates = oracle.read_circuit(files[op.params["circuit"]])
            runs = sum(1 for g in gates if len(g[1]) != 2)
            assert len(oracle.reduce_gates(gates, True)) == 2 * runs
    rng = random.Random(seed)
    base = inputs.random_circuit(rng, 6, 40)
    assert oracle.reduce_gates(base, False) == base
    padded = inputs.insert_pairs(rng, 6, base, 10)
    assert len(padded) == 60 and oracle.reduce_gates(padded, False) == base


def test_work_per_round_does_not_depend_on_the_seed():
    def shape(seed):
        ops, files = inputs.workload("semantics", seed)
        arities = {}
        for rel, text in files.items():
            n_wires, gates = oracle.read_circuit(text)
            arities[rel] = (n_wires, sorted(len(w) for _, w in gates))
        return [op.kind for op in ops], arities
    assert shape(1) == shape(2) == shape(3)
    census = [sorted(op.name for op in inputs.workload("census", s)[0]) for s in (1, 2)]
    assert census[0] == census[1]


def test_workload_inputs_repeat_per_seed():
    for name in inputs.WORKLOADS:
        assert inputs.workload(name, 5) == inputs.workload(name, 5)
    assert inputs.workload("rewrite", 5)[1] != inputs.workload("rewrite", 6)[1]


def test_semantics_pairs_have_their_intended_verdicts():
    ops, files = inputs.workload("semantics", 1)
    for op in ops:
        if op.kind == "verify":
            sims = [oracle.simulate(*oracle.read_circuit(files[op.params[k]]))
                    for k in ("a", "b")]
            assert np.array_equal(*sims) == (op.params["expect"] == "equivalent")


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "stdout").mkdir()
    return tmp_path


def test_enumerate_check_accepts_the_listing_and_rejects_faults(workdir):
    op = inputs.Op("enumerate-d4", "enumerate", (), {"dimension": 4})
    good = ["(" + ",".join(map(str, p)) + ")"
            for p in itertools.permutations(range(1, 5))
            if not oracle.is_involution(tuple(x - 1 for x in p))]
    record = {"exit": 0, "stderr": "count=14\n"}
    checker = checks.Checker(str(workdir), {})
    for lines, ok in [(good, True), (good[:-1], False), (good[1:] + good[:1], False),
                      (["(1,2,3,4)"] + good[1:], False)]:
        (workdir / "stdout" / op.name).write_text("\n".join(lines) + "\n")
        problems, count = checker.check(op, record)
        assert (problems == []) == ok, problems
    assert count == 14


def test_templates_check_accepts_brute_force_store_and_rejects_faults(workdir):
    words = sorted(oracle.identity_word_orbits(4, 2) | oracle.identity_word_orbits(4, 3))
    lines = [f"template: {';'.join(inputs.one_line(g) for g in w)}" for w in words]
    op = inputs.Op("templates-m3", "templates", (),
                   {"dimension": 4, "max_size": 3, "out": "s.tmpl"})
    checker = checks.Checker(str(workdir), {})
    rotated = "template: " + ";".join(lines[-1][10:].split(";")[1:] + lines[-1][10:].split(";")[:1])
    for body, ok in [(lines, True), (lines[:-1], False), (lines + [rotated], False)]:
        (workdir / "s.tmpl").write_text("\n".join(["templates dim=4"] + body) + "\n")
        (workdir / "stdout" / op.name).write_text(f"templates={len(body)}\n")
        problems, _ = checker.check(op, {"exit": 0, "stderr": ""})
        assert (problems == []) == ok, problems


def test_speed_probe_scales_by_the_mean_speed_inside_the_interval():
    probe = speedprobe.SpeedProbe()
    ref = speedprobe.REFERENCE_COST_S
    probe.stamps = [1.0, 2.0, 3.0, 4.0]
    probe.costs = [ref, 2 * ref, ref, 2 * ref]
    probe.spent = [0.1, 0.1, 0.1, 0.1]
    # samples at 2.0 and 3.0 fall inside: half speed and full speed
    assert probe.scaled(1.5, 3.5) == pytest.approx((2.0 - 0.2) * 0.75)
    # no sample inside: the last one before, else the first one after
    assert probe.scaled(2.2, 2.4) == pytest.approx(0.2 * 0.5)
    assert probe.scaled(0.0, 0.5) == pytest.approx(0.5)
    assert speedprobe.SpeedProbe().scaled(0.0, 0.5) == 0.5


def test_speed_probe_samples_while_active():
    with speedprobe.SpeedProbe() as probe:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(probe.costs) >= 3
    assert all(0 < c <= s for c, s in zip(probe.costs, probe.spent))


def test_optimize_check_accepts_the_reduction_and_rejects_faults(workdir):
    rng = random.Random(4)
    base = inputs.random_circuit(rng, 4, 12)
    padded = inputs.insert_pairs(rng, 4, base, 3)
    op = inputs.Op("optimize-x", "optimize", (),
                   {"circuit": "in.circ", "out": "out.circ", "collapse_runs": False})
    checker = checks.Checker(str(workdir), {"in.circ": inputs.format_circuit(4, padded)})
    # the reduction; more gates than it; a circuit that is not equivalent
    for gates, ok in [(base, True), (padded, False), (base[1:], False)]:
        (workdir / "out.circ").write_text(inputs.format_circuit(4, gates))
        (workdir / "stdout" / op.name).write_text(
            f"gates_before={len(padded)}\ngates_after={len(gates)}\n"
            f"removed={len(padded) - len(gates)}\nrewrites=0\n")
        problems, count = checker.check(op, {"exit": 0, "stderr": ""})
        assert (problems == []) == ok, problems
        assert count == len(gates)
    for text in ("qubits 4\ngate NOPE 0\n", None):
        if text is None:
            (workdir / "out.circ").unlink()
        else:
            (workdir / "out.circ").write_text(text)
        problems, count = checker.check(op, {"exit": 0, "stderr": ""})
        assert problems and problems[0].startswith("unreadable output"), problems


def test_verify_check_wants_the_right_verdict_and_index(workdir):
    ops, files = inputs.workload("semantics", 1)
    checker = checks.Checker(str(workdir), files)
    for op in ops:
        if op.kind != "verify":
            continue
        sims = [oracle.simulate(*oracle.read_circuit(files[op.params[k]]))
                for k in ("a", "b")]
        differ = np.flatnonzero(sims[0] != sims[1])
        if differ.size:
            right = (1, "DIFFER\n", f"first differing basis index: {differ[0]}\n")
            wrong = [(0, "EQUIVALENT\n", ""),
                     (1, "DIFFER\n", f"first differing basis index: {differ[0] + 1}\n")]
        else:
            right = (0, "EQUIVALENT\n", "")
            wrong = [(1, "DIFFER\n", "first differing basis index: 0\n")]
        for (code, out, err), ok in [(right, True)] + [(w, False) for w in wrong]:
            (workdir / "stdout" / op.name).write_text(out)
            problems, _ = checker.check(op, {"exit": code, "stderr": err})
            assert (problems == []) == ok, (op.name, problems)


def test_census_checks_accept_the_published_two_qubit_figures(workdir):
    checker = checks.Checker(str(workdir), {})
    published = {
        "stats": "qubits=2\ndimension=4\ntotal=24\nhermitian=10\nnon_hermitian=14\n"
                 "non_hermitian_percent=58.33%\n",
        "classify": "qubits=2\ntotal=24\nhermitian=10\nnon_hermitian=14\nseparable=4\n"
                    "entangled=20\nnon_hermitian_percent=58.33%\nentangled_percent=83.33%\n",
    }
    for kind, text in published.items():
        op = inputs.Op(f"{kind}-q2", kind, (), {"qubits": 2, "decimals": 2})
        for body, ok in [(text, True), (text.replace("=10", "=11"), False)]:
            (workdir / "stdout" / op.name).write_text(body)
            problems, _ = checker.check(op, {"exit": 0, "stderr": ""})
            assert (problems == []) == ok, problems


def test_a_raise_is_wrong_unless_it_is_the_known_fault(workdir):
    fault = inputs.STATS_FAULT[1]
    ops = [inputs.Op("stats-q11", "stats", (), {"known_fault": fault}),
           inputs.Op("optimize-x", "optimize", (), {})]

    def rec(name, error):
        return {"op": name, "exit": None, "error": error, "stderr": "",
                "stdout_sha": None, "out_sha": None}

    known = [rec("stats-q11", fault + " for integer string conversion"),
             rec("optimize-x", "RuntimeError: boom")]
    attempted, failed, wrong, gates_out, _ = run._judge(ops, {}, [known] * 2, str(workdir))
    assert (attempted, failed, wrong, gates_out) == (4, 4, 2, 0)
    other = [rec("stats-q11", "ValueError: something else"), known[1]]
    assert run._judge(ops, {}, [other], str(workdir))[2] == 2


def test_inputs_leave_numpy_unloaded():
    """The worker imports inputs during set-up, so only the program's own
    imports may load numpy there."""
    probe = "import sys, inputs; sys.exit('numpy' in sys.modules)"
    bench = os.path.dirname(os.path.abspath(__file__))
    assert subprocess.run([sys.executable, "-c", probe], cwd=bench).returncode == 0
