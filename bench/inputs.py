"""Seeded inputs for each benchmark workload.

``workload(name, seed)`` returns the round of CLI operations the workload
repeats and the input files those operations read.  The same seed always
gives the same operations and byte-identical files.

The seed changes gates, wires, orderings and printed precisions, but not
the amount of work: every quantity the cost of a round follows (wire
counts, gate counts per arity, run lengths and run contents, inserted
pairs) is fixed per workload, and the circuits are built so that the gate
count ``optimize`` reaches is the same for every seed.  So the spread
between runs with different seeds is the spread of the measurement, not
of the inputs.

Regenerate a workload's inputs, with the list of its CLI calls, with

    python3 bench/inputs.py --workload rewrite --seed 1 --out rewrite-1
"""

from __future__ import annotations

import argparse
import os
import random
from dataclasses import dataclass, field

from oracle import BUILTINS, invert, is_identity, then

WORKLOADS = ("census", "rewrite", "semantics")

# builtin gates by their images, so generated gates print under their name
_NAMES = {images: name for name, images in BUILTINS.items() if name != "I"}
_BUILTIN_BY_ARITY = {1: ["X"], 2: ["CNOT", "SWAP"], 3: ["TOFFOLI", "FREDKIN"]}


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``name`` is unique within a round and ``params``
    carries what the output check needs to know about the inputs.  A
    ``known_fault`` param is the start of the error the operation raises
    in every round because of a known program fault."""

    name: str
    kind: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict)


# --- gates as (images, wires) --------------------------------------------------


def one_line(images) -> str:
    return "(" + ",".join(str(i + 1) for i in invert(images)) + ")"


def _random_perm(rng: random.Random, k: int) -> tuple:
    """A random non-identity gate on k qubits."""
    while True:
        images = list(range(2 ** k))
        rng.shuffle(images)
        if not is_identity(images):
            return tuple(images)


def _gate(rng: random.Random, n_wires: int, k: int, inline: bool):
    """A k-qubit gate on random wires: a builtin, or an inline permutation."""
    images = (_random_perm(rng, k) if inline
              else BUILTINS[rng.choice(_BUILTIN_BY_ARITY[k])])
    return images, tuple(rng.sample(range(n_wires), k))


def _cancels(a, b) -> bool:
    return a[1] == b[1] and is_identity(then(a[0], b[0]))


def _gate_kinds(rng: random.Random, count: int) -> list[tuple[int, bool]]:
    """``count`` (arity, inline) kinds in fixed proportions, seeded order:
    a fifth X, two fifths 2-qubit and two fifths 3-qubit, each half builtin
    and half inline.  Semantics cost depends on arity, so it is the same
    for every seed."""
    ones = count // 5
    twos = (count - ones) // 2
    threes = count - ones - twos
    kinds = [(1, False)] * ones
    for k, n in ((2, twos), (3, threes)):
        kinds += [(k, False)] * (n // 2) + [(k, True)] * (n - n // 2)
    rng.shuffle(kinds)
    return kinds


def random_circuit(rng: random.Random, n_wires: int, count: int) -> list:
    """A reduced circuit: no two neighbours cancel, so inserting inverse
    pairs and cancelling them again gives exactly this circuit back."""
    gates = []
    for k, inline in _gate_kinds(rng, count):
        gate = _gate(rng, n_wires, k, inline)
        while gates and _cancels(gates[-1], gate):
            gate = _gate(rng, n_wires, k, inline)
        gates.append(gate)
    return gates


def insert_pairs(rng: random.Random, n_wires: int, gates, pairs: int) -> list:
    """Insert g, g^-1 at random positions; later pairs may land inside
    earlier ones, which makes nested cancellations."""
    gates = list(gates)
    for k, inline in _gate_kinds(rng, pairs):
        images, wires = _gate(rng, n_wires, k, inline)
        pos = rng.randint(0, len(gates))
        gates[pos:pos] = [(images, wires), (invert(images), wires)]
    return gates


def format_circuit(n_wires: int, gates) -> str:
    lines = [f"qubits {n_wires}"]
    for images, wires in gates:
        ws = " ".join(map(str, wires))
        name = _NAMES.get(images)
        lines.append(f"gate {name} {ws}" if name else f"perm {one_line(images)} {ws}")
    return "\n".join(lines) + "\n"


# --- census ------------------------------------------------------------------------

ENUMERATE_DIMENSION = 9
STATS_QUBITS = range(1, 12)
# stats --qubits 11 prints 2048!, past the default int-to-str digit limit,
# and raises this in every round; any other raise is a wrong output
STATS_FAULT = (11, "ValueError: Exceeds the limit (4300 digits)")


def _census(rng: random.Random):
    ops = [Op(f"classify-q{q}", "classify",
              ("classify", "--qubits", str(q), "--decimals", str(d)),
              {"qubits": q, "decimals": d})
           for q in (1, 2, 3) for d in [rng.randint(0, 12)]]
    ops += [Op(f"stats-q{q}", "stats",
               ("stats", "--qubits", str(q), "--decimals", str(d)),
               {"qubits": q, "decimals": d}
               | ({"known_fault": STATS_FAULT[1]} if q == STATS_FAULT[0] else {}))
            for q in STATS_QUBITS for d in [rng.randint(0, 12)]]
    ops.append(Op(f"enumerate-d{ENUMERATE_DIMENSION}", "enumerate",
                  ("enumerate", "--dimension", str(ENUMERATE_DIMENSION),
                   "--filter", "non-involution"),
                  {"dimension": ENUMERATE_DIMENSION}))
    rng.shuffle(ops)
    return ops, {}


# --- rewrite -----------------------------------------------------------------------

STORES = {3: "stores/s4-m3.tmpl", 4: "stores/s4-m4.tmpl"}
# (wires, runs, run length, store max size): one circuit each
REWRITE_CIRCUITS = (
    (3, 24, 3, 3),
    (4, 18, 4, 3),
    (5, 15, 5, 3),
    (4, 12, 6, 3),
    (4, 8, 4, 4),
    (5, 8, 5, 4),
)


def _run(rng: random.Random, length: int) -> list:
    """``length`` non-identity S_4 gates with no neighbours cancelling and
    no prefix of two or more gates composing to the identity, so the
    optimizer collapses the run to one gate one template at a time."""
    while True:
        gates = [_random_perm(rng, 2)]
        product = gates[0]
        for _ in range(length - 1):
            g = _random_perm(rng, 2)
            product = then(product, g)
            if is_identity(product) or is_identity(then(gates[-1], g)):
                break
            gates.append(g)
        if len(gates) == length:
            return gates


def rewrite_runs(index: int) -> list[list]:
    """The gate values of circuit ``index``'s runs.  They come from a fixed
    table, not from the seed: a rewrite's cost is set by the first stored
    template that matches its window, so seeded gate values moved the
    scan's work by several percent between seeds."""
    _, runs, length, _ = REWRITE_CIRCUITS[index]
    table = random.Random(f"rewrite-runs:{index}")
    return [_run(table, length) for _ in range(runs)]


def rewrite_circuit(rng: random.Random, n_wires: int, runs: list[list]) -> list:
    """The runs in seeded order, each on a seeded ordered wire pair and
    followed by a builtin separator (X, or a 3-qubit gate on seeded wires),
    so every run is its own window.  The scan's work does not depend on
    the order because all runs of a circuit have one length.  Each run
    collapses to one gate and no separator meets another, so the reduced
    circuit has exactly two gates per run."""
    runs = list(runs)
    rng.shuffle(runs)
    separators = [1, 3] * (len(runs) // 2) + [1] * (len(runs) % 2)
    rng.shuffle(separators)
    gates = []
    for run, k in zip(runs, separators):
        pair = tuple(rng.sample(range(n_wires), 2))
        gates += [(g, pair) for g in run]
        gates.append(_gate(rng, n_wires, k, inline=False))
    return gates


def _rewrite(rng: random.Random):
    ops = [Op(f"templates-m{m}", "templates",
              ("templates", "--dimension", "4", "--max-size", str(m),
               "--out", STORES[m]),
              {"dimension": 4, "max_size": m, "out": STORES[m]})
           for m in (3, 4)]
    files = {}
    for i, (n_wires, _, _, m) in enumerate(REWRITE_CIRCUITS):
        src, out = f"in/r{i:02d}.circ", f"out/r{i:02d}.circ"
        gates = rewrite_circuit(rng, n_wires, rewrite_runs(i))
        files[src] = format_circuit(n_wires, gates)
        ops.append(Op(f"optimize-r{i:02d}", "optimize",
                      ("optimize", "--circuit", src, "--templates", STORES[m],
                       "--out", out),
                      {"circuit": src, "out": out, "collapse_runs": True}))
    return ops, files


# --- semantics ---------------------------------------------------------------------

# (kind, wires, gates, inserted inverse pairs)
SEMANTICS_CASES = (
    ("equivalent", 10, 200, 20),
    ("differ", 10, 200, 20),
    ("equivalent", 11, 100, 10),
    ("differ", 12, 50, 5),
    ("optimize", 11, 100, 10),
    ("optimize", 12, 50, 5),
)


def _commute(rng: random.Random, gates, attempts: int) -> list:
    """Swap neighbours on disjoint wires, which never changes semantics."""
    gates = list(gates)
    for _ in range(attempts):
        i = rng.randrange(len(gates) - 1)
        if not set(gates[i][1]) & set(gates[i + 1][1]):
            gates[i], gates[i + 1] = gates[i + 1], gates[i]
    return gates


def _semantics(rng: random.Random):
    ops, files = [], {}
    for i, (kind, n_wires, size, pairs) in enumerate(SEMANTICS_CASES):
        base = random_circuit(rng, n_wires, size)
        a = f"in/s{i:02d}a.circ"
        if kind == "optimize":
            out = f"out/s{i:02d}.circ"
            files[a] = format_circuit(n_wires, insert_pairs(rng, n_wires, base, pairs))
            ops.append(Op(f"optimize-s{i:02d}", "optimize",
                          ("optimize", "--circuit", a, "--out", out),
                          {"circuit": a, "out": out, "collapse_runs": False}))
            continue
        other = list(base)
        if kind == "differ":
            # X is the only non-identity 1-qubit gate, so change a wider one
            pos = rng.choice([j for j, g in enumerate(other) if len(g[1]) > 1])
            images, wires = other[pos]
            changed = images
            while changed == images:
                changed = _random_perm(rng, len(wires))
            other[pos] = (changed, wires)
        other = _commute(rng, insert_pairs(rng, n_wires, other, pairs), size)
        b = f"in/s{i:02d}b.circ"
        files[a] = format_circuit(n_wires, base)
        files[b] = format_circuit(n_wires, other)
        ops.append(Op(f"verify-s{i:02d}", "verify",
                      ("verify", "--circuit", a, "--circuit", b),
                      {"a": a, "b": b, "expect": kind}))
    return ops, files


def workload(name: str, seed: int):
    """(ops, files): one round of operations and {relative path: text}."""
    make = {"census": _census, "rewrite": _rewrite, "semantics": _semantics}[name]
    return make(random.Random(f"{name}:{seed}"))


def write_inputs(files: dict, root: str) -> None:
    for rel, text in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    for sub in ("out", "stores", "stdout"):
        os.makedirs(os.path.join(root, sub), exist_ok=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args()
    ops, files = workload(args.workload, args.seed)
    write_inputs(files, args.out)
    with open(os.path.join(args.out, "ops.txt"), "w", encoding="ascii") as fh:
        fh.writelines("permgate " + " ".join(op.argv) + "\n" for op in ops)
    print(f"{len(ops)} operations, {len(files)} input files in {args.out}")


if __name__ == "__main__":
    main()
