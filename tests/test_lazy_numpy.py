"""Each command loads only the modules it runs; numpy only Permutation.matrix.

`import permgate` loads no submodule.  stats and enumerate load the CLI
and the census modules (counting, errors, perm) alone; classify adds
classify, templates adds the template engine (templates, gatetable), the
circuit commands (verify, optimize) add circuit, and optimize adds the
template engine only when it is given a store.  No command touches
numpy.  Each check runs in a fresh interpreter, since this test process
may have imported any of these already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permgate

SRC = Path(permgate.__file__).resolve().parents[1]

# Runs in the child, writing its files under argv[1] and running the CLI
# commands that argv[2] names, in order.  After each step it records the
# exit code (None for an import), whether numpy is loaded and the permgate
# modules loaded, then prints the list as JSON.
CHILD = r"""
import contextlib, io, json, os, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "permgate")

steps = [("start", None, "numpy" in sys.modules, loaded())]
import permgate
steps.append(("import permgate", None, "numpy" in sys.modules, loaded()))

tmp = sys.argv[1]
store = os.path.join(tmp, "s4.tmpl")
circuit = os.path.join(tmp, "in.circ")
names = json.loads(sys.argv[2])
with open(circuit, "w") as fh:
    fh.write("qubits 2\ngate CNOT 0 1\ngate X 1\ngate X 1\ngate CNOT 0 1\n")
if "templates" not in names:  # optimize reads an empty store instead
    with open(store, "w") as fh:
        fh.write("templates dim=4\n")
runs = {
    "stats": ["stats", "--qubits", "3"],
    "enumerate": ["enumerate", "--dimension", "4", "--filter", "non-involution"],
    "enumerate-involution": ["enumerate", "--dimension", "4",
                             "--filter", "involution"],
    "classify": ["classify", "--qubits", "2"],
    "templates": ["templates", "--dimension", "4", "--max-size", "3",
                  "--out", store],
    "verify": ["verify", "--circuit", circuit, "--circuit", circuit],
    "optimize": ["optimize", "--circuit", circuit, "--templates", store,
                 "--out", os.path.join(tmp, "out.circ")],
    "optimize-no-store": ["optimize", "--circuit", circuit,
                          "--out", os.path.join(tmp, "out.circ")],
}
if names:
    from permgate import cli
    steps.append(("import permgate.cli", None, "numpy" in sys.modules,
                  loaded()))
for name in names:
    argv = runs[name]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    steps.append((argv[0], code, "numpy" in sys.modules, loaded()))
print(json.dumps(steps))
"""


def run_child(tmp_path, names):
    """The steps the child records when it runs the named commands."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path), json.dumps(names)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    steps = json.loads(done.stdout)
    return [step[:3] for step in steps], [step[3] for step in steps]


def test_census_commands_leave_numpy_unloaded(tmp_path):
    steps, _ = run_child(tmp_path, [
        "stats", "enumerate", "enumerate-involution", "classify",
        "templates", "verify", "optimize"])
    assert steps == [
        ["start", None, False],
        ["import permgate", None, False],
        ["import permgate.cli", None, False],
        ["stats", 0, False],
        ["enumerate", 0, False],
        ["enumerate", 0, False],
        ["classify", 0, False],
        ["templates", 0, False],
        # circuit semantics are Python ints, not numpy arrays
        ["verify", 0, False],
        ["optimize", 0, False],
    ]


def test_import_permgate_loads_no_submodule(tmp_path):
    _, modules = run_child(tmp_path, [])
    assert modules == [[], ["permgate"]]


CENSUS = ["permgate", "permgate.cli", "permgate.counting", "permgate.errors",
          "permgate.perm"]
ENGINE = ["permgate.gatetable", "permgate.templates"]


@pytest.mark.parametrize("name, extra", [
    ("stats", []),
    ("enumerate", []),
    ("enumerate-involution", []),
    ("classify", ["permgate.classify"]),
    ("templates", ENGINE),
    ("verify", ["permgate.circuit"]),
    ("optimize", ["permgate.circuit", *ENGINE]),
    ("optimize-no-store", ["permgate.circuit"]),
])
def test_each_command_loads_only_its_modules(tmp_path, name, extra):
    steps, modules = run_child(tmp_path, [name])
    assert steps[-1][1] == 0
    assert modules[-2] == CENSUS  # after import permgate.cli
    assert modules[-1] == sorted(CENSUS + extra)
