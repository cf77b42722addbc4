"""numpy is loaded only for Permutation.matrix.

No subcommand touches numpy: importing the package and running the census
commands (stats, enumerate, classify), templates, and the circuit commands
(verify, optimize) must leave it unloaded.  Each check runs in a fresh
interpreter, since this test process may have imported numpy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import permgate

SRC = Path(permgate.__file__).resolve().parents[1]

# Runs in the child, writing its files under argv[1].  After each step it
# records the exit code (None for an import) and whether numpy is loaded,
# then prints the list as JSON.
CHILD = r"""
import contextlib, io, json, os, sys

steps = [("start", None, "numpy" in sys.modules)]
import permgate
steps.append(("import permgate", None, "numpy" in sys.modules))
from permgate import cli
steps.append(("import permgate.cli", None, "numpy" in sys.modules))

tmp = sys.argv[1]
store = os.path.join(tmp, "s4.tmpl")
circuit = os.path.join(tmp, "in.circ")
with open(circuit, "w") as fh:
    fh.write("qubits 2\ngate CNOT 0 1\ngate X 1\ngate X 1\ngate CNOT 0 1\n")
runs = [
    ["stats", "--qubits", "3"],
    ["enumerate", "--dimension", "4", "--filter", "non-involution"],
    ["enumerate", "--dimension", "4", "--filter", "involution"],
    ["classify", "--qubits", "2"],
    ["templates", "--dimension", "4", "--max-size", "3", "--out", store],
    ["verify", "--circuit", circuit, "--circuit", circuit],
    ["optimize", "--circuit", circuit, "--templates", store,
     "--out", os.path.join(tmp, "out.circ")],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    steps.append((argv[0], code, "numpy" in sys.modules))
print(json.dumps(steps))
"""


def test_census_commands_leave_numpy_unloaded(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
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
