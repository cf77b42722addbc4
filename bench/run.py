"""Benchmark for permgate: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is taken from ``src/`` next to this
directory.  Set-up is sampled in several fresh interpreters (start-up,
``import permgate``, writing the seeded inputs); then one more fresh
interpreter (worker.py) repeats whole rounds of the workload's operations
for about ``--seconds``.  This process then checks every output against
oracle.py and prints the metrics.  With ``--trace 1`` the worker wraps the
layer modules (layertrace.py) and the per-layer metrics are printed
instead of the end-to-end ones.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import checks
import inputs
from layertrace import METRICS as LAYER_METRICS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_SAMPLES = 15  # the worker's own set-up is one of them
DEADLINE_S = 170  # the whole run, set-up samples and checks included


def _worker_env() -> dict:
    env = dict(os.environ)
    # single-threaded, the interpreter's default int->str digit limit, and
    # a fixed hash seed so that dict and set layouts repeat between runs
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _start(args, workdir: str, setup_only: bool, deadline: float):
    """Start a worker; return (process, its set-up time): wall time until
    it printed READY, with the part after the worker's first line of code
    scaled to the quiet speed as run_s is."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--root", ROOT, "--workdir", workdir, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_worker_env(), text=True)
    waiting = max(0.0, deadline - time.monotonic())
    if not select.select([proc.stdout], [], [], waiting)[0]:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker was not ready before the deadline")
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    fields = line.split()
    if len(fields) != 3 or fields[0] != "READY":
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        raise RuntimeError(f"worker did not start: {err.strip()[-2000:]}")
    # the part the worker could probe is taken at the quiet speed
    return proc, ready - float(fields[1]) + float(fields[2])


def _finish(proc, deadline: float) -> None:
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")


def _measure(args, workdir: str, deadline: float):
    """Set-up samples and the worker's result.  A traced run reports no
    set-up time, so it takes no extra samples."""
    setup = []
    # the first sample is not counted: it fills bytecode and file caches
    for i in range(0 if args.trace else SETUP_SAMPLES):
        sample_dir = os.path.join(workdir, f"setup{i}")
        proc, ready = _start(args, sample_dir, True, deadline)
        _finish(proc, deadline)
        if i:
            setup.append(ready)
    proc, ready = _start(args, os.path.join(workdir, "run"), False, deadline)
    try:
        _finish(proc, deadline)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    setup.append(ready)
    with open(os.path.join(workdir, "run", "result.json"), encoding="utf-8") as fh:
        return setup, json.load(fh)


def _judge(ops, files, rounds, workdir):
    """Check the last round's outputs in full and every other round against
    its digests.  Returns (attempted, failed, wrong, gates_out, notes).
    Only an operation's ``known_fault`` counts as failed but not wrong;
    any other raise is a wrong output."""
    checker = checks.Checker(workdir, files)
    last = {rec["op"]: rec for rec in rounds[-1]}
    verdicts = {}
    for op in ops:
        error, fault = last[op.name]["error"], op.params.get("known_fault")
        if error is None:
            verdicts[op.name] = checker.check(op, last[op.name])
        elif fault and error.startswith(fault):
            verdicts[op.name] = ([], 0)
        else:
            verdicts[op.name] = ([f"raised {error[:120]}"], 0)
    attempted = failed = wrong = 0
    notes = set()
    same = ("exit", "error", "stderr", "stdout_sha", "out_sha")
    for round_ in rounds:
        for rec in round_:
            attempted += 1
            problems, _ = verdicts[rec["op"]]
            if any(rec[k] != last[rec["op"]][k] for k in same):
                problems = ["output differs between rounds"]
            if rec["error"] is not None and not problems:
                failed += 1
                notes.add(f"{rec['op']} raised {rec['error'][:120]}")
            elif problems:
                failed += 1
                wrong += 1
                notes.add(f"{rec['op']}: {problems[0]}")
    gates_out = sum(verdicts[op.name][1] for op in ops)
    return attempted, failed, wrong, gates_out, sorted(notes)


def _median_round(rounds, key: str) -> float:
    """Per operation, the median over rounds; summed over the round."""
    return sum(statistics.median(r[i][key] for r in rounds)
               for i in range(len(rounds[0])))


def _layer_metrics(rounds, layers) -> dict:
    """Per-layer medians over rounds.  Each round's times are scaled to the
    quiet speed by that round's own factor, as run_s is."""
    units = dict(LAYER_METRICS)
    per_round = []
    for round_, counts in zip(rounds, layers):
        factor = (sum(rec["scaled"] for rec in round_)
                  / sum(rec["seconds"] for rec in round_))
        per_round.append({name: value * factor if units[name] == "s" else value
                          for name, value in counts.items()})
    return {name: {"value": statistics.median(r[name] for r in per_round),
                   "unit": unit} for name, unit in LAYER_METRICS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "permgate", "cli.py")):
        print(f"error: no permgate sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # the checks print (2^n)! in full

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup, result = _measure(args, workdir, deadline)
        ops, files = inputs.workload(args.workload, args.seed)
        rounds = result["rounds"]
        attempted, failed, wrong, gates_out, notes = _judge(
            ops, files, rounds, os.path.join(workdir, "run"))
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run_s = _median_round(rounds, "scaled")
    wall_s = _median_round(rounds, "seconds")
    if args.trace:
        metrics = _layer_metrics(rounds, result["layers"])
        metrics["trace.run_s"] = {"value": run_s, "unit": "s"}
        trace_path = os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "rounds": len(rounds), "per_round": result["layers"],
                       "functions": result["functions"]}, fh, indent=1)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "gates_out": {"value": gates_out, "unit": "gates"},
        }
    probe = result["probe"]
    print(f"workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"ops_per_round={len(ops)} ops_attempted={attempted} ops_failed={failed}")
    print(f"  unscaled wall time per round {wall_s:.6g} s; {probe['samples']} "
          f"speed samples, median slowdown {probe['median_slowdown']:.3g}")
    for note in notes:
        print(f"  {note}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
