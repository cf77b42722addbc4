"""The measured process: one fresh interpreter per run (see run.py).

It imports permgate, writes the workload's seeded inputs, prints READY,
then repeats whole rounds of the workload's operations until the time is
up.  Each operation calls ``permgate.cli.main(argv)`` in-process with
stdout sent to a file and stderr captured; only that call is timed.  The
outputs are checked afterwards by run.py in another process, so nothing
here holds or inspects them beyond a digest.

From its first line of code to its end, a speed probe (speedprobe.py)
samples how fast the host is running this process, so that each
operation's wall time, and the set-up time reported on the READY line,
can be scaled to the host's quiet speed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

from speedprobe import SpeedProbe


def _digest(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _run_op(main, op) -> dict:
    err = io.StringIO()
    stdout_path = os.path.join("stdout", op.name)
    error = None
    gc.collect()
    with open(stdout_path, "w", encoding="utf-8") as out:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(list(op.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # the failure is the measurement
                code, error = None, f"{type(exc).__name__}: {exc}"
            out.flush()
            end = time.perf_counter()
    target = op.params.get("out")
    return {"op": op.name, "start": start, "end": end, "exit": code,
            "error": error, "stderr": err.getvalue(),
            "stdout_sha": _digest(stdout_path),
            "out_sha": _digest(target) if target else None}


def _setup_and_run(probe: SpeedProbe, began: float):
    """Set up, report READY with the set-up time since ``began`` (wall and
    scaled), then run rounds unless this is a set-up sample."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once ready: a set-up time sample")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import permgate.cli
    import inputs

    ops, files = inputs.workload(args.workload, args.seed)
    inputs.write_inputs(files, args.workdir)
    os.chdir(args.workdir)
    tracer = None
    if args.trace and not args.setup_only:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    ready = time.perf_counter()
    print(f"READY {ready - began:.9f} {probe.scaled(began, ready):.9f}", flush=True)
    if args.setup_only:
        return [], [], None

    rounds, layers = [], []
    while True:
        before = tracer.snapshot() if tracer else None
        rounds.append([_run_op(permgate.cli.main, op) for op in ops])
        if tracer:
            after = tracer.snapshot()
            layers.append({k: after[k] - before[k] for k in after})
        elapsed = time.perf_counter() - ready
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            return rounds, layers, tracer


def main() -> int:
    probe = SpeedProbe()
    with probe:
        began = time.perf_counter()
        rounds, layers, tracer = _setup_and_run(probe, began)
    for round_ in rounds:
        for rec in round_:
            rec["seconds"] = rec["end"] - rec["start"]
            rec["scaled"] = probe.scaled(rec["start"], rec["end"])
    if not rounds:
        return 0

    result = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layers,
        "functions": tracer.per_function() if tracer else {},
        "probe": probe.summary(),
    }
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
