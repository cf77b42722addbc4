"""Command-line front end.

Subcommands print deterministic text: identical invocations give byte
identical stdout, diagnostics and summaries go to stderr.  Every printed
number comes from exact integer/rational arithmetic.

Exit codes: 0 success, 1 domain error (caps, parse failures, DIFFER), 2
usage error.  `verify` is the one command where unreadable inputs are a
usage error (exit 2), since exit 1 there means "circuits differ".
"""

from __future__ import annotations

import argparse
import decimal
import itertools
import sys
from fractions import Fraction

from . import circuit as circ
from . import counting
from .classify import classify_all
from .counting import render_percent
from .errors import CapExceeded, PermGateError
from .perm import ENUMERATION_CAP, check_enumeration_cap, involutions
from .templates import (
    MAX_TEMPLATE_SIZE,
    GateLibrary,
    generate_templates,
    load_store,
    save_store,
)

# stats computes (2^n)! and a(2^n) exactly: on an Intel Xeon it takes 0.4 s
# at 14 qubits, 1.7 s at 15 and about 4.5 times longer per qubit after that
STATS_CAP = 14

# enumerate writes its lines in chunks of at most this many, so output
# streams in bounded memory with one write call per chunk
ENUMERATE_CHUNK = 1024


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permgate",
        description="Exact statistics, templates, and peephole optimization "
                    "for permutation gates on basis indices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="involution counts and the non-self-inverse "
                                     "percentage for n qubits")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--decimals", type=int, default=4)
    p.add_argument("--force", action="store_true",
                   help="override the qubit cap")

    p = sub.add_parser("enumerate", help="list S_M in one-line notation")
    p.add_argument("--dimension", type=int, required=True)
    p.add_argument("--filter", choices=["all", "involution", "non-involution"],
                   default="all")
    p.add_argument("--force", action="store_true",
                   help="override the dimension cap")

    p = sub.add_parser("classify", help="exact Hermitian/separable census")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--decimals", type=int, default=2)
    p.add_argument("--force", action="store_true",
                   help="override the qubit cap")

    p = sub.add_parser("templates", help="generate an identity-template store")
    p.add_argument("--dimension", type=int, required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true",
                   help="override the library size cap")

    p = sub.add_parser("optimize", help="shrink a circuit, preserving semantics")
    p.add_argument("--circuit", required=True)
    p.add_argument("--templates", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--budget", type=int, default=circ.DEFAULT_REWRITE_BUDGET)
    p.add_argument("--force", action="store_true",
                   help="override the wire cap")

    p = sub.add_parser("verify", help="check two circuit files for equality")
    p.add_argument("--circuit", action="append", required=True,
                   metavar="FILE", help="given twice: the circuits to compare")
    p.add_argument("--force", action="store_true",
                   help="override the wire cap")

    return parser


def _digits(n: int) -> str:
    """Decimal digits of n, exact at any size: int-to-str refuses past the
    interpreter's digit limit (4300 by default; 2048! has 5895 digits), and
    raising that limit would change it for the whole process."""
    return str(decimal.Decimal(n))


def _cmd_stats(args, parser) -> int:
    if not 1 <= args.qubits <= counting.MAX_QUBITS:
        parser.error(f"--qubits must be in 1..{counting.MAX_QUBITS}")
    if not 0 <= args.decimals <= counting.MAX_DECIMALS:
        parser.error(f"--decimals must be in 0..{counting.MAX_DECIMALS}")
    if args.qubits > STATS_CAP and not args.force:
        raise CapExceeded(
            f"stats over S_{2 ** args.qubits} refused: cap is {STATS_CAP} "
            f"qubits; pass --force to override"
        )
    dim = 2 ** args.qubits
    total = counting._gate_count(args.qubits)
    hermitian = counting.involution_count(dim)
    ratio = Fraction(total - hermitian, total)
    print(f"qubits={args.qubits}")
    print(f"dimension={dim}")
    print(f"total={_digits(total)}")
    print(f"hermitian={_digits(hermitian)}")
    print(f"non_hermitian={_digits(total - hermitian)}")
    print(f"non_hermitian_percent={render_percent(ratio, args.decimals)}")
    return 0


def _cmd_enumerate(args, parser) -> int:
    m = args.dimension
    if m < 1:
        parser.error("--dimension must be >= 1")
    check_enumeration_cap(m, args.force)
    # A line is the entries' digit strings permuted in step with the 0-based
    # images: itertools.permutations yields the same positional order for
    # both, which is the lexicographic order of the images.  The pipeline
    # runs in C and builds no Permutation per line.
    tokens = [str(k) for k in range(1, m + 1)]
    involution_lines = (",".join(map(tokens.__getitem__, p))
                        for p in involutions(m, args.force))
    if args.filter == "involution":
        lines = involution_lines
    else:
        lines = map(",".join, itertools.permutations(tokens))
    if args.filter == "non-involution" and m <= ENUMERATION_CAP:
        lines = itertools.filterfalse(set(involution_lines).__contains__,
                                      lines)
    elif args.filter == "non-involution":
        # past the cap (--force) the a(m) texts would not fit in memory, so
        # each line's images are tested instead
        ident = tuple(range(m))
        lines = itertools.compress(lines, (
            tuple(map(p.__getitem__, p)) != ident
            for p in itertools.permutations(ident)))
    write = sys.stdout.write
    count = 0
    while chunk := list(itertools.islice(lines, ENUMERATE_CHUNK)):
        write("(" + ")\n(".join(chunk) + ")\n")
        count += len(chunk)
    print(f"count={count}", file=sys.stderr)
    return 0


def _cmd_classify(args, parser) -> int:
    if args.qubits < 1:
        parser.error("--qubits must be >= 1")
    if not 0 <= args.decimals <= counting.MAX_DECIMALS:
        parser.error(f"--decimals must be in 0..{counting.MAX_DECIMALS}")
    report = classify_all(args.qubits, force=args.force)
    print(f"qubits={report.n_qubits}")
    print(f"total={_digits(report.total)}")
    print(f"hermitian={_digits(report.hermitian_count)}")
    print(f"non_hermitian={_digits(report.non_hermitian_count)}")
    print(f"separable={_digits(report.separable_count)}")
    print(f"entangled={_digits(report.entangled_count)}")
    print("non_hermitian_percent="
          + render_percent(report.non_hermitian_fraction, args.decimals))
    print("entangled_percent="
          + render_percent(report.entangled_fraction, args.decimals))
    return 0


def _cmd_templates(args, parser) -> int:
    m = args.dimension
    if m < 2 or m & (m - 1):
        parser.error("--dimension must be a power of two >= 2")
    if not 2 <= args.max_size <= MAX_TEMPLATE_SIZE:
        parser.error(f"--max-size must be in 2..{MAX_TEMPLATE_SIZE}")
    library = GateLibrary.symmetric_group(m, force=args.force)
    store = generate_templates(library, args.max_size, force=args.force)
    save_store(store, args.out)
    print(f"templates={len(store)}")
    return 0


def _cmd_optimize(args, parser) -> int:
    if args.budget < 0:
        parser.error("--budget must be >= 0")
    circuit = circ.load_circuit(args.circuit, force=args.force)
    store = load_store(args.templates) if args.templates else None
    optimized, report = circ.optimize(circuit, store, budget=args.budget)
    if circ.equivalent(optimized, circuit) is not None:
        print("internal error: optimized circuit is not equivalent; "
              "no output written", file=sys.stderr)
        return 1
    circ.save_circuit(optimized, args.out)
    print(f"gates_before={report.gates_before}")
    print(f"gates_after={report.gates_after}")
    print(f"removed={report.removed}")
    print(f"rewrites={report.template_rewrites}")
    return 0


def _cmd_verify(args, parser) -> int:
    if len(args.circuit) != 2:
        parser.error("verify needs exactly two --circuit arguments")
    try:
        a = circ.load_circuit(args.circuit[0], force=args.force)
        b = circ.load_circuit(args.circuit[1], force=args.force)
        first = circ.equivalent(a, b)
    except (PermGateError, OSError) as exc:
        # exit 1 is reserved for DIFFER here, so unusable inputs (unreadable,
        # or of different wire counts) are usage
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if first is None:
        print("EQUIVALENT")
        return 0
    print("DIFFER")
    print(f"first differing basis index: {first}", file=sys.stderr)
    return 1


_COMMANDS = {
    "stats": _cmd_stats,
    "enumerate": _cmd_enumerate,
    "classify": _cmd_classify,
    "templates": _cmd_templates,
    "optimize": _cmd_optimize,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        return handler(args, parser)
    except PermGateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
