"""Command-line front end.

Subcommands print deterministic text: identical invocations give byte
identical stdout, diagnostics and summaries go to stderr.  Every printed
number comes from exact integer/rational arithmetic.  Each command imports
the modules it runs, so stats and enumerate never load the optimizer.

Exit codes: 0 success, 1 domain error (caps, parse failures, memory
exhausted, DIFFER), 2 usage error.  `verify`'s exit 1 means DIFFER only,
so every failure there exits 2.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import itertools
import math
import sys
import warnings
from fractions import Fraction

from . import counting
from .counting import render_percent
from .errors import PermGateError
from .perm import check_enumeration_cap, involutions

# enumerate writes S_m in blocks: the k! lines, k = min(m, ENUMERATE_TAIL),
# that share their first m - k entries.  Under every filter one write call
# holds at most ENUMERATE_BLOCK lines, so output streams in bounded memory.
ENUMERATE_TAIL = 7
ENUMERATE_BLOCK = math.factorial(ENUMERATE_TAIL)


@functools.cache
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
    p.add_argument("--force", action="store_true",
                   help="override the wire cap and the store's template "
                        "length cap")

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


def _check_census_args(args, parser) -> None:
    if args.qubits < 1:
        parser.error("--qubits must be >= 1")
    if not 0 <= args.decimals <= counting.MAX_DECIMALS:
        parser.error(f"--decimals must be in 0..{counting.MAX_DECIMALS}")


def _cmd_stats(args, parser) -> int:
    _check_census_args(args, parser)
    total, hermitian = counting.census(args.qubits, args.force)
    ratio = Fraction(total - hermitian, total)
    print(f"qubits={args.qubits}")
    print(f"dimension={2 ** args.qubits}")
    print(f"total={_digits(total)}")
    print(f"hermitian={_digits(hermitian)}")
    print(f"non_hermitian={_digits(total - hermitian)}")
    print(f"non_hermitian_percent={render_percent(ratio, args.decimals)}")
    return 0


def _involution_lines(m):
    """Return lines(prefix): the ascending indices, in the block of S_m's
    listing whose lines start with prefix (see _write_blocks), of the
    lines that are involutions.

    With j = m - k prefix entries and k tail entries, an entry p_i < j of
    the prefix must have p[p_i] = i, or the block holds no involution.
    Each p_i >= j forces the tail entry at position p_i - j to be i, and
    these forced values are the tail's smallest.  The other f tail
    positions are the tail's other values, and any involution of them
    completes the line.  A line's index is the Lehmer code of its tail's
    value ranks: the forced positions add a constant, and the free ones a
    term that depends only on which positions are forced.  So each such
    layout (at most 2^k of them) has one list of terms, made on its first
    use in the call from the Lehmer codes of S_f's involutions, in
    lexicographic order; no involution of S_m is searched for.
    """
    k = min(m, ENUMERATE_TAIL)
    j = m - k
    weight = [math.factorial(k - 1 - q) for q in range(k)]

    @functools.cache
    def free_terms(weights):
        # the Lehmer code terms of the involutions of free positions of
        # these weights, in lexicographic order: the first point is fixed,
        # or it swaps with the b-th, the smallest value, which sits to the
        # right of the b - 1 points between them
        if len(weights) < 2:
            return [0]
        first, rest = weights[0], weights[1:]
        terms = list(free_terms(rest))
        for b in range(1, len(weights)):
            terms += map((b * first + sum(rest[:b - 1])).__add__,
                         free_terms(rest[:b - 1] + rest[b:]))
        return terms

    @functools.cache
    def layout_terms(forced):
        free = [q for q in range(k) if q not in forced]
        # a free position's rank exceeds every forced rank to its right
        base = sum(weight[q] * sum(p > q for p in forced) for q in free)
        return list(map(base.__add__,
                        free_terms(tuple(weight[q] for q in free))))

    def lines(prefix):
        forced = []  # forced tail positions, by their values 0, 1, ...
        for i, v in enumerate(prefix):
            if v >= j:
                forced.append(v - j)
            elif prefix[v] != i:
                return ()
        # the forced value ranked a sits at forced[a]; it exceeds each
        # earlier value that sits to its right
        shift = sum(weight[q] * sum(p > q for p in forced[:a])
                    for a, q in enumerate(forced))
        return list(map(shift.__add__, layout_terms(frozenset(forced))))

    return lines


def _write_blocks(m, tokens, skip, write) -> int:
    """Write S_m's lines in lexicographic order, one block per write, less
    the lines of each block that skip(prefix) names by their index in the
    block, ascending; return the count.

    S_m in lexicographic order is one block of k! lines per prefix of
    m - k entries, the prefixes in the order itertools.permutations yields
    them, and a block's tail runs over the k points left, ascending, in
    the order of permutations(range(k)).  So every block is one template
    translated to the block's points.  The template marks the last
    min(m, 9) entries of a line, all of it when every token is one digit;
    it is joined in C: a lead of "p" and the marked prefix entries, then
    each tail of marks from permutations, ",".join-ed.  Its mark "p" is
    replaced by the text of the other entries whenever that text changes
    (once, by "(", when m <= 9).  A token of two or more digits is
    translated to a one-character stand-in, which keeps translate on its
    ASCII fast path, and then expanded by one replace.  Every line has
    the same width, so a skipped line starts at width times its index,
    and the kept slices are joined once per block.  No Permutation is
    built and no Python code runs per kept line.
    """
    k = min(m, ENUMERATE_TAIL)
    j = m - k  # entries in a block's prefix
    marks, stand_ins = "abcdefghi"[:m], "ABCDEFGHI"
    fixed = m - len(marks)  # leading entries that the template does not mark
    lead = "p" + "".join(mark + "," for mark in marks[:j - fixed])
    template = lead + (")\n" + lead).join(
        map(",".join, itertools.permutations(marks[j - fixed:]))) + ")\n"
    width = sum(map(len, tokens)) + m + 2  # every line holds every token
    count = 0
    head = None
    for prefix in itertools.permutations(range(m), j):
        if prefix[:fixed] != head:
            head = prefix[:fixed]
            body = template.replace(
                "p", "(" + "".join(tokens[v] + "," for v in head))
        tail = tuple(v for v in range(m) if v not in prefix)
        points = prefix[fixed:] + tail
        block = body.translate(str.maketrans(marks, "".join(
            tokens[v] if len(tokens[v]) == 1 else stand_ins[i]
            for i, v in enumerate(points))))
        for i, v in enumerate(points):
            if len(tokens[v]) > 1:
                block = block.replace(stand_ins[i], tokens[v])
        skipped = skip(prefix)
        if skipped:
            pieces, start = [], 0
            for line in skipped:
                at = line * width
                pieces.append(block[start:at])
                start = at + width
            pieces.append(block[start:])
            block = "".join(pieces)
        write(block)
        count += len(block) // width
    return count


def _cmd_enumerate(args, parser) -> int:
    m = args.dimension
    if m < 1:
        parser.error("--dimension must be >= 1")
    check_enumeration_cap(m, args.force)
    # The listing is built as text: no Permutation per line.  `involution`
    # lists the involutions from their own depth-first search in
    # lexicographic order, without walking S_m; `non-involution` cuts them
    # out of each block of S_m at the line indices that the block's prefix
    # decides, so both stream in bounded memory, past the cap too.
    tokens = [str(k) for k in range(1, m + 1)]
    write = sys.stdout.write
    if args.filter == "involution":
        lines = (",".join(map(tokens.__getitem__, p))
                 for p in involutions(m, args.force))
        count = 0
        while chunk := list(itertools.islice(lines, ENUMERATE_BLOCK)):
            write("(" + ")\n(".join(chunk) + ")\n")
            count += len(chunk)
    else:
        skip = (_involution_lines(m) if args.filter == "non-involution"
                else lambda prefix: ())
        count = _write_blocks(m, tokens, skip, write)
    print(f"count={count}", file=sys.stderr)
    return 0


def _cmd_classify(args, parser) -> int:
    from .classify import classify_all
    _check_census_args(args, parser)
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
    from .templates import (MAX_TEMPLATE_SIZE, GateLibrary, generate_templates,
                            save_store)
    m = args.dimension
    if m < 2 or m & (m - 1):
        parser.error("--dimension must be a power of two >= 2")
    if not 2 <= args.max_size <= MAX_TEMPLATE_SIZE:
        parser.error(f"--max-size must be in 2..{MAX_TEMPLATE_SIZE}")
    library = GateLibrary.symmetric_group(m, force=args.force)
    # the store budget warning is printed as one line of its own, not in the
    # warnings module's format, which names this install's source file
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        store = generate_templates(library, args.max_size, force=args.force)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    save_store(store, args.out)
    print(f"templates={len(store)}")
    return 0


def _cmd_optimize(args, parser) -> int:
    from . import circuit as circ
    circuit = circ.load_circuit(args.circuit, force=args.force)
    store = None
    if args.templates:
        from .templates import load_store
        store = load_store(args.templates, force=args.force)
    optimized, report = circ.optimize(circuit, store)
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
    from . import circuit as circ
    if len(args.circuit) != 2:
        parser.error("verify needs exactly two --circuit arguments")
    # one line memo across both files: b mostly repeats a's lines
    a, b = circ._load_circuits(args.circuit, force=args.force)
    first = circ.equivalent(a, b)
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
    # verify's exit 1 means DIFFER, so every failure there (unreadable or
    # mismatched inputs, memory exhausted) exits 2, as usage errors do
    failed = 2 if args.command == "verify" else 1
    try:
        return _COMMANDS[args.command](args, parser)
    except (PermGateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
    return failed


if __name__ == "__main__":
    sys.exit(main())
