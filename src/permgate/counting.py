"""Exact counts of involutions and the non-self-inverse gate fraction.

Everything here is integer/rational arithmetic end to end; floats never
enter, so percentages reproduce bit for bit.  Counts are plain Python ints
(arbitrary precision) and ratios are ``fractions.Fraction`` (always stored
reduced).
"""

from __future__ import annotations

from contextlib import suppress
from fractions import Fraction

import math
import sys

from .errors import DimensionError

MAX_QUBITS = 64
MAX_DECIMALS = 50


def involution_count(m: int) -> int:
    """Number of self-inverse permutations on m letters.

    Follows the recurrence a(0) = a(1) = 1, a(m) = a(m-1) + (m-1)*a(m-2):
    element m is either a fixed point or swapped with one of the other m-1.
    Equivalently m! times the x^m coefficient of exp(x + x^2/2).

    Note these are involution numbers (1, 2, 4, 10, 26, 76, ...), not the
    alternating-permutation numbers, despite the occasional naming mix-up
    in the literature.
    """
    if m < 0:
        raise ValueError(f"negative count argument {m}")
    prev2, prev1 = 1, 1  # a(0), a(1)
    if m == 0:
        return prev2
    for k in range(2, m + 1):
        prev2, prev1 = prev1, prev1 + (k - 1) * prev2
    return prev1


def _gate_count(n_qubits: int) -> int:
    """(2^n)!, the number of permutation gates on n qubits.

    math.factorial takes at most a C long (2^63 - 1 on 64-bit Linux), so
    from n = 63 on this is a DimensionError rather than an OverflowError;
    2^n is not even built where it would pass sys.maxsize.
    """
    if n_qubits < sys.maxsize.bit_length():
        with suppress(OverflowError):
            return math.factorial(2 ** n_qubits)
    raise DimensionError(
        f"the (2^{n_qubits})! gates on {n_qubits} qubits are past what "
        f"math.factorial can count"
    )


def non_hermitian_fraction(n_qubits: int) -> Fraction:
    """Exact fraction of n-qubit permutation gates that are not self-inverse.

    ((2^n)! - a(2^n)) / (2^n)! as a reduced Fraction in [0, 1].  The 2^n
    basis indices must fit an index type, hence the n <= 64 guard; actual
    computation above a dozen qubits is exact but slow.
    """
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise DimensionError(
            f"qubit count {n_qubits} out of range 1..{MAX_QUBITS}"
        )
    total = _gate_count(n_qubits)
    return Fraction(total - involution_count(2 ** n_qubits), total)


def render_percent(ratio: Fraction, decimals: int) -> str:
    """Render ratio*100 as a percentage string with fixed decimals.

    Rounds half-even, computed from the exact rational (no binary floating
    point anywhere), e.g. Fraction(7, 12) at 2 decimals gives "58.33%".
    """
    if not 0 <= decimals <= MAX_DECIMALS:
        raise ValueError(f"decimals {decimals} out of range 0..{MAX_DECIMALS}")
    scale = 10 ** decimals
    numer = ratio.numerator * 100 * scale
    denom = ratio.denominator
    q, r = divmod(numer, denom)
    double = 2 * r
    if double > denom or (double == denom and q % 2 == 1):
        q += 1
    if decimals == 0:
        return f"{q}%"
    whole, frac = divmod(q, scale)
    return f"{whole}.{frac:0{decimals}d}%"
