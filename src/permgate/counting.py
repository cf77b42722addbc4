"""Exact counts of involutions and the non-self-inverse gate fraction.

census counts the gates on n qubits and their involutions, under the one
census cap; stats, classify and non_hermitian_fraction all call it.

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

from .errors import DimensionError, check_cap

MAX_DECIMALS = 50

# a census computes (2^n)! and a(2^n) exactly: on an Intel Xeon it takes
# 0.4 s at 14 qubits, 1.7 s at 15 and about 4.5 times longer per qubit after
CENSUS_CAP = 14


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
    for k in range(2, m + 1):
        prev2, prev1 = prev1, prev1 + (k - 1) * prev2
    return prev1


def census(n_qubits: int, force: bool = False) -> tuple[int, int]:
    """((2^n)!, a(2^n)): the n-qubit permutation gates, and the self-inverse.

    n < 1 is a DimensionError, and n > CENSUS_CAP a CapExceeded unless force
    is set.  math.factorial takes at most a C long (2^63 - 1 on 64-bit
    Linux), so from n = 63 on this is a DimensionError even under force, not
    an OverflowError; 2^n is not even built where it would pass sys.maxsize.
    """
    if n_qubits < 1:
        raise DimensionError(f"invalid qubit count {n_qubits}")
    check_cap(n_qubits > CENSUS_CAP, force, f"census over {n_qubits} qubits",
              f"{CENSUS_CAP} qubits")
    if n_qubits < sys.maxsize.bit_length():
        with suppress(OverflowError):
            total = math.factorial(2 ** n_qubits)
            return total, involution_count(2 ** n_qubits)
    raise DimensionError(
        f"the (2^{n_qubits})! gates on {n_qubits} qubits are past what "
        f"math.factorial can count"
    )


def non_hermitian_fraction(n_qubits: int) -> Fraction:
    """Exact fraction of n-qubit permutation gates that are not self-inverse.

    ((2^n)! - a(2^n)) / (2^n)! as a reduced Fraction in [0, 1].  Uncapped:
    the census bounds n only below 1 and from 63 on; actual computation
    above a dozen qubits is exact but slow.
    """
    total, hermitian = census(n_qubits, force=True)
    return Fraction(total - hermitian, total)


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
