from fractions import Fraction
from math import factorial

import pytest

from permgate import counting
from permgate.counting import (
    CENSUS_CAP,
    census,
    involution_count,
    non_hermitian_fraction,
    render_percent,
)
from permgate.errors import CapExceeded, DimensionError
from permgate.perm import enumerate_permutations

# involution numbers for 1..17 letters
INVOLUTION_SEQUENCE = [
    1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496, 35696, 140152, 568504,
    2390480, 10349536, 46206736, 211799312,
]


def egf_involution_count(m: int) -> int:
    """Independent oracle: m! times the x^m coefficient of exp(x + x^2/2),
    by exact truncated polynomial arithmetic over Fractions."""
    # f = x + x^2/2; exp(f) = sum f^k / k!, truncated at degree m
    f = [Fraction(0), Fraction(1), Fraction(1, 2)]
    series = [Fraction(0)] * (m + 1)
    series[0] = Fraction(1)
    power = [Fraction(1)]  # f^0
    kfact = 1
    for k in range(1, m + 1):
        nxt = [Fraction(0)] * (m + 1)
        for i, c in enumerate(power):
            for j, d in enumerate(f):
                if c and d and i + j <= m:
                    nxt[i + j] += c * d
        power = nxt
        kfact *= k
        for deg in range(m + 1):
            series[deg] += power[deg] / kfact
    value = series[m] * factorial(m)
    assert value.denominator == 1
    return value.numerator


class TestInvolutionCount:
    def test_published_sequence(self):
        assert [involution_count(m) for m in range(1, 18)] == INVOLUTION_SEQUENCE

    def test_empty_permutation(self):
        assert involution_count(0) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            involution_count(-1)

    def test_egf_oracle_up_to_20(self):
        for m in range(21):
            assert involution_count(m) == egf_involution_count(m)

    def test_enumeration_oracle_up_to_8(self):
        for m in range(1, 9):
            brute = sum(p.is_involution() for p in enumerate_permutations(m))
            assert involution_count(m) == brute

    def test_bounded_by_factorial(self):
        for m in range(20):
            a = involution_count(m)
            assert a <= factorial(m)
            assert (a == factorial(m)) == (m <= 2)


class TestCensus:
    def test_counts(self):
        assert census(1) == (2, 2)
        assert census(2) == (24, 10)
        assert census(3) == (40320, 764)
        assert census(4) == (factorial(16), INVOLUTION_SEQUENCE[15])

    def test_cap(self):
        assert CENSUS_CAP == 14
        with pytest.raises(CapExceeded, match="census over 15 qubits refused: "
                                              "cap is 14 qubits; "):
            census(15)

    def test_force_overrides_the_cap(self, monkeypatch):
        monkeypatch.setattr(counting, "CENSUS_CAP", 2)
        with pytest.raises(CapExceeded, match="cap is 2 qubits"):
            census(3)
        assert census(3, force=True) == (40320, 764)

    @pytest.mark.parametrize("n_qubits", [0, -1])
    def test_invalid_qubits(self, n_qubits):
        with pytest.raises(DimensionError, match="invalid qubit count"):
            census(n_qubits, force=True)

    @pytest.mark.parametrize("n_qubits", [63, 64, 99999])
    def test_past_math_factorial_even_under_force(self, n_qubits):
        with pytest.raises(CapExceeded):
            census(n_qubits)
        with pytest.raises(DimensionError, match="math.factorial"):
            census(n_qubits, force=True)


class TestNonHermitianFraction:
    def test_one_qubit_all_involutions(self):
        assert non_hermitian_fraction(1) == Fraction(0)

    def test_two_qubits(self):
        assert non_hermitian_fraction(2) == Fraction(7, 12)
        assert non_hermitian_fraction(2) == Fraction(14, 24)

    def test_three_qubits(self):
        assert non_hermitian_fraction(3) == Fraction(40320 - 764, 40320)

    def test_stored_reduced(self):
        f = non_hermitian_fraction(3)
        assert f.numerator == 9889 and f.denominator == 10080

    def test_strictly_increasing(self):
        values = [non_hermitian_fraction(n) for n in range(1, 7)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_uncapped(self, monkeypatch):
        monkeypatch.setattr(counting, "CENSUS_CAP", 1)
        assert non_hermitian_fraction(3) == Fraction(40320 - 764, 40320)

    def test_range_guard(self):
        with pytest.raises(DimensionError):
            non_hermitian_fraction(0)
        with pytest.raises(DimensionError):
            non_hermitian_fraction(65)

    def test_past_math_factorial(self):
        # (2^63)! is past the C long that math.factorial takes
        for n_qubits in (63, 64):
            with pytest.raises(DimensionError, match="math.factorial"):
                non_hermitian_fraction(n_qubits)


class TestRenderPercent:
    def test_published_figures(self):
        assert render_percent(Fraction(7, 12), 2) == "58.33%"
        assert render_percent(non_hermitian_fraction(3), 4) == "98.1052%"
        assert render_percent(non_hermitian_fraction(4), 4) == "99.9998%"

    def test_zero(self):
        assert render_percent(Fraction(0, 1), 2) == "0.00%"

    def test_one(self):
        assert render_percent(Fraction(1), 2) == "100.00%"

    def test_half_even_ties(self):
        # 0.125% and 0.375% are exact ties at two decimals
        assert render_percent(Fraction(1, 800), 2) == "0.12%"
        assert render_percent(Fraction(3, 800), 2) == "0.38%"
        # 12.5% and 37.5% at zero decimals
        assert render_percent(Fraction(1, 8), 0) == "12%"
        assert render_percent(Fraction(3, 8), 0) == "38%"

    def test_zero_decimals_format(self):
        assert render_percent(Fraction(7, 12), 0) == "58%"

    def test_padding(self):
        assert render_percent(Fraction(1, 100), 4) == "1.0000%"
        assert render_percent(Fraction(1, 10000), 4) == "0.0100%"

    def test_many_decimals(self):
        assert render_percent(Fraction(1, 3), 10) == "33.3333333333%"
        # 50 decimals of 1/3, rounded half-even on a trailing ...33
        expected = "33." + "3" * 50 + "%"
        assert render_percent(Fraction(1, 3), 50) == expected

    def test_decimals_out_of_range(self):
        with pytest.raises(ValueError):
            render_percent(Fraction(1, 2), 51)
        with pytest.raises(ValueError):
            render_percent(Fraction(1, 2), -1)
