from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from bchcover.bch import build_bch
from bchcover.bounds import (
    classify,
    johnson_binary_floor,
    johnson_curve,
    johnson_general_floor,
    tau_wu,
)
from bchcover.linear_code import LinearCode, Word
from bchcover.manifest import TABLE1
from bchcover.radius import RadiusResult

from conftest import bch_code, radius_result

mp.mp.dps = 60

# The bound values are n - sqrt(rad) (resp. halved); when rad is a perfect
# square they are exact integers/rationals that 60-digit floating floors can
# still get wrong by one, so the oracle resolves square radicands exactly
# and uses mpmath only for the genuinely irrational cases (where a quadratic
# irrational cannot sit within 1e-50 of an integer at these magnitudes).
from math import isqrt


def mp_binary_floor(n, d):
    rad = n * (n - 2 * d)
    s = isqrt(rad)
    if s * s == rad:
        return (n - s) // 2
    return int(mp.floor((n - mp.sqrt(rad)) / 2))


def mp_general_floor(n, d):
    rad = n * (n - d)
    s = isqrt(rad)
    if s * s == rad:
        return n - s
    return int(mp.floor(n - mp.sqrt(rad)))


def mp_tau_wu(n, d, eps: Fraction):
    t = (d - 1) // 2
    rad = n * (n - 2 * d)
    s = isqrt(rad)
    if s * s == rad:
        return int(eps * t + (1 - eps) * Fraction(n - s, 2))  # exact rational
    e = mp.mpf(eps.numerator) / eps.denominator
    j = (n - mp.sqrt(rad)) / 2
    return int(mp.floor(e * t + (1 - e) * j))


# ---------------------------------------------------------------------------
# Johnson floors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,d,expected", [(15, 5, 3), (23, 7, 4), (31, 15, 12), (63, 11, 6)])
def test_binary_floor_examples(n, d, expected):
    assert johnson_binary_floor(n, d) == expected


@pytest.mark.parametrize("n,d,expected", [(15, 5, 2), (7, 3, 1), (5, 5, 5), (9, 9, 9)])
def test_general_floor_examples(n, d, expected):
    assert johnson_general_floor(n, d) == expected


@pytest.mark.parametrize("row", TABLE1, ids=lambda r: f"n{r.n}-d{r.d}")
def test_binary_floor_matches_reference_column(row):
    assert johnson_binary_floor(row.n, row.d) == row.tau_binary


def test_floor_argument_validation():
    with pytest.raises(ValueError):
        johnson_binary_floor(15, 8)  # 2d > n
    with pytest.raises(ValueError):
        johnson_binary_floor(15, 0)
    with pytest.raises(ValueError):
        johnson_general_floor(15, 16)
    with pytest.raises(ValueError):
        johnson_general_floor(0, 1)


def test_exhaustive_small_lengths():
    # binary >= general >= 0 and binary >= t for d <= n/2; the binary floor
    # agrees with 60-digit evaluation for every n <= 128 and d <= n/2, the
    # general floor for every d <= n, where it is defined
    for n in range(1, 129):
        for d in range(1, n // 2 + 1):
            tb = johnson_binary_floor(n, d)
            assert tb >= johnson_general_floor(n, d) >= 0
            assert tb >= (d - 1) // 2
            assert tb == mp_binary_floor(n, d)
        for d in range(1, n + 1):
            assert johnson_general_floor(n, d) == mp_general_floor(n, d)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5000), st.data())
def test_floors_match_high_precision_large(n, data):
    d = data.draw(st.integers(1, max(1, n // 2)))
    if 2 * d > n:
        return
    assert johnson_binary_floor(n, d) == mp_binary_floor(n, d)
    assert johnson_general_floor(n, d) == mp_general_floor(n, d)


def test_boundary_row_is_exact():
    # (31, 7): (31 - 2*4)^2 = 529 vs 31*17 = 527 -- one unit from flipping
    assert johnson_binary_floor(31, 7) == 4


def test_curve_shape():
    curve = johnson_curve(31)
    assert len(curve) == 15
    assert curve[0] == (1, 0, 0)
    for (d1, g1, b1), (d2, g2, b2) in zip(curve, curve[1:]):
        assert d2 == d1 + 1
        assert g2 >= g1 and b2 >= b1  # monotone in d
    assert all(b >= g for _, g, b in curve)


# ---------------------------------------------------------------------------
# relaxed Wu radius
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("row", TABLE1, ids=lambda r: f"n{r.n}-d{r.d}")
def test_wu_collapses_to_packing_radius_at_epsilon_one(row):
    t = (row.d - 1) // 2
    assert tau_wu(row.n, row.d, 1) == (t, 1)


def test_wu_examples():
    assert tau_wu(23, 7, Fraction(1, 3)) == (3, 3)
    assert tau_wu(31, 15, Fraction(1, 10)) == (12, 10)


def test_wu_multiplicity_is_floor_of_inverse():
    assert tau_wu(23, 7, Fraction(2, 3)).multiplicity == 1
    assert tau_wu(23, 7, Fraction(3, 7)).multiplicity == 2
    assert tau_wu(23, 7, Fraction(1, 10)).multiplicity == 10


EPS_GRID = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 10)]


@pytest.mark.parametrize("row", TABLE1, ids=lambda r: f"n{r.n}-d{r.d}")
def test_wu_sandwich_and_monotonicity(row):
    t = (row.d - 1) // 2
    tb = johnson_binary_floor(row.n, row.d)
    taus = [tau_wu(row.n, row.d, e).tau for e in EPS_GRID]
    for tau in taus:
        assert t <= tau <= tb
    # epsilon decreasing along the grid -> tau non-decreasing
    assert taus == sorted(taus)


@pytest.mark.parametrize("row", TABLE1, ids=lambda r: f"n{r.n}-d{r.d}")
def test_wu_matches_high_precision_on_dense_grid(row):
    for q in range(1, 10):
        for p in range(1, q + 1):
            eps = Fraction(p, q)
            assert tau_wu(row.n, row.d, eps).tau == mp_tau_wu(row.n, row.d, eps)


def test_wu_validation():
    with pytest.raises(ValueError):
        tau_wu(23, 7, 0)
    with pytest.raises(ValueError):
        tau_wu(23, 7, Fraction(3, 2))
    with pytest.raises(ValueError):
        tau_wu(15, 8, Fraction(1, 2))  # 2d > n


def test_wu_accepts_rational_strings():
    assert tau_wu(23, 7, "1/3") == (3, 3)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_wu_covered_code():
    report = classify(bch_code(15, 5), radius_result(15, 5))
    assert (report.n, report.k, report.d, report.t) == (15, 7, 5, 2)
    assert report.covering_radius == 3
    assert report.tau_binary == 3 and report.tau_general == 2
    assert report.is_a_covered and not report.strictly_covered
    assert report.wu_covered and not report.is_perfect


def test_classify_uncovered_code():
    report = classify(bch_code(31, 5), radius_result(31, 5))
    assert report.covering_radius == 3 and report.tau_binary == 2
    assert not report.is_a_covered and not report.wu_covered


def test_classify_golay_strictly_covered():
    report = classify(bch_code(23, 5), radius_result(23, 5))
    assert report.is_perfect
    assert report.is_a_covered and report.strictly_covered  # 3 < 4
    assert report.wu_covered


def test_classify_perfect_without_johnson_slack():
    report = classify(bch_code(15, 3), radius_result(15, 3))
    assert report.is_perfect
    assert report.is_a_covered          # R = tau = 1: definition holds
    assert not report.wu_covered        # but the Johnson radius adds nothing
    assert not report.strictly_covered


def test_classify_unknown_radius_policy():
    code, _ = build_bch(15, 5)  # fresh code, no radius attached
    report = classify(code)
    assert report.covering_radius is None
    assert not report.is_a_covered and not report.is_perfect and not report.wu_covered
    assert "R unknown" in report.comment


def test_classify_lower_bound_distance_is_flagged():
    code, _ = build_bch(63, 5)
    # the search's own result for [63,51]; only R enters the report
    radius = RadiusResult(3, (1, 63, 1953, 2079), Word.from_text("111000000000"))
    report = classify(code, radius)
    assert not report.d_exact
    assert "lower bound" in report.comment


def test_classify_saturated_binary_bound():
    repetition = LinearCode([0b11111], 5)  # d = 5, 2d > n
    report = classify(repetition, RadiusResult(2, (1, 5, 10), Word.from_text("1100")))
    assert report.tau_binary == 2  # n // 2 convention
    assert "2d > n" in report.comment


def test_classify_keeps_caller_comment():
    report = classify(bch_code(23, 5), radius_result(23, 5), comment="Wu-covered code")
    assert report.comment == "Wu-covered code"
