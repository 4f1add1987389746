"""Decoding-radius bounds and code classification.

The two Johnson radii and the relaxed Wu radius are irrational in general:

    binary Johnson   (n/2) (1 - sqrt(1 - 2d/n)) = (n - sqrt(n(n-2d))) / 2
    general Johnson   n    (1 - sqrt(1 -  d/n))
    relaxed Wu        eps * t + (1 - eps) * (n - sqrt(n(n-2d))) / 2

Several table rows sit right at integer boundaries, so floors are decided
by exact integer predicates, never by floating point. Each radius has the
form (C - E*sqrt(D)) / F with integers C, E, D, F, and z <= it iff
C - z*F >= 0 and E^2 * D <= (C - z*F)^2; one helper finds the largest such
z for all three. For the binary Johnson radius that reads 2*tau <= n and
(n - 2*tau)^2 >= n(n - 2d).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .linear_code import LinearCode
from .radius import RadiusResult


def johnson_binary_floor(n: int, d: int) -> int:
    """floor of (n/2)(1 - sqrt(1 - 2d/n)); defined for 1 <= d <= n/2."""
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if 2 * d > n:
        raise ValueError(f"binary Johnson bound undefined for 2d > n (n={n}, d={d})")
    return _floor_linear_minus_sqrt(n, 1, n * (n - 2 * d), 2)


def johnson_general_floor(n: int, d: int) -> int:
    """floor of n(1 - sqrt(1 - d/n)); defined for 1 <= d <= n."""
    if n < 1 or not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got n={n}, d={d}")
    return _floor_linear_minus_sqrt(n, 1, n * (n - d), 1)


def johnson_curve(n: int) -> list[tuple[int, int, int]]:
    """(d, general floor, binary floor) for d = 1 .. n//2, for plotting."""
    return [(d, johnson_general_floor(n, d), johnson_binary_floor(n, d)) for d in range(1, n // 2 + 1)]


class WuRadius(NamedTuple):
    tau: int
    multiplicity: int


def _floor_linear_minus_sqrt(c: int, e: int, rad: int, f: int) -> int:
    """floor((c - e*sqrt(rad)) / f) for integers e, rad >= 0 and f > 0."""
    sq = e * e * rad
    z = (c - isqrt(sq) - 1) // f  # c - isqrt(sq) - 1 < c - e*sqrt(rad), so z never overshoots
    while True:
        rem = c - (z + 1) * f
        if rem >= 0 and sq <= rem * rem:
            z += 1
        else:
            return z


def tau_wu(n: int, d: int, epsilon: Fraction | int | str) -> WuRadius:
    """Decoding radius of the relaxed (quasi-quadratic) regime.

    tau = floor(eps*t + (1-eps) * (n - sqrt(n(n-2d)))/2) with multiplicity
    floor(1/eps); runtime of the underlying decoder is O(n^2 floor(1/eps)^4).
    epsilon must be an exact rational in (0, 1].
    """
    eps = Fraction(epsilon)
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {eps}")
    if n < 1 or d < 1 or 2 * d > n:
        raise ValueError(f"need 1 <= d <= n/2, got n={n}, d={d}")
    t = (d - 1) // 2
    a, b = eps.numerator, eps.denominator
    c = 2 * a * t + (b - a) * n
    tau = _floor_linear_minus_sqrt(c, b - a, n * (n - 2 * d), 2 * b)
    return WuRadius(tau=tau, multiplicity=b // a)


@dataclass(frozen=True)
class CoverageReport:
    """One classification verdict: parameters, bounds, and coverage flags.

    ``is_a_covered`` is the definitional predicate R <= tau_binary.
    ``wu_covered`` additionally requires tau_binary > t, i.e. list decoding
    at the binary Johnson radius reaches beyond the packing radius; perfect
    codes whose Johnson radius equals t are therefore not flagged, matching
    how the comparison table labels them. Both flags are exposed on purpose.
    """

    n: int
    k: int
    d: int
    d_exact: bool
    t: int
    covering_radius: int | None
    tau_general: int
    tau_binary: int
    is_perfect: bool
    is_a_covered: bool
    strictly_covered: bool
    wu_covered: bool
    comment: str


def classify(code: LinearCode, radius: RadiusResult | None = None, comment: str = "") -> CoverageReport:
    """Classify a code against the Johnson radii and its covering radius.

    ``radius`` is the code's ``covering_radius`` result; without one every
    coverage flag is reported False and the comment says "R unknown".
    """
    d, exactness = code.min_distance()
    t = (d - 1) // 2
    notes = [comment] if comment else []
    if exactness != "exact":
        notes.append("d is a lower bound")
    tau_general = johnson_general_floor(code.n, d)
    if 2 * d > code.n:
        # ball-covering regime the bound formula cannot express; report n/2
        tau_binary = code.n // 2
        notes.append("binary Johnson bound undefined for 2d > n; reported as n/2")
    else:
        tau_binary = johnson_binary_floor(code.n, d)
    r = None if radius is None else radius.covering_radius
    if r is None:
        notes.append("R unknown")
        perfect = a_covered = strict = wu = False
    else:
        perfect = r == t
        a_covered = r <= tau_binary
        strict = r < tau_binary
        wu = a_covered and tau_binary > t
    return CoverageReport(
        n=code.n,
        k=code.k,
        d=d,
        d_exact=exactness == "exact",
        t=t,
        covering_radius=r,
        tau_general=tau_general,
        tau_binary=tau_binary,
        is_perfect=perfect,
        is_a_covered=a_covered,
        strictly_covered=strict,
        wu_covered=wu,
        comment="; ".join(notes),
    )
