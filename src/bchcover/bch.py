"""Narrow-sense binary BCH codes of odd length, primitive or not.

For length n with m = ord_n(2), the code lives in GF(2^m) through the n-th
root of unity beta = alpha^((2^m - 1)/n); the generator polynomial is the
product of (x + beta^j) over the defining set Z = {r * 2^i mod n : 1 <= r <
delta}, which is the lcm of the minimal polynomials of beta^1 ..
beta^(delta-1). Non-primitive lengths (n < 2^m - 1, e.g. 17 and 23) come out
of the same construction.

``multiplicative_order_of_two`` gives m and refuses m > 16, past the field
tables; ``generator_polynomial`` multiplies out the |Z| linear factors in
GF(2^m); ``build_bch`` returns the code with m, the one number of its
construction that the code does not hold (n and delta are ``code.n`` and
``code.designed_distance``, and beta = alpha^((2^m - 1)/n)).
"""

from __future__ import annotations

from .gf2m import MAX_DEGREE, make_field
from .linear_code import LinearCode, from_generator_poly


def multiplicative_order_of_two(n: int) -> int:
    """Smallest m >= 1 with 2^m = 1 (mod n); n must be odd and >= 3.

    Stops after ``MAX_DEGREE`` doublings: a larger order has no field table.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    v = 2 % n
    for m in range(1, MAX_DEGREE + 1):
        if v == 1:
            return m
        v = (2 * v) % n
    raise ValueError(f"ord_n(2) exceeds {MAX_DEGREE} for n = {n}: no GF(2^m) table past m = {MAX_DEGREE}")


def generator_polynomial(n: int, delta: int) -> int:
    """Product of (x + beta^j) over the defining set Z of beta^1 .. beta^(delta-1).

    Z holds every r * 2^i mod n with 1 <= r < delta. It is closed under
    doubling, so the product is the lcm of the minimal polynomials of
    beta^1 .. beta^(delta-1) and its coefficients lie in GF(2). Returned
    as an int, bit i the coefficient of x^i.
    """
    if not 2 <= delta <= n:
        raise ValueError(f"designed distance must satisfy 2 <= delta <= n, got {delta}")
    m = multiplicative_order_of_two(n)
    ctx = make_field(m)
    step = (ctx.order - 1) // n
    defining_set = {r * (1 << i) % n for r in range(1, delta) for i in range(m)}
    coeffs = [1]  # GF(2^m) coefficients, index = power of x
    for j in defining_set:
        root = ctx.alpha_power(step * j)
        coeffs = [a ^ ctx.mul(b, root) for a, b in zip([0, *coeffs], [*coeffs, 0])]  # * (x + root)
    if any(c > 1 for c in coeffs):
        raise AssertionError("generator polynomial has non-binary coefficients")
    return sum(c << i for i, c in enumerate(coeffs))


def build_bch(n: int, delta: int) -> tuple[LinearCode, int]:
    """The narrow-sense BCH code of length n and designed distance delta, and m = ord_n(2).

    Only builds: the code carries delta as its designed distance, and the
    minimum distance is left to ``LinearCode.min_distance``, computed by
    whoever reads it. The code lives in GF(2^m), ``make_field(m)``.
    """
    g = generator_polynomial(n, delta)
    return from_generator_poly(g, n, designed_distance=delta), multiplicative_order_of_two(n)
