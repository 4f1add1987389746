"""Narrow-sense binary BCH codes of odd length, primitive or not.

For length n with m = ord_n(2), the code lives in GF(2^m) through the n-th
root of unity beta = alpha^((2^m - 1)/n); the generator polynomial is the
lcm of the minimal polynomials of beta^1 .. beta^(delta-1). Non-primitive
lengths (n < 2^m - 1, e.g. 17 and 23) come out of the same construction.

``coset_of`` walks the doubling orbit of one exponent, ``minimal_polynomial``
multiplies out the roots of one orbit, ``generator_polynomial`` takes the
product over the distinct orbits below delta, and ``build_bch`` returns the
code with its ``BchSpec``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2m import BinaryPolynomial, FieldContext, make_field
from .linear_code import LinearCode, from_generator_poly


@dataclass(frozen=True)
class BchSpec:
    """Defining data of a narrow-sense BCH code of length n."""

    n: int
    m: int              # ord_n(2), the extension degree used
    delta: int          # designed distance
    b: int              # first consecutive root exponent (always 1 here)
    beta_log: int       # log_alpha(beta) = (2^m - 1) / n


def multiplicative_order_of_two(n: int) -> int:
    """Smallest m >= 1 with 2^m = 1 (mod n); n must be odd and >= 3."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    m, v = 1, 2 % n
    while v != 1:
        v = (2 * v) % n
        m += 1
    return m


def coset_of(n: int, exponent: int) -> tuple[int, ...]:
    """The cyclotomic coset of the exponent: its orbit under doubling mod n, sorted."""
    members: list[int] = []
    x = exponent % n
    while x not in members:
        members.append(x)
        x = (2 * x) % n
    return tuple(sorted(members))


def minimal_polynomial(ctx: FieldContext, exponent: int, n: int) -> BinaryPolynomial:
    """Minimal polynomial over GF(2) of beta^exponent, beta of order n.

    The product of (x + beta^j) over the doubling orbit of the exponent is
    conjugate-closed, so its coefficients collapse to GF(2).
    """
    if (ctx.order - 1) % n != 0:
        raise ValueError(f"GF(2^{ctx.m}) has no element of order {n}")
    step = (ctx.order - 1) // n
    coeffs = [1]  # GF(2^m) coefficients, index = power of x
    for j in coset_of(n, exponent):
        root = ctx.alpha_power(step * j)
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] ^= c
            nxt[i] ^= ctx.mul(c, root)
        coeffs = nxt
    if any(c not in (0, 1) for c in coeffs):
        raise AssertionError("minimal polynomial has non-binary coefficients")
    v = 0
    for i, c in enumerate(coeffs):
        v |= c << i
    return BinaryPolynomial(v)


def generator_polynomial(n: int, delta: int) -> BinaryPolynomial:
    """lcm of the minimal polynomials of beta^1 .. beta^(delta-1).

    Distinct minimal polynomials are coprime, so the lcm is their product
    over distinct cosets.
    """
    if not 2 <= delta <= n:
        raise ValueError(f"designed distance must satisfy 2 <= delta <= n, got {delta}")
    m = multiplicative_order_of_two(n)
    ctx = make_field(m)
    g = BinaryPolynomial(1)
    done: set[int] = set()
    for r in range(1, delta):
        rep = coset_of(n, r)[0]
        if rep in done:
            continue
        done.add(rep)
        g = g * minimal_polynomial(ctx, r, n)
    return g


def build_bch(n: int, delta: int) -> tuple[LinearCode, BchSpec]:
    """Construct the narrow-sense BCH code of length n and designed distance delta.

    Calls ``min_distance`` once, so the exact minimum distance is computed
    here when 2^k fits ``CODEWORD_BUDGET`` and kept on the code; otherwise
    the code carries delta as a designed-distance lower bound. Computing it
    enumerates 2^min(k, n-k) words (the code or its dual, see
    ``LinearCode.min_distance``), but the budget still gates on 2^k.
    """
    g = generator_polynomial(n, delta)
    if int(g.degree) >= n:
        raise ValueError(f"delta = {delta} consumes every root: k = 0, no code left")
    m = multiplicative_order_of_two(n)
    spec = BchSpec(n=n, m=m, delta=delta, b=1, beta_log=((1 << m) - 1) // n)
    code = from_generator_poly(g, n, designed_distance=delta)
    code.min_distance()
    return code, spec
