"""Arithmetic in the extension fields GF(2^m), 2 <= m <= 16.

Polynomials over GF(2), such as the moduli below and the BCH generators,
are plain ints: bit i is the coefficient of x^i, so a nonzero polynomial p
has degree p.bit_length() - 1 and the zero polynomial is 0.

Field elements are ints in [0, 2^m): bit i is the coefficient of alpha^i in
the polynomial basis, where alpha is a root of the modulus. Each degree uses
the lexicographically smallest primitive polynomial, so every build produces
bit-identical tables and codes:

    m=2 : x^2 + x + 1           m=10: x^10 + x^3 + 1
    m=3 : x^3 + x + 1           m=11: x^11 + x^2 + 1
    m=4 : x^4 + x + 1           m=12: x^12 + x^6 + x^4 + x + 1
    m=5 : x^5 + x^2 + 1         m=13: x^13 + x^4 + x^3 + x + 1
    m=6 : x^6 + x + 1           m=14: x^14 + x^5 + x^3 + x + 1
    m=7 : x^7 + x + 1           m=15: x^15 + x + 1
    m=8 : x^8 + x^4 + x^3       m=16: x^16 + x^5 + x^3 + x^2 + 1
          + x^2 + 1
    m=9 : x^9 + x^4 + 1

A FieldContext is immutable after construction and safe to share across
threads; all operations are pure.
"""

from __future__ import annotations

# Lexicographically smallest primitive polynomial per degree, as int bitmasks.
PRIMITIVE_POLYS: dict[int, int] = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100000000101011,
    15: 0b1000000000000011,
    16: 0b10000000000101101,
}

MIN_DEGREE = 2
MAX_DEGREE = 16


class FieldContext:
    """GF(2^m) with precomputed log/exp tables (O(1) multiply).

    ``exp_table[i]`` is alpha^i for 0 <= i < 2^m - 1, enumerating every
    nonzero element exactly once; ``log_table`` is its inverse map.
    """

    __slots__ = ("m", "primitive_poly", "order", "exp_table", "log_table")

    def __init__(self, m: int) -> None:
        if not MIN_DEGREE <= m <= MAX_DEGREE:
            raise ValueError(f"extension degree m={m} out of range [{MIN_DEGREE}, {MAX_DEGREE}]")
        self.m = m
        self.primitive_poly = PRIMITIVE_POLYS[m]
        self.order = 1 << m
        exp = [0] * (self.order - 1)
        log = [0] * self.order
        x = 1
        for i in range(self.order - 1):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & self.order:
                x ^= self.primitive_poly
        if x != 1:
            raise AssertionError(f"modulus for m={m} is not primitive")
        self.exp_table = tuple(exp)
        self.log_table = tuple(log)

    def mul(self, a: int, b: int) -> int:
        """Field multiplication via log/exp tables; mul(a, 0) = 0."""
        if a == 0 or b == 0:
            return 0
        return self.exp_table[(self.log_table[a] + self.log_table[b]) % (self.order - 1)]

    def alpha_power(self, i: int) -> int:
        """alpha^i for any integer exponent i."""
        return self.exp_table[i % (self.order - 1)]

    def __repr__(self) -> str:
        return f"FieldContext(GF(2^{self.m}), modulus={self.primitive_poly:#b})"


def make_field(m: int) -> FieldContext:
    """Build the GF(2^m) context for 2 <= m <= 16 (fixed modulus table)."""
    return FieldContext(m)
