"""Binary linear block codes on int bitmasks.

Bit order convention, used everywhere in this package: bit i of a word is
coordinate i, which is the coefficient of x^i for cyclic codes and the
leftmost-first character in textual I/O. So the string "1101000" is the
polynomial 1 + x + x^3.

The module holds ``Word``, ``LinearCode`` (generator and parity-check
rows, ``syndrome_int``, ``codeword_int``, ``min_distance``),
``from_generator_poly`` for cyclic codes (the generator g is an int, bit i
the coefficient of x^i, like a word), and ``weight_distribution``, which
counts the smaller of C and its dual and applies MacWilliams.

A LinearCode holds its generator and parity-check rows, n, k and the
designed distance, all fixed at construction. Syndromes, codewords, the
weight distribution and the minimum distance are pure functions of them,
recomputed on each call, so codes are safe to share across workers.
Results derived from a code, such as its covering radius, are values
returned to the caller and never stored on the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

CODEWORD_BUDGET = 1 << 26  # min_distance is exact when 2^k fits it and n <= 64
_SPAN_BLOCK_BITS = 20      # _span_weights enumerates blocks of 2^20 words

Exactness = Literal["exact", "lower_bound"]


@dataclass(frozen=True)
class Word:
    """Fixed-length bit vector; bit i = coordinate i = i-th text character."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 0 or not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bits 0x{self.bits:x} out of range for length {self.n}")

    @classmethod
    def from_text(cls, text: str, n: int | None = None) -> Word:
        """Parse a 0/1 string (length gives n) or a 0x-prefixed hex value."""
        text = text.strip()
        if text.lower().startswith("0x"):
            if n is None:
                raise ValueError("hex words need an explicit length")
            return cls(int(text, 16), n)
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"not a 0/1 word: {text!r}")
        if n is not None and n != len(text):
            raise ValueError(f"word {text!r} has length {len(text)}, expected {n}")
        bits = 0
        for i, c in enumerate(text):
            if c == "1":
                bits |= 1 << i
        return cls(bits, len(text))

    def __str__(self) -> str:
        return format(self.bits, f"0{self.n}b")[::-1] if self.n else ""

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


def _rref(rows: list[int], n: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form over GF(2) with column pivoting.

    Returns (reduced rows, pivot columns). Rows must be independent.
    """
    work = list(rows)
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(work)) if (work[i] >> col) & 1), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(len(work)):
            if i != r and (work[i] >> col) & 1:
                work[i] ^= work[r]
        pivots.append(col)
        r += 1
    return work, pivots


def _columns(rows: tuple[int, ...] | list[int], n: int) -> tuple[int, ...]:
    """The n columns of the matrix with these rows: bit j of column i is bit i of rows[j]."""
    cols = []
    for i in range(n):
        v = 0
        for j, row in enumerate(rows):
            v |= ((row >> i) & 1) << j
        cols.append(v)
    return tuple(cols)


class LinearCode:
    """Binary [n, k] linear code from k independent generator rows.

    The parity-check matrix is derived from the systematic form (Gaussian
    elimination with column pivoting), with H kept in the original
    coordinate order. G @ H.T = 0 and rank(H) = n - k hold by construction.
    """

    def __init__(
        self,
        generator_rows: list[int],
        n: int,
        designed_distance: int | None = None,
    ) -> None:
        k = len(generator_rows)
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        for row in generator_rows:
            if not 0 <= row < (1 << n):
                raise ValueError(f"generator row 0x{row:x} out of range for n={n}")
        reduced, pivots = _rref(generator_rows, n)
        if len(pivots) != k:
            raise ValueError(f"generator rows are dependent: rank {len(pivots)} < k={k}")
        self.n = n
        self.k = k
        self.generator_rows = tuple(generator_rows)
        self.designed_distance = designed_distance

        nonpivots = sorted(set(range(n)).difference(pivots))
        h_rows = []
        for c in nonpivots:
            h = 1 << c
            for r, pcol in enumerate(pivots):
                if (reduced[r] >> c) & 1:
                    h |= 1 << pcol
            h_rows.append(h)
        self.parity_rows = tuple(h_rows)
        self.syndrome_columns = _columns(h_rows, n)

    def syndrome_int(self, bits: int) -> int:
        """s = H v^T for the word with these bits; zero iff it is a codeword."""
        return _xor_rows(self.syndrome_columns, bits)

    def codeword_int(self, message: int) -> int:
        return _xor_rows(self.generator_rows, message)

    def min_distance(self) -> tuple[int, Exactness]:
        """Exact minimum weight when n <= 64 and 2^k fits ``CODEWORD_BUDGET``, else a lower bound.

        The exact value is the least i >= 1 with A_i > 0 in
        ``weight_distribution`` (n + 1 for the empty code), which
        enumerates 2^min(k, n-k) words as uint64; the budget, read at call
        time, still gates on 2^k. Each call computes it afresh. The lower
        bound is the stored designed distance (1 if none is known).
        """
        if self.n <= 64 and (1 << self.k) <= CODEWORD_BUDGET:
            weights = weight_distribution(self)
            return next((i for i in range(1, self.n + 1) if weights[i]), self.n + 1), "exact"
        return self.designed_distance or 1, "lower_bound"

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}])"


def from_generator_poly(
    g: int,
    n: int,
    designed_distance: int | None = None,
) -> LinearCode:
    """Cyclic [n, n - deg g] code with generator rows g(x) x^i.

    g is a GF(2) polynomial as an int, bit i the coefficient of x^i.
    Rejects generators that do not divide x^n + 1 (such rows would not span
    a cyclic code).
    """
    if g <= 0:
        raise ValueError(f"generator polynomial must be a positive bitmask, got {g}")
    deg = g.bit_length() - 1
    r = (1 << n) | 1  # x^n + 1, reduced mod g by clearing its top bit while deg r >= deg g
    while r.bit_length() > deg:
        r ^= g << (r.bit_length() - 1 - deg)
    if r:
        raise ValueError(f"g = {g:#b} does not divide x^{n} + 1")
    k = n - deg
    if k <= 0:
        raise ValueError(f"degenerate code: deg g = {deg} leaves k = {k}")
    rows = [g << i for i in range(k)]
    return LinearCode(rows, n, designed_distance=designed_distance)


# ----------------------------------------------------------------------
# weight distributions (numpy)
# ----------------------------------------------------------------------

def _xor_rows(rows: tuple[int, ...] | list[int], bits: int) -> int:
    """XOR of rows[i] over the set bits i of ``bits``; one entry of ``_doubling_table``."""
    acc = 0
    while bits:
        low = bits & -bits
        acc ^= rows[low.bit_length() - 1]
        bits ^= low
    return acc


def _doubling_table(rows: tuple[int, ...] | list[int], k: int, dtype: type | np.dtype = np.uint64) -> np.ndarray:
    """XOR of the rows selected by each k-bit mask, indexed by the mask; ``dtype`` must hold the rows."""
    cw = np.zeros(1 << k, dtype=dtype)
    for i in range(k):
        cw[1 << i: 2 << i] = cw[: 1 << i] ^ cw.dtype.type(rows[i])
    return cw


def _span_weights(rows: tuple[int, ...], n: int) -> list[int]:
    """Number of words of each weight 0..n in the GF(2) span of independent rows.

    Enumerates the span in blocks of 2^_SPAN_BLOCK_BITS via the doubling
    construction, so memory stays flat for many rows.
    """
    low = min(len(rows), _SPAN_BLOCK_BITS)
    block = _doubling_table(rows[:low], low)
    counts = np.zeros(n + 1, dtype=np.int64)
    for high in range(1 << (len(rows) - low)):
        weights = np.bitwise_count(block ^ np.uint64(_xor_rows(rows[low:], high)))
        counts += np.bincount(weights, minlength=n + 1)
    return [int(c) for c in counts]


def _krawtchouk_column(n: int, j: int) -> list[int]:
    """K_0(j)..K_n(j), where K_i(j) = sum_s (-1)^s C(j, s) C(n - j, i - s).

    These are the coefficients of (1 - z)^j (1 + z)^(n - j); comparing
    coefficients in (1 - z^2) f' = ((n - 2j) - n z) f gives the recurrence
    (i + 1) K_{i+1} = (n - 2j) K_i - (n - i + 1) K_{i-1}, whose divisions
    are exact.
    """
    column = [1, n - 2 * j]
    for i in range(1, n):
        column.append(((n - 2 * j) * column[i] - (n - i + 1) * column[i - 1]) // (i + 1))
    return column[: n + 1]


def weight_distribution(code: LinearCode) -> tuple[int, ...]:
    """A_0..A_n, the number of codewords of each weight, exactly.

    Enumerates the smaller of C (2^k words, over the generator rows) and
    its dual (2^(n-k) words, over the parity-check rows). From the dual's
    distribution B_j the MacWilliams identity gives
    A_i = 2^-(n-k) sum_j B_j K_i(j) in integer arithmetic. So the work is
    2^min(k, n-k) words. Raises AssertionError naming the check if a
    numerator is not a multiple of 2^(n-k), A_0 != 1 or sum A_i != 2^k.
    Raises ValueError for n > 64: the words are enumerated as uint64.
    """
    n, k = code.n, code.k
    if n > 64:
        raise ValueError(f"weight distribution needs n <= 64 (64-bit words), got n = {n}")
    if k <= n - k:
        weights = _span_weights(code.generator_rows, n)
    else:
        numerators = [0] * (n + 1)
        for j, b in enumerate(_span_weights(code.parity_rows, n)):
            if b:
                for i, kij in enumerate(_krawtchouk_column(n, j)):
                    numerators[i] += b * kij
        weights = []
        for i, numerator in enumerate(numerators):
            a, rest = divmod(numerator, 1 << (n - k))
            if rest:
                raise AssertionError(f"MacWilliams numerator of A_{i} is not a multiple of 2^{n - k}")
            weights.append(a)
    if weights[0] != 1:
        raise AssertionError(f"weight distribution has A_0 = {weights[0]}, expected 1")
    if sum(weights) != 1 << k:
        raise AssertionError(f"weight distribution sums to {sum(weights)}, expected 2^{k}")
    return tuple(weights)
