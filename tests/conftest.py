from __future__ import annotations

import functools
import random

import numpy as np
import pytest

from bchcover import FieldContext, LinearCode, RadiusResult, Word, build_bch, covering_radius, linear_code

# The brute-force oracles below share no code with the engines they check:
# the weight distribution, the split decoding index and the radius search.
_ORACLE_GUARD_N = 16
_ORACLE_GUARD_NK = 30
_ORACLE_BLOCK_BITS = 20  # min_nonzero_weight enumerates 2^20 combinations at a time


@pytest.fixture
def span_weight_calls(monkeypatch) -> list[int]:
    """Spy on ``linear_code._span_weights``: the row count of each call, in order.

    Every weight distribution, so every exact minimum distance, enumerates
    through it, so an empty list means no distance was computed.
    """
    calls: list[int] = []
    span_weights = linear_code._span_weights

    def spy(rows, n):
        calls.append(len(rows))
        return span_weights(rows, n)

    monkeypatch.setattr(linear_code, "_span_weights", spy)
    return calls


@functools.lru_cache(maxsize=None)
def bch_code(n: int, delta: int) -> LinearCode:
    """Shared, cached code instances.

    The split decoding index of a code is kept in a weak cache keyed by the
    code, so it lives as long as the cached code and is shared across tests.
    """
    code, _ = build_bch(n, delta)
    return code


@functools.lru_cache(maxsize=None)
def radius_result(n: int, delta: int) -> RadiusResult:
    """Shared, cached covering radius result of ``bch_code(n, delta)``.

    ``covering_radius`` stores nothing on the code, so tests that need R
    (or pass it to ``classify``) take it from here, and each code is
    searched once per session.
    """
    return covering_radius(bch_code(n, delta))


def random_code(rng: random.Random, n: int, k: int) -> LinearCode:
    """Random [n, k] code with independent generator rows."""
    while True:
        rows = [rng.randrange(1, 1 << n) for _ in range(k)]
        try:
            return LinearCode(rows, n)
        except ValueError:
            continue


def span_table(rows: tuple[int, ...] | list[int]) -> np.ndarray:
    """XOR of the rows selected by each mask, as a uint64 array indexed by the mask."""
    table = np.zeros(1 << len(rows), dtype=np.uint64)
    for i, row in enumerate(rows):
        table[1 << i: 2 << i] = table[: 1 << i] ^ np.uint64(row)
    return table


def codeword_table(code: LinearCode, max_k: int = 22) -> np.ndarray:
    """All 2^k codewords as a uint64 array, message-index order: the decoding oracle."""
    if code.k > max_k:
        raise ValueError(f"k = {code.k} too large for a full codeword table (max {max_k})")
    return span_table(code.generator_rows)


def covering_radius_oracle(code: LinearCode) -> int:
    """Definitional covering radius: max over ambient words of the distance
    to the nearest codeword, by double enumeration. Guarded to small codes."""
    if code.n > _ORACLE_GUARD_N or code.n + code.k > _ORACLE_GUARD_NK:
        raise ValueError(
            f"oracle needs n <= {_ORACLE_GUARD_N} and n + k <= {_ORACLE_GUARD_NK}; "
            f"got n={code.n}, k={code.k}"
        )
    cw = codeword_table(code, max_k=code.k)
    radius = 0
    chunk = max(1, 1 << max(0, 24 - code.k))
    for start in range(0, 1 << code.n, chunk):
        block = np.arange(start, min(start + chunk, 1 << code.n), dtype=np.uint64)
        dmin = np.bitwise_count(block[:, None] ^ cw[None, :]).min(axis=1)
        radius = max(radius, int(dmin.max()))
    return radius


def word_with_syndrome(code: LinearCode, syndrome: int) -> Word:
    """Some word whose syndrome is ``syndrome``, by elimination over the columns of H."""
    basis: list[tuple[int, int]] = []  # (column combination, its word), leading bits distinct, descending
    for i, col in enumerate(code.syndrome_columns):
        v, word = col, 1 << i
        for bv, bword in basis:
            if v ^ bv < v:  # bv's leading bit is set in v
                v, word = v ^ bv, word ^ bword
        if v:
            basis.append((v, word))
            basis.sort(reverse=True)
    s, bits = syndrome, 0
    for bv, bword in basis:
        if s ^ bv < s:
            s, bits = s ^ bv, bits ^ bword
    assert s == 0 and code.syndrome_int(bits) == syndrome
    return Word(bits, code.n)


def eval_poly(ctx: FieldContext, p: int, x: int) -> int:
    """The GF(2) polynomial p (an int, bit i the coefficient of x^i) at the field element x, by Horner.

    The roots oracle: a root of g is an x with eval_poly(ctx, g, x) == 0.
    """
    acc = 0
    for i in range(p.bit_length() - 1, -1, -1):
        acc = ctx.mul(acc, x) ^ ((p >> i) & 1)
    return acc


def ref_mod(a: int, b: int) -> int:
    """Carry-less remainder a mod b in GF(2)[x]; polynomials are ints, bit i the coefficient of x^i."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def min_nonzero_weight(rows: tuple[int, ...] | list[int], n: int) -> int:
    """Minimum weight over all nonzero GF(2) combinations of the rows: the brute-force d oracle.

    Enumerates all 2^k combinations in blocks of 2^_ORACLE_BLOCK_BITS, each
    block built by ``span_table``, so memory stays flat for large k.
    """
    k = len(rows)
    if k == 0:
        raise ValueError("no rows to combine")
    low = min(k, _ORACLE_BLOCK_BITS)
    block = span_table(rows[:low])
    best = n + 1
    for high in range(1 << (k - low)):
        acc = 0
        for j in range(k - low):
            if (high >> j) & 1:
                acc ^= rows[low + j]
        weights = np.bitwise_count(block ^ np.uint64(acc))
        if high == 0:
            weights = weights[1:]  # skip the zero codeword
        if weights.size:
            best = min(best, int(weights.min()))
    return best
