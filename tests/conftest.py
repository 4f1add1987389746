from __future__ import annotations

import functools
import random

import numpy as np

from bchcover import LinearCode, RadiusResult, build_bch, covering_radius


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
            return LinearCode(rows, n, label=f"random [{n},{k}]")
        except ValueError:
            continue


def min_nonzero_weight(rows: tuple[int, ...] | list[int], n: int, block_bits: int = 20) -> int:
    """Minimum weight over all nonzero GF(2) combinations of the rows: the brute-force d oracle.

    Enumerates all 2^k combinations in blocks of 2^block_bits, each block
    built by doubling, so memory stays flat for large k. It shares no code
    with ``weight_distribution``, which it checks.
    """
    k = len(rows)
    if k == 0:
        raise ValueError("no rows to combine")
    low = min(k, block_bits)
    block = np.zeros(1 << low, dtype=np.uint64)
    for i in range(low):
        block[1 << i: 2 << i] = block[: 1 << i] ^ np.uint64(rows[i])
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
