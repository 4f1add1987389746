from __future__ import annotations

import functools
import random

from bchcover import LinearCode, build_bch


@functools.lru_cache(maxsize=None)
def bch_code(n: int, delta: int) -> LinearCode:
    """Shared, cached code instances.

    The cache means a covering radius stored on a code persists across
    tests, and so does the code's split decoding index (kept in a weak
    cache keyed by the code, so it lives as long as the code); tests that
    need a pristine code (e.g. the R-unknown policy) must call build_bch
    directly.
    """
    code, _ = build_bch(n, delta)
    return code


def random_code(rng: random.Random, n: int, k: int) -> LinearCode:
    """Random [n, k] code with independent generator rows."""
    while True:
        rows = [rng.randrange(1, 1 << n) for _ in range(k)]
        try:
            return LinearCode(rows, n, label=f"random [{n},{k}]")
        except ValueError:
            continue
