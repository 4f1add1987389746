from __future__ import annotations

import functools
import random

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
