"""List decoding and maximum-likelihood decoding by error-pattern search.

Both decoders work on the syndrome side: a codeword within distance tau of
v is v + e for an error pattern e of weight <= tau in the same coset, so it
suffices to find the low-weight patterns whose syndrome matches v's. The
generator matrix is never consulted, which keeps these routines independent
of brute-force codeword enumeration (the usual cross-check oracle).

Codes of length n <= 40 are decoded by one meet-in-the-middle engine
(``split``). The coordinates are cut into a left half of nl = n // 2 and a
right half of nr = n - nl, and the syndrome of every pattern on each half
is stored: the left ordered by weight, the right by (weight, syndrome), so
every weight class is one contiguous slice and every right class is
sorted. A pattern of weight a + b with syndrome s is a left part of weight
a and a right part of weight b whose syndromes XOR to s, so joining a left
slice (XORed with s) against right class b with ``searchsorted`` finds
exactly those patterns:

  list_decode(tau)  for each b <= tau, joins the left patterns of weight
                    <= tau - b against class b; every hit is within tau.
  ml_decode(cap)    for w = 0, 1, ..., cap, joins the classes (a, w - a)
                    and stops at the first w with a hit, which never
                    exceeds the covering radius.

The index (2^nl + 2^nr entries) is built by the first query on a code and
kept in a weak cache keyed by the code, so it lives as long as the code.

Longer codes are decoded by ``scan``: patterns of weight 0..tau in
revolving-door order, carrying the syndrome along with two column XORs per
step, at a cost of sum_w C(n, w). Scan is also the independent reference
that split is checked against. ``strategy="scan"`` or ``"split"`` forces
an engine, and ``DecodeResult.strategy`` reports the one that ran.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import accumulate
from math import comb
from typing import Iterator

import numpy as np

from .linear_code import LinearCode, Word, _doubling_table

_SPLIT_MAX_N = 40       # half-tables of at most 2^20 entries


@dataclass(frozen=True)
class DecodeResult:
    """Decoded codewords with their distances, nearest first.

    Entries are sorted by (distance, codeword text) and contain no
    duplicates; ``exhausted`` is True iff every pattern up to
    ``radius_used`` was considered. ``strategy`` names the engine that
    ran ("scan" or "split"); it is left out of equality, so results of
    the two engines compare by their answers.
    """

    entries: tuple[tuple[Word, int], ...]
    radius_used: int
    exhausted: bool
    strategy: str = field(compare=False)

    @property
    def codewords(self) -> tuple[Word, ...]:
        return tuple(w for w, _ in self.entries)

    @property
    def distances(self) -> tuple[int, ...]:
        return tuple(dist for _, dist in self.entries)


def _result(code: LinearCode, v_bits: int, masks: list[int], radius_used: int, strategy: str) -> DecodeResult:
    entries = []
    for mask in masks:
        cw = Word(v_bits ^ mask, code.n)
        entries.append((cw, mask.bit_count()))
    entries.sort(key=lambda e: (e[1], str(e[0])))
    return DecodeResult(entries=tuple(entries), radius_used=radius_used, exhausted=True, strategy=strategy)


# ----------------------------------------------------------------------
# scan engine
# ----------------------------------------------------------------------

def revolving_door(n: int, w: int) -> Iterator[int]:
    """Weight-w masks over n bits in minimal-change order.

    Consecutive masks differ by exactly one removed and one added bit, so a
    syndrome can be carried along with two column XORs per step. Starts at
    {0..w-1}, ends at {0..w-2, n-1}.
    """
    if w < 0 or w > n:
        return
    yield from _revolving(n, w, False)


def _revolving(n: int, w: int, rev: bool) -> Iterator[int]:
    if w == 0:
        yield 0
        return
    if w == n:
        yield (1 << n) - 1
        return
    top = 1 << (n - 1)
    if not rev:
        yield from _revolving(n - 1, w, False)
        for m in _revolving(n - 1, w - 1, True):
            yield m | top
    else:
        for m in _revolving(n - 1, w - 1, False):
            yield m | top
        yield from _revolving(n - 1, w, True)


def _scan_matches(code: LinearCode, target: int, tau: int, stop_at_first_weight: bool) -> list[int]:
    cols = code.syndrome_columns
    matches: list[int] = []
    for w in range(min(tau, code.n) + 1):
        found = False
        prev = None
        s = 0
        for mask in revolving_door(code.n, w):
            if prev is None:
                s = code.syndrome_int(mask)
            else:
                diff = mask ^ prev
                low = diff & -diff
                s ^= cols[low.bit_length() - 1] ^ cols[(diff ^ low).bit_length() - 1]
            prev = mask
            if s == target:
                matches.append(mask)
                found = True
        if found and stop_at_first_weight:
            break
    return matches


# ----------------------------------------------------------------------
# split (meet-in-the-middle) engine
# ----------------------------------------------------------------------

_EMPTY = np.empty(0, dtype=np.uint64)


def _class_starts(bits: int) -> list[int]:
    """Offsets of the weight classes of 2^bits masks ordered by weight; class a is [s[a], s[a+1])."""
    return list(accumulate((comb(bits, w) for w in range(bits + 1)), initial=0))


class _SplitIndex:
    """Syndromes of all patterns on each half of the coordinates, one slice per weight.

    The left half (coordinates below ``nl``) is ordered by weight; the
    right half by (weight, syndrome), so each right weight class is a
    sorted run. A query XORs the target into a slice of left syndromes
    and joins it against one right class.
    """

    def __init__(self, code: LinearCode):
        self.nl = n_left = code.n // 2
        self.nr = n_right = code.n - n_left
        cols = code.syndrome_columns
        left_synd = _doubling_table(cols[:n_left], n_left)
        right_synd = _doubling_table(cols[n_left:], n_right)
        left_weight = np.bitwise_count(np.arange(1 << n_left, dtype=np.uint64))
        right_weight = np.bitwise_count(np.arange(1 << n_right, dtype=np.uint64))
        self.left_by_weight = np.argsort(left_weight, kind="stable").astype(np.uint64)
        self.left_synd = left_synd[self.left_by_weight]
        self.left_start = _class_starts(n_left)
        self.right_masks = np.lexsort((right_synd, right_weight)).astype(np.uint64)
        self.right_synd = right_synd[self.right_masks]
        self.right_start = _class_starts(n_right)

    def _join(self, need: np.ndarray, left_masks: np.ndarray, b: int) -> np.ndarray:
        """Patterns l | r << nl for left masks l (sought syndromes ``need``) and right masks r of weight b."""
        r0 = self.right_start[b]
        run = self.right_synd[r0: self.right_start[b + 1]]
        lo = np.searchsorted(run, need)
        hit = np.flatnonzero(run.take(lo, mode="clip") == need)
        if hit.size == 0:
            return _EMPTY
        lo = lo[hit]
        lens = np.searchsorted(run, need[hit], side="right") - lo
        first = np.cumsum(lens) - lens
        pos = np.repeat(r0 + lo - first, lens) + np.arange(int(first[-1] + lens[-1]))
        return np.repeat(left_masks[hit], lens) | (self.right_masks[pos] << np.uint64(self.nl))

    def within(self, target: int, tau: int) -> np.ndarray:
        """Every pattern of weight <= tau with syndrome ``target``."""
        start = self.left_start
        need = self.left_synd[: start[min(tau, self.nl) + 1]] ^ np.uint64(target)
        found = []
        for b in range(min(tau, self.nr) + 1):
            end = start[min(tau - b, self.nl) + 1]
            found.append(self._join(need[:end], self.left_by_weight[:end], b))
        return np.concatenate(found)

    def nearest(self, target: int, cap: int) -> np.ndarray:
        """The patterns of least weight w <= cap with syndrome ``target``; empty if w > cap."""
        start = self.left_start
        need = self.left_synd[: start[min(cap, self.nl) + 1]] ^ np.uint64(target)
        for w in range(cap + 1):
            found = [
                self._join(need[start[a]: start[a + 1]], self.left_by_weight[start[a]: start[a + 1]], w - a)
                for a in range(max(0, w - self.nr), min(w, self.nl) + 1)
            ]
            masks = np.concatenate(found)
            if masks.size:
                return masks
        return _EMPTY


_split_indexes: weakref.WeakKeyDictionary[LinearCode, _SplitIndex] = weakref.WeakKeyDictionary()


def _split_index(code: LinearCode) -> _SplitIndex:
    index = _split_indexes.get(code)
    if index is None:
        index = _split_indexes[code] = _SplitIndex(code)
    return index


def _pick_strategy(code: LinearCode, strategy: str) -> str:
    if strategy not in ("auto", "scan", "split"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "auto":
        return "split" if code.n <= _SPLIT_MAX_N else "scan"
    if strategy == "split" and code.n > _SPLIT_MAX_N:
        raise ValueError(f"split index too large for n = {code.n} (max {_SPLIT_MAX_N})")
    return strategy


# ----------------------------------------------------------------------
# public decoders
# ----------------------------------------------------------------------

def list_decode(code: LinearCode, v: Word, tau: int, strategy: str = "auto") -> DecodeResult:
    """All codewords within distance tau of v, exhaustively."""
    target = code.syndrome(v).bits
    if not 0 <= tau <= code.n:
        raise ValueError(f"need 0 <= tau <= n, got tau={tau}")
    strategy = _pick_strategy(code, strategy)
    if strategy == "scan":
        masks = _scan_matches(code, target, tau, stop_at_first_weight=False)
    else:
        masks = _split_index(code).within(target, tau).tolist()
    return _result(code, v.bits, masks, tau, strategy)


def ml_decode(
    code: LinearCode,
    v: Word,
    weight_cap: int | None = None,
    strategy: str = "auto",
) -> DecodeResult:
    """All codewords at minimum distance from v (maximum likelihood).

    Searches weights 0, 1, ... and stops at the first weight with a hit;
    that weight never exceeds the covering radius, so the default cap n
    always ends with a result. If every codeword is farther than
    ``weight_cap``, the result is empty with ``radius_used == weight_cap``.
    """
    target = code.syndrome(v).bits
    cap = code.n if weight_cap is None else weight_cap
    if not 0 <= cap <= code.n:
        raise ValueError(f"need 0 <= weight_cap <= n, got weight_cap={weight_cap}")
    strategy = _pick_strategy(code, strategy)
    if strategy == "scan":
        masks = _scan_matches(code, target, cap, stop_at_first_weight=True)
    else:
        masks = _split_index(code).nearest(target, cap).tolist()
    return _result(code, v.bits, masks, masks[0].bit_count() if masks else cap, strategy)


def bounded_decode(code: LinearCode, v: Word, strategy: str = "auto") -> DecodeResult:
    """Unique decoding within the packing radius t = floor((d-1)/2).

    Returns zero or one entries; needs the exact minimum distance.
    """
    d, exactness = code.min_distance()
    if exactness != "exact":
        raise ValueError("bounded decoding needs the exact minimum distance")
    return list_decode(code, v, (d - 1) // 2, strategy=strategy)
