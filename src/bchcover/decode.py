"""List decoding and maximum-likelihood decoding by error-pattern search.

Both decoders work on the syndrome side: a codeword within distance tau of
v is v + e for an error pattern e of weight <= tau in the same coset, so it
suffices to find the low-weight patterns whose syndrome matches v's. The
generator matrix is never consulted, which keeps these routines independent
of brute-force codeword enumeration (the usual cross-check oracle).

Codes of length n <= 40 are decoded by one meet-in-the-middle engine
(``split``). The parity-check rows are row-reduced with pivots in
coordinate order; the result H' defines the same code. The coordinates
are cut into a lookup side 0..nr-1 (nr = n - n // 2) and a needle side
nr..n-1. If rho pivots lie below nr, every lookup pattern has an
H'-syndrome below 2^rho, because the other rows vanish there, and each
such value has exactly 2^(nr - rho) lookup patterns. So the lookup side
is stored as a table with one column per syndrome value. A needle part of
H'-syndrome u completes a pattern of syndrome s iff y = u ^ s < 2^rho,
that is iff u >> rho equals s >> rho, and then the patterns are column y
of the table. So the needle side is stored in groups by u >> rho (the
2^(n - k - rho) cosets of one subspace, all of one size), each ordered by
weight, with the offset of every weight class. A query reads group
s >> rho up to its weight cut as one contiguous slice, and XOR with
s mod 2^rho turns the slice's syndromes into table columns: no compare,
no search. The syndrome s itself is read from one table per byte of v.

Every entry of both sides is one uint64 that packs a mask (bits 0..n-1)
with its weight (from bit ``_WEIGHT_SHIFT`` = 58 up; n <= 40, so neither
field overflows). The two sides' masks lie on disjoint coordinates, so one
add of a needle entry to the entries of its table column yields each
joined pattern together with its weight, and a joined entry of weight
<= w is one below (w + 1) << 58. A join runs in blocks of at most
``_JOIN_BLOCK_PAIRS`` pairs; a small query passes through one.

  list_decode(tau)  joins every needle part of weight <= tau in the group
                    and keeps the joined entries below (tau + 1) << 58,
                    masking off their weights. A join past
                    ``_SPLIT_MAX_PAIRS`` pairs is refused.
  ml_decode(cap)    joins the needle parts of the group of weight <= cap
                    and <= the weight of one pattern of the coset read off
                    the pivots of H', reads the least weight off the top
                    bits of the least joined entry, and keeps the patterns
                    of that weight if it is <= cap; it never exceeds the
                    covering radius. When that slice meets many lookup
                    masks, it first keeps only the parts whose lightest
                    completion has the least weight.

The index (2^nr + 2^(n - nr) entries, plus (n - nr + 1) offsets per
group and the byte tables) is built by the first query on a code and kept
in a weak cache keyed by the code, so it lives as long as the code.

Longer codes are decoded by ``scan``, a depth-first walk. For weight w it
walks the (w-1)-coordinate prefixes in increasing index order, carrying
their syndrome down the walk, and looks the last coordinate up in a map
from each column of H to its positions, keeping the positions after the
prefix. That costs about sum_{w<tau} C(n, w) prefixes with one lookup
each; ML stops at the first weight with a match. A scan that would walk
more than ``_SCAN_MAX_PREFIXES`` prefixes, counting C(n, w - 1) for weight
w, is refused with a ValueError: list decoding before it walks anything,
ML just before the weight that would cross the limit. Scan is also the
independent reference that split is checked against. ``strategy="scan"``
or ``"split"`` forces an engine, and ``DecodeResult.strategy`` reports the
one that ran.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from math import comb
from typing import ClassVar, Iterator

import numpy as np

from .linear_code import LinearCode, Word, _columns, _doubling_table, _rref

_SPLIT_MAX_N = 40       # side tables of at most 2^20 entries
# Prefixes one scan may walk. The [63,45] deep hole, the heaviest pinned ML query,
# walks 637,393; weight 4 on [127,15] (333,375 prefixes) took 0.09 s (2-core Xeon).
_SCAN_MAX_PREFIXES = 1 << 20
# ML weighs every (needle part, lookup mask) pair only up to this many pairs, and above it
# first each part with its column's lightest mask. Timed per query on table and random codes
# with n in 20..31 (2-core Xeon, numpy 2.4; BENCH_29.json): weighing all pairs is 3-4 us faster
# below 2^10 pairs, 1.6 us from 2^10 and 0.7 us from 2^11 (in 25 of 35 queries), and the
# narrowing is 1.4-48x faster from 2^12 pairs on.
_WEIGH_ALL_MAX = 1 << 12
# (needle part, lookup mask) pairs one list query may join ([31,26] at tau 31: 2^26)
_SPLIT_MAX_PAIRS = 1 << 24
# Pairs a join weighs at a time, so that no join matrix holds more than 16 MiB of uint64
_JOIN_BLOCK_PAIRS = 1 << 21
# A split-index entry is one uint64: its mask in bits 0..n-1 (n <= _SPLIT_MAX_N) and its weight
# from this bit up. A lookup and a needle mask lie on disjoint coordinates, so the sum of their
# entries is the entry of the joined pattern, and entries order by weight first.
_WEIGHT_SHIFT = 58
_MASK = np.uint64((1 << _WEIGHT_SHIFT) - 1)
# _BELOW[w]: the entries of weight <= w are the ones below it
_BELOW = tuple((w + 1) << _WEIGHT_SHIFT for w in range(_SPLIT_MAX_N + 1))


@dataclass(frozen=True)
class DecodeResult:
    """Decoded codewords with their distances, nearest first.

    Entries are sorted by (distance, codeword text) and contain no
    duplicates. Every result is exhaustive: each pattern up to
    ``radius_used`` was considered, since a search past a guard is refused
    by name, never truncated. ``strategy`` names the engine that ran
    ("scan" or "split"); it is left out of equality, so results of the two
    engines compare by their answers.
    """

    exhausted: ClassVar[bool] = True
    entries: tuple[tuple[Word, int], ...]
    radius_used: int
    strategy: str = field(compare=False)


_REVERSED_BYTE = bytes(int(format(b, "08b")[::-1], 2) for b in range(256))


def _result(code: LinearCode, v_bits: int, masks: list[int], radius_used: int, strategy: str) -> DecodeResult:
    if len(masks) > 1:
        # Sort by (distance, codeword text) without building text: a word's bytes, each bit-reversed
        # and read in reverse order, put coordinate 0 on top, so the integers compare like the text.
        size = (code.n + 7) // 8
        masks.sort(key=lambda mask: (mask.bit_count(), int.from_bytes(
            (v_bits ^ mask).to_bytes(size, "little").translate(_REVERSED_BYTE), "big")))
    entries = []
    for mask in masks:
        # v_bits ^ mask is in range: fill the frozen Word's fields without __init__'s range check
        word = object.__new__(Word)
        fields = word.__dict__
        fields["bits"] = v_bits ^ mask
        fields["n"] = code.n
        entries.append((word, mask.bit_count()))
    return DecodeResult(tuple(entries), radius_used, strategy)


# ----------------------------------------------------------------------
# scan engine
# ----------------------------------------------------------------------

def _scan_matches(code: LinearCode, target: int, tau: int, stop_at_first_weight: bool) -> list[int]:
    cols = code.syndrome_columns
    n = code.n
    positions: dict[int, list[int]] = {}
    for i, col in enumerate(cols):
        positions.setdefault(col, []).append(i)
    matches = [0] if target == 0 else []

    def walk(depth: int, start: int, mask: int, s: int) -> None:
        # s is the prefix's syndrome XOR target: the column its last coordinate must have
        if depth:
            for i in range(start, n - depth):
                walk(depth - 1, i + 1, mask | 1 << i, s ^ cols[i])
        else:
            for p in positions.get(s, ()):
                if p >= start:
                    matches.append(mask | 1 << p)

    # weights 1..fits walk C(n, 0) + ... + C(n, fits - 1) prefixes, within the limit
    last, fits, walked = min(tau, n), 0, 0
    while fits < last and walked + comb(n, fits) <= _SCAN_MAX_PREFIXES:
        walked += comb(n, fits)
        fits += 1
    refusal = ValueError(
        f"scan of [{n},{code.k}] refused at w = {fits + 1}: it would walk more than "
        f"_SCAN_MAX_PREFIXES = {_SCAN_MAX_PREFIXES} prefixes"
    )
    if fits < last and not stop_at_first_weight:
        raise refusal
    for w in range(1, fits + 1):
        if matches and stop_at_first_weight:
            break
        walk(w - 1, 0, 0, target)
    if fits < last and not matches:
        raise refusal
    return matches


# ----------------------------------------------------------------------
# split (meet-in-the-middle) engine
# ----------------------------------------------------------------------

def _entries(masks: np.ndarray) -> np.ndarray:
    """Each uint64 mask with its weight added from bit ``_WEIGHT_SHIFT`` up, in place."""
    weight = np.bitwise_count(masks).astype(np.uint64)
    weight <<= _WEIGHT_SHIFT
    masks |= weight
    return masks


class _SplitIndex:
    """The lookup side grouped by H'-syndrome, the needle side by its H'-syndrome bits above rho.

    ``columns`` are the columns of H', and ``byte_syndromes[b][v]`` is the
    H'-syndrome of byte value v at byte b of a word. Every entry of
    ``lookup`` and ``needle`` packs a mask with its weight (see
    ``_WEIGHT_SHIFT``). Column s of ``lookup`` lists the 2^(nr - rho) lookup
    masks of H'-syndrome s, and ``lightest[s]`` is the least of their
    weights. Group g of the needle side holds the ``group_size`` needle
    parts whose H'-syndrome shifted right by rho is g, from g * group_size
    on, ordered by weight; the first ``upto[g][w]`` of them have weight
    <= w. ``needle_col`` is their H'-syndrome mod 2^rho, and
    ``needle_weight`` their weights again, as uint8 for ML's narrowing.
    """

    def __init__(self, code: LinearCode):
        self.nl = n_needle = code.n // 2
        self.nr = n_lookup = code.n - n_needle
        rows, pivots = _rref(list(code.parity_rows), code.n)
        self.rho = sum(p < n_lookup for p in pivots)
        self.low = (1 << self.rho) - 1
        self.columns = _columns(rows, code.n)
        self.n_bytes = (code.n + 7) // 8
        self.byte_syndromes = [_doubling_table(self.columns[i: i + 8], len(self.columns[i: i + 8])).tolist()
                               for i in range(0, code.n, 8)]
        lookup_synd = _doubling_table(self.columns[:n_lookup], n_lookup)
        by_synd = np.argsort(lookup_synd, kind="stable").astype(np.uint64).reshape(1 << self.rho, -1)
        self.lookup = _entries(np.ascontiguousarray(by_synd.T))  # gathers and sums run along the long axis
        del lookup_synd, by_synd  # 2^nr words each: free them before the needle side's temporaries
        self.lightest = (self.lookup.min(axis=0) >> _WEIGHT_SHIFT).astype(np.uint8)  # least entry, least weight
        # The rows of H' past rho have their unit pivot columns on the needle side, so the
        # groups are the 2^(n-k-rho) cosets of one subspace: all of the same size.
        groups = 1 << (code.n - code.k - self.rho)
        self.group_size = (1 << n_needle) // groups
        needle_cols = self.columns[n_lookup:]
        needle_col = _doubling_table([c & self.low for c in needle_cols], n_needle, np.intp)
        needle_weight = np.bitwise_count(np.arange(1 << n_needle, dtype=np.uint64))
        # class (g, w) of each part as g * (nl + 1) + w, in the narrowest unsigned type, so
        # one stable argsort (a radix sort up to 16 bits) puts the parts in group-major order
        classes = groups * (n_needle + 1)
        cls = _doubling_table([c >> self.rho for c in needle_cols], n_needle, np.min_scalar_type(classes - 1))
        cls *= n_needle + 1
        cls += needle_weight
        order = np.argsort(cls, kind="stable")
        self.needle = _entries(order.astype(np.uint64) << np.uint64(n_lookup))
        self.needle_weight = needle_weight[order]
        self.needle_col = needle_col[order]
        per_class = np.bincount(cls, minlength=classes).reshape(groups, n_needle + 1)
        self.upto = per_class.cumsum(axis=1).tolist()

    def syndrome(self, bits: int) -> int:
        """The H'-syndrome of the word ``bits``, one table read per byte."""
        s = 0
        for table, byte in zip(self.byte_syndromes, bits.to_bytes(self.n_bytes, "little")):
            s ^= table[byte]
        return s

    def _segment(self, s: int, wmax: int) -> tuple[slice, np.ndarray]:
        """The needle parts of weight <= wmax that complete H'-syndrome s, and their columns.

        A needle part of H'-syndrome u needs a lookup part of syndrome
        y = u ^ s, which exists iff y < 2^rho, that is iff u >> rho equals
        s >> rho; then it is any mask in column y. So the parts are one
        slice of group s >> rho, and y is their ``needle_col`` XOR s mod 2^rho.
        """
        g = s >> self.rho
        start = g * self.group_size
        seg = slice(start, start + self.upto[g][min(wmax, self.nl)])
        return seg, self.needle_col[seg] ^ (s & self.low)

    def _joins(self, needle: np.ndarray, cols: np.ndarray) -> Iterator[np.ndarray]:
        """Entry needle[j] plus each lookup entry in column cols[j], as (lookup row, j) matrices of
        at most ``_JOIN_BLOCK_PAIRS`` joined entries: one unless the join is large, none if empty."""
        step = _JOIN_BLOCK_PAIRS // len(self.lookup)
        if len(cols) > step:
            for start in range(0, len(cols), step):
                yield from self._joins(needle[start: start + step], cols[start: start + step])
        elif len(cols):
            joined = self.lookup.take(cols, axis=1)
            joined += needle
            yield joined

    def within(self, bits: int, tau: int) -> list[int]:
        """Every pattern of weight <= tau with the syndrome of the word ``bits``."""
        seg, cols = self._segment(self.syndrome(bits), tau)
        if (pairs := len(cols) * len(self.lookup)) > _SPLIT_MAX_PAIRS:
            raise ValueError(f"split list decoding refused at tau = {tau}: it would join {pairs} pairs, "
                             f"more than _SPLIT_MAX_PAIRS = {_SPLIT_MAX_PAIRS}")
        limit, masks = _BELOW[tau], []
        for joined in self._joins(self.needle[seg], cols):
            masks += (joined[joined < limit] & _MASK).tolist()
        return masks

    def nearest(self, bits: int, cap: int) -> list[int]:
        """The patterns of least weight w <= cap with the syndrome of ``bits``; empty if w > cap.

        Only needle parts of weight <= min(bound, cap) are joined, where
        bound is the weight of one pattern known to have H'-syndrome s:
        H' column p is the unit vector e_j at the pivot p of each row
        j >= rho, and these pivots lie on the needle side, so the pivots
        of the bits of s at or above rho clear those bits and the lightest
        mask in column s mod 2^rho clears the rest. So the default cap n
        costs no more than a tight one. When the parts have more than
        ``_WEIGH_ALL_MAX`` lookup masks in all, each part is first weighed
        with the lightest mask of its column, and only the parts that reach
        the least of these weights are joined with the whole column.
        """
        s = self.syndrome(bits)
        bound = (s >> self.rho).bit_count() + int(self.lightest[s & self.low])
        seg, cols = self._segment(s, min(bound, cap))
        needle = self.needle[seg]
        if len(cols) * len(self.lookup) > _WEIGH_ALL_MAX:
            reach = self.needle_weight[seg] + self.lightest[cols]  # uint8: twice as fast as from the entries
            j = np.flatnonzero(reach == reach.min())
            needle, cols = needle[j], cols[j]
        least, masks = cap, []
        for joined in self._joins(needle, cols):
            # the least entry holds the least weight: keep the entries below the next weight
            if (w := int(joined.min()) >> _WEIGHT_SHIFT) <= least:
                if w < least:
                    least, masks = w, []
                masks += (joined[joined < _BELOW[w]] & _MASK).tolist()
        return masks


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

def _check_length(code: LinearCode, v: Word) -> None:
    if v.n != code.n:
        raise ValueError(f"word length {v.n} does not match code length {code.n}")


def list_decode(code: LinearCode, v: Word, tau: int, strategy: str = "auto") -> DecodeResult:
    """All codewords within distance tau of v, exhaustively."""
    _check_length(code, v)
    if not 0 <= tau <= code.n:
        raise ValueError(f"need 0 <= tau <= n, got tau={tau}")
    strategy = _pick_strategy(code, strategy)
    if strategy == "scan":
        masks = _scan_matches(code, code.syndrome_int(v.bits), tau, stop_at_first_weight=False)
    else:
        masks = _split_index(code).within(v.bits, tau)
    return _result(code, v.bits, masks, tau, strategy)


def ml_decode(
    code: LinearCode,
    v: Word,
    weight_cap: int | None = None,
    strategy: str = "auto",
) -> DecodeResult:
    """All codewords at minimum distance from v (maximum likelihood).

    Finds the least weight of an error pattern in v's coset, looking no
    further than ``weight_cap``; that weight never exceeds the covering
    radius, so the default cap n always ends with a result. If every codeword is farther than
    ``weight_cap``, the result is empty with ``radius_used == weight_cap``.
    """
    _check_length(code, v)
    cap = code.n if weight_cap is None else weight_cap
    if not 0 <= cap <= code.n:
        raise ValueError(f"need 0 <= weight_cap <= n, got weight_cap={weight_cap}")
    strategy = _pick_strategy(code, strategy)
    if strategy == "scan":
        masks = _scan_matches(code, code.syndrome_int(v.bits), cap, stop_at_first_weight=True)
    else:
        masks = _split_index(code).nearest(v.bits, cap)
    return _result(code, v.bits, masks, masks[0].bit_count() if masks else cap, strategy)

