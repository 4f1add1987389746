"""Exact covering radius by weight-stratified search over syndrome space.

The coset leader weight of a syndrome s is the smallest number of
parity-check columns that XOR to s. The engine grows the set of reached
syndromes one weight stratum at a time, as one bitset over the 2^(n-k)
syndromes stored in uint64 words (syndrome s is bit s % 64 of word
s // 64): ``reached_w`` holds every syndrome of leader weight <= w.
``LinearCode`` puts the n-k unit columns 1 << j at its non-pivot
coordinates; call the other columns general. For any set J of columns, the
seeds, let P_r hold the XOR of each r of them. Then

    reached_{w+1} = reached_w | P_{w+1} | OR over columns c outside J of translate(reached_w, c),

where translate(x, c)[s] = x[s ^ c]. Every term holds weights <= w+1 only.
Conversely, take s of leader weight w+1 and a pattern of w+1 columns that
XOR to s. If one of them, c, lies outside J, the other w XOR to s ^ c, so
s ^ c is in reached_w and s in its translate by c; otherwise the pattern
lies in J and s is in P_{w+1}. So the columns of J are never translated:
each stratum sets its C(|J|, w+1) seed syndromes with one scatter. J holds
the columns, unit or general, whose translates cost most, j_max =
max(n-k-8, 0) of them, which keeps the seed table of 2^|J| uint32 syndromes
at 1/8 of the bitset (``_column_walk``). [31,6] seeds its 6 general columns
and the unit columns on syndrome bits 0-10, so each of its 14 translates
only permutes whole words; [63,39] seeds 15 general columns and one unit.

In a translate, the high bits ``c >> 6`` permute whole words: viewing the
words as a ``(2,) * (n-k-6)`` array, they flip one axis each. The low bits
``c & 63`` permute bits inside every word, moving bit p to p ^ (c & 63).
Bits 3-5 of p name a byte of the word, so a byteswap of the words or of
their 32-bit halves flips p's bits 3-5 or 3-4 at about the cost of one pass;
every other bit of p is flipped by a delta swap with a fixed mask (five
passes). A permutation is applied in chunks of ``_CHUNK`` words that stay
in L2 across those passes. Consecutive columns differ by the permutation
from one's low bits to the next's, and the columns are walked in the
Gray-code order of their low bits with bits 0-2 ranked on top, so the
mask-only bits 0-2 change least often. For n - k < 6 the whole space is the
low 2^(n-k) bits of one word, which stay closed under XOR by any column. The
covering radius is the last non-empty stratum.

A stratum is computed on one of three paths, chosen from what is known
before it. The dense path makes a few passes over all 2^(n-k) bits per
translated column, which is what makes the big searches ([31,6]: 2^25
syndromes, [63,36]: 2^27) run in seconds once ``reached`` has spread. While
few of its words are nonzero, the sparse path gathers just those words,
permutes their bits, and ORs each column's translate into the accumulator
at word i ^ (c >> 6): a sparse stratum costs one bool scan, one copy and
one popcount of the bitset, plus the walk over its nonzero words. The cut
weighs the walk's cost per word on each path, with the dense cost split
between its threads (``_sparse_words``). Near the end of the search, when
at most half as many syndromes are unreached as the last stratum holds, the
pull path works the other way round: each unreached syndrome is tested
against the columns' translates of ``reached`` and leaves at its first hit,
so the last strata cost in proportion to what is left (``covering_radius``
tests both cuts, and derives this one). All three paths give the same
translates, into one accumulator, which the sparse and dense paths start as
a copy of ``reached``. The pull returns the next stratum alone, so
``reached`` is ORed in after it, and the seeds after every path, because
the pull clears every unreached syndrome that no translate hits, seeds
included. On dense strata the workers split the words, not the columns: the
accumulator is cut into blocks of ``_CHUNK`` words (one block if it holds
fewer), each of min(jobs, blocks) threads owns a contiguous run of them,
and it walks every column over each of its blocks, reading the untouched
``reached`` (``_dense_blocks``). With one block there is no pool. Sparse
and pull strata run on the calling thread. A word of the accumulator is the
OR of the same permuted words of ``reached`` whatever the blocks and
threads, so every stratum, and hence the output, is bit-identical for any
worker count.

A checkpoint file, if requested, is rewritten after each stratum that
leaves syndromes unreached, through ``<path>.tmp`` and an atomic rename. It
is one flat file (format version 4): the header line ``bchcover-radius 4
<code key> <weight> <count_0> ... <count_weight>``, the words of ``reached``
as little-endian uint64 (1/8 byte per syndrome), and the SHA-256 of every
byte before it. So multi-hour runs can resume, and corrupt, truncated,
foreign or outdated files (the ``.npz`` archives of versions 1-3) are
refused. A completed search keeps its file of stratum R-1, and resuming
from it recomputes only the last stratum.

The public names are ``covering_radius``, which returns a ``RadiusResult``
and reports each stratum as a ``StratumEvent`` to ``on_event``, and
``WeightCapExceeded``. The definitional oracle that checks the search lives
with the tests, apart from the engine.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

from .linear_code import LinearCode, Word

_CHECKPOINT_MAGIC = "bchcover-radius"
_CHECKPOINT_VERSION = 4  # 1-3 were .npz archives: 1 a uint8 first-seen table, 2 two bitsets, 3 reached alone
# Bytes read for the header line. A written header has at most n - k + 1 <= 33
# counts below 2^32, about 450 bytes; the bound keeps a foreign file without a
# newline from being read whole.
_CHECKPOINT_HEADER_MAX = 1024
_SWAP_MASKS = tuple(
    np.uint64(m)
    for m in (
        0x5555555555555555,
        0x3333333333333333,
        0x0F0F0F0F0F0F0F0F,
        0x00FF00FF00FF00FF,
        0x0000FFFF0000FFFF,
        0x00000000FFFFFFFF,
    )
)
# Words per chunk: of a _swap_bits pass, of a dense block (a power of two) and
# of the pull's pending set. A chunk (512 KiB) and its scratch buffer stay in a
# 2 MiB L2 across the five passes of a mask swap, and a dense block across all
# of its columns. Smaller chunks pay numpy's per-call overhead more often,
# larger ones miss L2. Timed on a 2-core Xeon with numpy 2.4: one mask swap
# over 2^19 words took 1.9 ms unchunked, 1.45 ms in chunks of 2^13 or 2^17
# words and 1.1 ms in chunks of 2^14-2^16. The dense strata of one search,
# summed (medians of 8 searches), at blocks of 2^14, 2^15, 2^16 and 2^17
# words: [31,6] at jobs 1 168, 155, 152 and 157 ms; [63,39] at jobs 2 93, 75,
# 70 and 67 ms; [63,36] at jobs 2 (medians of 2) 605, 478, 438 and 439 ms. The
# pull of [31,6] w=11 took 3.0-3.1 ms in chunks and 3.8-4.4 ms as one pending
# set (faster in 42 of 42 interleaved calls).
_CHUNK = 1 << 16


@dataclass(frozen=True)
class RadiusResult:
    """Outcome of a completed covering radius search.

    ``coset_count_by_weight[w]`` is the number of syndromes whose coset
    leader weight is exactly w; the counts sum to 2^(n-k) and the last
    entry is at index R.
    """

    covering_radius: int
    coset_count_by_weight: tuple[int, ...]
    deepest_syndrome: Word


class StratumEvent(NamedTuple):
    """One stratum computed by ``covering_radius``, as passed to ``on_event``.

    ``count`` syndromes have leader weight exactly ``weight``; ``cumulative``
    is the number of syndromes reached so far. ``path`` is "sparse", "dense"
    or "pull" (see the module docstring). ``seconds`` covers the stratum's
    search, ``checkpoint_seconds`` and ``checkpoint_bytes`` the checkpoint
    written after it (0 and 0 without a checkpoint, and after the last
    stratum, which is not written).
    """

    weight: int
    count: int
    cumulative: int
    path: str
    seconds: float
    checkpoint_seconds: float
    checkpoint_bytes: int


class WeightCapExceeded(RuntimeError):
    """Raised when the search hits the weight cap before covering every coset."""

    def __init__(self, weight_cap: int, counts: tuple[int, ...], total: int):
        self.weight_cap = weight_cap
        self.counts_so_far = counts
        self.syndrome_total = total
        super().__init__(
            f"R > {weight_cap}: only {sum(counts)} of {total} syndromes "
            f"covered at weight {weight_cap}"
        )


# ----------------------------------------------------------------------
# bitset engine
# ----------------------------------------------------------------------

def _gray_rank(g: int) -> int:
    """Position of g in the reflected Gray code sequence."""
    rank = 0
    while g:
        rank ^= g
        g >>= 1
    return rank


def _moves(d: int) -> tuple[type | None, tuple[int, ...]]:
    """(view to byteswap or None, mask indices): how ``_swap_bits`` moves bit p to p ^ d.

    Bits 3-5 of p pick its byte in the word. Reversing the 8 bytes of each
    word maps p -> p ^ 56 and reversing the 4 bytes of each 32-bit half
    maps p -> p ^ 24, in either byte order. At 2^19 words these byteswaps
    took 0.3-0.5 and 0.5-0.7 ms against 1.1 ms for a chunked mask swap; a
    uint16 byteswap (p ^ 8) took 1.8 ms, so bit 3 alone stays a mask swap.
    The byteswap leaving the fewest of bits 3-5 to mask swaps is taken, none
    on a tie, so bits 3-5 cost at most one byteswap and one mask swap.
    """
    byteswaps = ((0, None), (56, np.uint64), (24, np.uint32))  # (bits of p flipped, view swapped)
    flipped, view = min(byteswaps, key=lambda b: ((d ^ b[0]) & 56).bit_count())
    rest = d ^ flipped
    return view, tuple(j for j in range(6) if rest >> j & 1)


_MOVES = tuple(_moves(d) for d in range(64))


def _swap_bits(x: np.ndarray, d: int, tmp: np.ndarray) -> None:
    """x <- x with bit p of every word moved to bit p ^ d (0 <= d < 64), in place.

    ``tmp`` must hold min(len(x), _CHUNK) words. Every move of d is applied
    to one chunk of x before the next chunk, so the chunk stays in cache
    across its passes.
    """
    view, masks = _MOVES[d]
    for start in range(0, len(x), _CHUNK):
        part = x[start: start + _CHUNK]
        if view is not None:
            part.view(view).byteswap(inplace=True)
        t = tmp[: len(part)]
        for j in masks:
            mask, shift = _SWAP_MASKS[j], np.uint64(1 << j)
            np.right_shift(part, shift, out=t)
            t &= mask
            part &= mask
            part <<= shift
            part |= t


# A column costs its strided OR plus the moves from the previous column's low
# bits, in half passes over the words. Timed per call at 2^18 and 2^19 words
# (2-core Xeon, numpy 2.4): an OR whose lowest flipped word-index bit is 0, 1,
# 2 or 3 runs over reversed blocks of 1 to 8 words and costs about 5, 7, 4 or 2
# passes, otherwise 1 pass; a chunked mask swap costs 2.2-2.3 passes, a uint64
# byteswap 0.9 and a uint32 byteswap 1.4.
_OR_COST = (10, 14, 8, 4)
_BYTESWAP_COST = {None: 0, np.uint64: 2, np.uint32: 3}


def _step_cost(low: int, c: int) -> tuple[int, int]:
    """(strided OR, in-word moves): the cost per word of translating column c after a column with low bits ``low``."""
    view, masks = _MOVES[(c ^ low) & 63]
    high = c >> 6
    lowest = (high & -high).bit_length() - 1  # -1 if the OR flips no words
    return _OR_COST[lowest] if 0 <= lowest < 4 else 2, _BYTESWAP_COST[view] + 5 * len(masks)


def _column_walk(code: LinearCode) -> tuple[list[tuple[int, int]], list[int]]:
    """(steps, seeds): the translated columns as (low bits, high bits) in walk order, and J.

    The walk sorts the columns by the Gray rank of their low bits, ranked
    with bits 0-2 on top: only mask swaps move those, and this order changes
    them least often. J (``seeds``) takes the costliest columns, unit or
    general, out of the walk, j_max = max(n-k-8, 0) of them; the rest are
    translated.
    """
    cols = sorted(code.syndrome_columns, key=lambda c: (_gray_rank((c & 7) << 3 | (c >> 3) & 7), c))
    nk = code.n - code.k

    # J: columns leave the walk one at a time, each time the one whose removal
    # saves the most: its own step, and the next column's step from it rather
    # than from its predecessor. j_max = n-k-8 bounds the seed table at
    # 2^(n-k-8) uint32 syndromes, 1/8 of the 2^(n-k-3)-byte bitset
    # ``reached``. On the perfbench radius-deep workload ([63,39] at jobs 2,
    # capped at 5 and resumed; 2-core Xeon) peak_rss_mb read 46.9 without
    # seeds, 47.1 with j_max = n-k-8 (16 seeds, 256 KiB), 48.5-48.6 with n-k-6
    # (1 MiB) and 53.9-54.3 with n-k-4 (4 MiB, +15%), while wall_s stayed
    # within 0.18-0.20 s for all three.
    def cost(low: int, c: int) -> int:
        return sum(_step_cost(low, c))

    def saving(i: int) -> int:
        prev = cols[i - 1] if i else 0
        saved = cost(prev, cols[i])
        if i + 1 < len(cols):
            saved += cost(cols[i], cols[i + 1]) - cost(prev, cols[i + 1])
        return saved

    savings, seeds = [saving(i) for i in range(len(cols))], []
    for _ in range(max(nk - 8, 0)):
        i = savings.index(max(savings))
        seeds.append(cols.pop(i))
        del savings[i]
        for j in range(max(i - 1, 0), min(i + 1, len(cols))):  # only the two neighbours' savings change
            savings[j] = saving(j)
    return [(c & 63, c >> 6) for c in cols], seeds


def _seed_syndromes(cols: list[int]) -> list[np.ndarray]:
    """The XOR of each subset of the seed columns J, as uint32, in one array per subset size.

    Entry r holds the C(|J|, r) syndromes of the r-subsets, built one column
    at a time: an r-subset of the first i+1 columns is an r-subset of the
    first i, or an (r-1)-subset of them plus column i.
    """
    none = np.zeros(0, dtype=np.uint32)
    by_weight = [np.zeros(1, dtype=np.uint32)]
    for c in cols:
        by_weight = [
            np.concatenate((without, lighter ^ np.uint32(c)))
            for without, lighter in zip(by_weight + [none], [none] + by_weight)
        ]
    return by_weight


def _set_bits(bits: np.ndarray, syndromes: np.ndarray) -> None:
    """Set the bits of these syndromes in the bitset, in one scatter (repeats allowed)."""
    words = (syndromes >> 6).astype(np.intp)
    np.bitwise_or.at(bits, words, np.left_shift(np.uint64(1), (syndromes & 63).astype(np.uint64)))


def _dense_blocks(steps: list[tuple[int, int]], reached: np.ndarray, acc: np.ndarray, block: int, run: range,
                  tmp: np.ndarray) -> None:
    """acc = reached | OR over walked columns c of translate(reached, c), on the blocks of ``block`` words in ``run``.

    Block b of the translate by c is block b ^ (high >> log2 block) of
    ``reached``, its words flipped by the other bits of high = c >> 6 and
    their bits permuted by c & 63. A block of acc is kept permuted by the
    current column's low bits instead, so ``reached`` is read as it is and
    the next column costs one permutation of the block. The block starts
    as the same block of ``reached``, which the first column's moves put
    in its frame, and is permuted back after the last. In the ``(1,) +
    (2,) * log2 block`` view of a block, axis 1 + a holds bit log2 block -
    1 - a of the word index; the leading axis keeps the view an array for
    1-word blocks.
    """
    axes = block.bit_length() - 1
    shape = (1,) + (2,) * axes
    src, dst = reached.reshape((-1,) + shape), acc.reshape((-1,) + shape)
    moves = [
        (d, high >> axes, (slice(None),) + tuple(
            slice(None, None, -1) if high >> (axes - 1 - a) & 1 else slice(None) for a in range(axes)
        ))
        for d, high in steps
    ]
    for b in run:
        out, view = acc[b * block: (b + 1) * block], dst[b]
        out[:] = reached[b * block: (b + 1) * block]
        low = 0
        for d, high_block, flips in moves:
            _swap_bits(out, d ^ low, tmp)
            low = d
            np.bitwise_or(view, src[b ^ high_block][flips], out=view)
        _swap_bits(out, low, tmp)


def _translate_or_sparse(steps: list[tuple[int, int]], bits: np.ndarray, nz: np.ndarray, acc: np.ndarray,
                         tmp: np.ndarray) -> None:
    """acc = bits | OR over walked columns c of translate(bits, c), touching only ``nz``, the nonzero words of bits.

    Only those words are swapped, and word i of ``bits`` lands in word
    i ^ (c >> 6) of the accumulator. For one column these targets are
    distinct, so a plain gather, OR and scatter is exact.
    """
    np.copyto(acc, bits)
    vals = bits[nz]
    target = np.empty_like(nz)
    gathered = np.empty_like(vals)
    low = 0
    for d, high in steps:
        _swap_bits(vals, d ^ low, tmp)
        low = d
        np.bitwise_xor(nz, high, out=target)
        np.take(acc, target, out=gathered, mode="clip")
        gathered |= vals
        acc[target] = gathered


def _pull(steps: list[tuple[int, int]], reached: np.ndarray, acc: np.ndarray, tmp: np.ndarray) -> None:
    """acc = the next stratum, found by testing the unreached syndromes.

    acc starts as ~reached and is taken in chunks of ``_CHUNK`` words, so no
    buffer grows with 2^(n-k) and a chunk's pending set stays in L2. The
    words of a chunk with pending (unreached) bits try the walk-ordered
    columns c: translate(reached, c) at word i is reached[i ^ (c >> 6)]
    with its bits permuted by c & 63. An unreached syndrome hits it only if
    it lies in the next stratum. The pending bits are kept permuted by the
    current column's low bits instead, so a column costs one permutation of
    them and one gather. Hits leave the pending set, and words with no
    pending bits are dropped. Bits still pending after the last column are
    permuted back and cleared from acc.
    """
    np.invert(reached, out=acc)
    for start in range(0, len(acc), _CHUNK):
        part = acc[start: start + _CHUNK]
        idx = np.flatnonzero(part != 0)  # 3-4x faster on a bool mask than on the uint64 words
        pend = part[idx]
        idx += start
        low = 0
        for d, high in steps:
            if not len(idx):
                break
            _swap_bits(pend, d ^ low, tmp)
            low = d
            hit = np.take(reached, idx ^ high)
            hit &= pend
            pend ^= hit
            keep = np.flatnonzero(pend != 0)
            idx, pend = idx[keep], pend[keep]
        else:
            _swap_bits(pend, low, tmp)
            acc[idx] ^= pend


def _sparse_words(steps: list[tuple[int, int]], words: int, workers: int) -> int:
    """The most nonzero words of ``reached`` at which a stratum is grown on the sparse path.

    Both paths pay the walk's in-word moves per word they translate. The
    dense path adds its strided ORs on every word, split between the
    ``workers`` threads; the sparse path adds a gather, an OR and a scatter
    per column on each nonzero word, 24 half passes of ``_step_cost``.
    """
    # Sparse vs dense on the same strata, each with the scan that picks its
    # path (2-core Xeon, numpy 2.4, medians of two runs of 5-20 alternating
    # calls): [31,6] at jobs 1, whose walk is 14 ORs and no moves, w5 (2.9% of
    # the words nonzero) 2.2-2.4 vs 4.3-4.6 ms, w6 (13%) 8.7-8.8 vs 4.9-5.0 ms
    # and w7 (43%) 18-21 vs 4.4-6.1 ms; [63,39] w4 (11%) 11 vs 25-26 ms at jobs
    # 1 and 11-13 vs 16-24 ms at jobs 2; [63,36] w5 (19%) 217-218 vs 199-210 ms
    # at jobs 1 and 196-209 vs 125-134 ms at jobs 2. With the half pass set by
    # the dense times, the sparse times fit 16-18 half passes per column and
    # nonzero word on [31,6] w7, 26-27 on [63,39] w4 and 38-40 on [63,36] w5,
    # whose gathers and scatters span a 16 MiB accumulator (all at jobs 1). At
    # 24 the cut falls at 8% of the words for [31,6] at jobs 1, 30% and 15% for
    # [63,39] at jobs 1 and 2, and 29% and 14% for [63,36]: every stratum timed
    # takes the faster path but [63,36] w5 at jobs 1, which stays sparse as
    # before.
    costs = [_step_cost(low, d | high << 6) for low, (d, high) in zip([0] + [d for d, _ in steps], steps)]
    ors, moves = map(sum, zip(*costs))
    return words * (ors + moves) // (workers * (moves + 24 * len(steps)))


def _lowest_zero_bit(bits: np.ndarray) -> int:
    """Lowest clear bit of a bitset that has one."""
    i = int(np.argmax(bits != ~np.uint64(0)))
    free = ~int(bits[i])
    return 64 * i + (free & -free).bit_length() - 1


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------

def _code_key(code: LinearCode) -> str:
    h = hashlib.sha256()
    h.update(f"{code.n},{code.k}".encode())
    for c in code.syndrome_columns:
        h.update(c.to_bytes(8, "little"))
    return h.hexdigest()


def _save_checkpoint(path: str, code: LinearCode, reached: np.ndarray, counts: list[int], w: int) -> int:
    """Write the checkpoint through ``path + ".tmp"`` and an atomic rename; returns its size in bytes."""
    head = " ".join(map(str, (_CHECKPOINT_MAGIC, _CHECKPOINT_VERSION, _code_key(code), w, *counts))).encode() + b"\n"
    words = reached.astype("<u8", copy=False)  # a view on little-endian hosts
    digest = hashlib.sha256(head)
    digest.update(words)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        size = sum(fh.write(part) for part in (head, words, digest.digest()))
    os.replace(tmp, path)
    return size


def _load_checkpoint(path: str, code: LinearCode, words: int) -> tuple[np.ndarray, list[int], int] | None:
    """(reached, counts, weight) from ``path``; None if there is no file.

    Raises ValueError naming the path for any file this search cannot
    resume from.
    """
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        head = fh.readline(_CHECKPOINT_HEADER_MAX)
        fields = head.split()
        if fields[:1] != [_CHECKPOINT_MAGIC.encode()]:
            kind = "an .npz checkpoint of format versions 1-3" if head.startswith(b"PK") else "not a radius checkpoint"
            raise ValueError(f"checkpoint {path} is {kind}; delete it to restart the search")
        version = b"".join(fields[1:2]).decode(errors="replace") or "none"
        if version != str(_CHECKPOINT_VERSION):
            raise ValueError(f"checkpoint {path} has format version {version}, expected {_CHECKPOINT_VERSION}")
        reached = np.fromfile(fh, dtype="<u8", count=words)
        stored = fh.read(33)  # the digest: short or empty if the file is short, 33 bytes if it is long
    digest = hashlib.sha256(head)
    digest.update(reached)
    if stored != digest.digest():
        raise ValueError(f"checkpoint {path} is corrupt, truncated or sized for another code (digest mismatch)")
    if fields[2:3] != [_code_key(code).encode()]:
        raise ValueError(f"checkpoint {path} belongs to a different code")
    total = 1 << (code.n - code.k)
    try:
        w, *counts = map(int, fields[3:])
        fits = len(counts) == w + 1 > 0 and sum(counts) == int(np.bitwise_count(reached).sum()) < total
    except ValueError:  # a field that is not a number, or no weight
        fits = False
    if not fits:
        raise ValueError(
            f"checkpoint {path} has counts that fit no unfinished search "
            f"(need weight + 1 of them, summing to the bits set in reached, below {total})"
        )
    return reached, counts, w


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------

def covering_radius(
    code: LinearCode,
    weight_cap: int | None = None,
    jobs: int = 1,
    checkpoint_path: str | None = None,
    on_event: Callable[[StratumEvent], None] | None = None,
) -> RadiusResult:
    """Exact covering radius of the code (stratified bitset search).

    Stops with WeightCapExceeded if strata up to ``weight_cap`` do not cover
    all 2^(n-k) syndromes (the default cap n can never trigger), also when
    a resumed checkpoint is already past the cap; a negative cap is a
    ValueError before any checkpoint is read. Each stratum is pulled,
    grown sparsely or grown densely, by the two cuts tested in its loop.
    Up to ``jobs`` threads, at most one per dense block of ``_CHUNK``
    words, split the words of each dense stratum; the result does not
    depend on it. Sparse and pull strata run on the calling thread.
    ``on_event``, if given, receives a StratumEvent after each stratum this
    call computes. The code is left unchanged; callers keep the returned
    result.
    """
    nk = code.n - code.k
    if nk > 32:
        raise ValueError(f"syndrome space 2^{nk} not addressable (need n - k <= 32)")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if weight_cap is None:
        weight_cap = code.n
    elif weight_cap < 0:
        raise ValueError(f"need weight_cap >= 0, got weight_cap={weight_cap}")
    total = 1 << nk
    words = 1 << max(nk - 6, 0)

    resumed = _load_checkpoint(checkpoint_path, code, words) if checkpoint_path else None
    if resumed is not None:
        reached, counts, w = resumed
    else:
        reached = np.zeros(words, dtype=np.uint64)
        reached[0] = 1
        counts = [1]
        w = 0

    seen, deepest = sum(counts), 0
    steps, seed_cols = _column_walk(code)
    seeds = _seed_syndromes(seed_cols)
    # Each worker owns a contiguous run of at least one dense block, so
    # below two blocks the calling thread walks them with no pool.
    block = min(_CHUNK, words)
    blocks = words // block
    workers = min(jobs, blocks)
    tmps = [np.empty(block, np.uint64) for _ in range(workers)]  # worker 0's also serves the sparse and pull paths
    sparse_words = _sparse_words(steps, words, workers)
    acc = np.empty(words, dtype=np.uint64)
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        while seen < total:
            if w >= weight_cap:  # also a resumed checkpoint already past the cap
                raise WeightCapExceeded(weight_cap, tuple(counts[: weight_cap + 1]), total)
            start = perf_counter()
            # The sparse and dense paths fill acc with reached | translates, the
            # pull with the next stratum alone, less its seeds. The pull costs a
            # gather and a delta swap per pending word and column tried. A word
            # that will be reached drops out after a few columns, but a word
            # holding a syndrome of leader weight above the new stratum's tries
            # every column, so the pull pays off only near the end of the
            # search, where little is left and the last stratum is large. Both
            # paths timed on the same strata with the walked columns alone
            # (2-core Xeon, numpy 2.4, jobs 1, two runs of 3-5 calls each, dense
            # vs pull, U unreached syndromes and F = counts[-1] in the last
            # stratum before stratum w):
            #   pulled, 2U <= F: [63,45] w=5 (U/F 0.37) 1.6 vs 0.45 ms, [31,6]
            #   w=11 (0.052) 40 vs 11 ms, [63,39] w=7 (0.015) 53-56 vs 5.2-5.6
            #   ms, [63,36] w=8 (0.0043) 466-506 vs 28-34 ms, [63,36] w=9
            #   (0.0006) 446-472 vs 14-15 ms;
            #   kept, 2U > F: [31,11] w=7 (0.61) 0.9-1.0 vs 1.5-2.1 ms, [31,6]
            #   w=10 (0.63) 36-52 vs 94-121 ms, [63,36] w=7 (1.30) 455-460 vs
            #   559-582 ms, [63,39] w=6 (1.87) 53-61 vs 114-117 ms.
            # So the crossover lies between U/F 0.37 and 1.30 at n = 63 and
            # below 0.61 at n = 31; every pulled stratum ran at least 3.5x
            # faster than dense, and every kept one faster dense than pulled.
            # Those walks had in-word moves; [31,6]'s has none, and its w=11
            # takes 2.7-3.3 ms pulled, 4.2-4.8 ms dense (medians of two runs of
            # 30 alternating calls on one reached, the pull faster in 59 of 60)
            # since the pull scans bool masks.
            if 2 * (total - seen) <= counts[-1]:
                path = "pull"
                _pull(steps, reached, acc, tmps[0])
                acc |= reached
            elif np.count_nonzero(nonzero := reached != 0) <= sparse_words:
                path = "sparse"
                _translate_or_sparse(steps, reached, np.flatnonzero(nonzero), acc, tmps[0])
            else:
                path = "dense"
                runs = (range(blocks * j // workers, blocks * (j + 1) // workers) for j in range(workers))
                list((map if pool is None else pool.map)(
                    lambda run, tmp: _dense_blocks(steps, reached, acc, block, run, tmp), runs, tmps))
            if w + 1 < len(seeds):  # after the pull has cleared its misses, which would clear a seed too
                _set_bits(acc, seeds[w + 1])
            w += 1
            count = int(np.bitwise_count(acc).sum()) - seen
            if count == 0:
                raise AssertionError("stratum empty before full coverage (H not full rank?)")
            if seen + count == total:  # the last stratum holds every syndrome still unreached
                deepest = _lowest_zero_bit(reached)
            reached, acc = acc, reached  # every path overwrites acc before it reads it
            counts.append(count)
            seen += count
            searched = perf_counter()
            saved, size = searched, 0
            if checkpoint_path and seen < total:
                size = _save_checkpoint(checkpoint_path, code, reached, counts, w)
                saved = perf_counter()
            if on_event is not None:
                on_event(StratumEvent(
                    weight=w,
                    count=count,
                    cumulative=seen,
                    path=path,
                    seconds=searched - start,
                    checkpoint_seconds=saved - searched,
                    checkpoint_bytes=size,
                ))
    finally:
        if pool is not None:
            pool.shutdown()

    return RadiusResult(
        covering_radius=w,
        coset_count_by_weight=tuple(counts),
        deepest_syndrome=Word(deepest, nk),
    )
