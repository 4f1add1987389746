"""Exact covering radius by weight-stratified search over syndrome space.

The coset leader weight of a syndrome s is the smallest number of
parity-check columns that XOR to s. The engine grows the set of reached
syndromes one weight stratum at a time. Both sets are bitsets over the
2^(n-k) syndromes, stored as uint64 words (syndrome s is bit s % 64 of word
s // 64): ``reached`` holds every syndrome of leader weight <= w and
``frontier`` those of weight exactly w. Then

    stratum w+1 = OR over columns c of translate(frontier, c), minus reached,

where translate(x, c)[s] = x[s ^ c]. The high bits ``c >> 6`` permute whole
words: viewing the words as a ``(2,) * (n-k-6)`` array, they flip one axis
each. The low bits ``c & 63`` permute bits inside every word by delta swaps
with fixed masks. Columns are taken in Gray-code order of their low bits, so
consecutive columns re-swap as few bit groups as possible. For n - k < 6
the whole space is the low 2^(n-k) bits of one word, which stay closed under
XOR by any column. The covering radius is the last non-empty stratum.

Each stratum costs about n passes over 2^(n-k) bits whatever its size, which
is what makes the big searches ([31,6]: 2^25 syndromes, [63,36]: 2^27) run
in seconds. With ``jobs`` > 1 the column list is cut into fixed groups, each
thread ORs its group's translates into a private accumulator, and the
accumulators are OR-reduced. OR is commutative and associative, so every
stratum, and hence the output, is bit-identical for any worker count.

A checkpoint file, if requested, is rewritten after each completed stratum.
It holds both bitsets (1/8 byte per syndrome each), the counts so far and a
SHA-256 digest over every stored field, so multi-hour runs can resume and
corrupt, truncated, foreign or outdated files are refused.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .linear_code import LinearCode, Word, codeword_table

_CHECKPOINT_VERSION = 2  # 1 was the uint8 first-seen table, which carried no version field
_CHECKPOINT_FIELDS = frozenset({"version", "code_key", "weight", "counts", "reached", "frontier", "digest"})
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
_ORACLE_GUARD_N = 16
_ORACLE_GUARD_NK = 30


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


class WeightCapExceeded(RuntimeError):
    """Raised when the search hits the weight cap before covering every coset."""

    def __init__(self, weight_cap: int, counts: tuple[int, ...], total: int):
        self.weight_cap = weight_cap
        self.counts_so_far = counts
        self.syndromes_seen = sum(counts)
        self.syndrome_total = total
        super().__init__(
            f"R > {weight_cap}: only {self.syndromes_seen} of {total} syndromes "
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


def _swap_bits(x: np.ndarray, d: int, tmp: np.ndarray) -> None:
    """x <- x with bit p of every word moved to bit p ^ d (0 <= d < 64), in place."""
    for j, mask in enumerate(_SWAP_MASKS):
        if d >> j & 1:
            shift = np.uint64(1 << j)
            np.right_shift(x, shift, out=tmp)
            tmp &= mask
            x &= mask
            x <<= shift
            x |= tmp


class _ColumnGroup:
    """One worker's share of the columns, with its private buffers.

    ``steps`` lists (low bits, word flips) in Gray-code order of the low
    bits, so ``scratch`` walks from one in-word permutation to the next.
    In the ``(1,) + (2,) * axes`` word view, axis 1 + a holds bit axes-1-a
    of the word index; the leading axis keeps the view an array when
    axes = 0.
    """

    def __init__(self, cols: list[int], axes: int):
        words = 1 << axes
        self.shape = (1,) + (2,) * axes
        self.steps = [
            (c & 63, (slice(None),) + tuple(
                slice(None, None, -1) if (c >> 6) >> (axes - 1 - a) & 1 else slice(None)
                for a in range(axes)
            ))
            for c in cols
        ]
        self.acc = np.empty(words, dtype=np.uint64)
        self.scratch = np.empty(words, dtype=np.uint64)
        self.tmp = np.empty(words, dtype=np.uint64)

    def translate_or(self, frontier: np.ndarray) -> np.ndarray:
        """acc = OR over this group's columns c of translate(frontier, c)."""
        self.acc.fill(0)
        np.copyto(self.scratch, frontier)
        acc = self.acc.reshape(self.shape)
        scratch = self.scratch.reshape(self.shape)
        low = 0
        for d, flips in self.steps:
            _swap_bits(self.scratch, d ^ low, self.tmp)
            low = d
            np.bitwise_or(acc, scratch[flips], out=acc)
        return self.acc


def _column_groups(code: LinearCode, jobs: int) -> list[_ColumnGroup]:
    cols = sorted(code.syndrome_columns, key=lambda c: (_gray_rank(c & 63), c))
    parts = min(jobs, len(cols))
    axes = max(code.n - code.k - 6, 0)
    return [
        _ColumnGroup(cols[i * len(cols) // parts: (i + 1) * len(cols) // parts], axes)
        for i in range(parts)
    ]


def _lowest_set_bit(bits: np.ndarray) -> int:
    i = int(np.flatnonzero(bits)[0])
    word = int(bits[i])
    return 64 * i + (word & -word).bit_length() - 1


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------

def _code_key(code: LinearCode) -> str:
    h = hashlib.sha256()
    h.update(f"{code.n},{code.k}".encode())
    for c in code.syndrome_columns:
        h.update(c.to_bytes(8, "little"))
    return h.hexdigest()


def _digest(key: str, reached: np.ndarray, frontier: np.ndarray, counts: np.ndarray, w: int) -> str:
    h = hashlib.sha256()
    h.update(f"{_CHECKPOINT_VERSION},{key},{w},{len(counts)}".encode())
    for part in (counts, reached, frontier):
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _save_checkpoint(
    path: str, code: LinearCode, reached: np.ndarray, frontier: np.ndarray, counts: list[int], w: int
) -> None:
    key = _code_key(code)
    stored = np.asarray(counts, dtype=np.int64)
    tmp = path + ".tmp.npz"  # .npz suffix keeps numpy from renaming the temp file
    np.savez(
        tmp,
        version=np.int64(_CHECKPOINT_VERSION),
        code_key=np.bytes_(key.encode()),
        weight=np.int64(w),
        counts=stored,
        reached=reached,
        frontier=frontier,
        digest=np.bytes_(_digest(key, reached, frontier, stored, w).encode()),
    )
    os.replace(tmp, path)


def _load_checkpoint(
    path: str, code: LinearCode, words: int
) -> tuple[np.ndarray, np.ndarray, list[int], int] | None:
    """(reached, frontier, counts, weight) from ``path``; None if there is no file.

    Raises ValueError naming the path for any file this search cannot
    resume from.
    """
    if not os.path.exists(path):
        return None
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz archive")
        with data:
            stored = {name: data[name] for name in data.files}
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"checkpoint {path} is unreadable ({exc})") from exc
    if "version" not in stored:
        kind = "the old uint8-table format" if "table" in stored else "no format version"
        raise ValueError(f"checkpoint {path} has {kind}; delete it to restart the search")
    version = int(stored["version"])
    if version != _CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint {path} has format version {version}, expected {_CHECKPOINT_VERSION}")
    missing = sorted(_CHECKPOINT_FIELDS - stored.keys())
    if missing:
        raise ValueError(f"checkpoint {path} lacks fields {missing}")
    key = bytes(stored["code_key"]).decode(errors="replace")
    if key != _code_key(code):
        raise ValueError(f"checkpoint {path} belongs to a different code")
    reached, frontier, counts = stored["reached"], stored["frontier"], stored["counts"]
    w = int(stored["weight"])
    if bytes(stored["digest"]).decode(errors="replace") != _digest(key, reached, frontier, counts, w):
        raise ValueError(f"checkpoint {path} is corrupt (digest mismatch)")
    for name, bits in (("reached", reached), ("frontier", frontier)):
        if bits.dtype != np.uint64 or bits.shape != (words,):
            raise ValueError(f"checkpoint {path}: {name} is {bits.dtype}{bits.shape}, expected uint64({words},)")
    return reached, frontier, [int(c) for c in counts], w


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------

def covering_radius(
    code: LinearCode,
    weight_cap: int | None = None,
    jobs: int = 1,
    checkpoint_path: str | None = None,
) -> RadiusResult:
    """Exact covering radius of the code (stratified bitset search).

    Stops with WeightCapExceeded if strata up to ``weight_cap`` do not cover
    all 2^(n-k) syndromes (the default cap n can never trigger). ``jobs``
    threads share each stratum; the result does not depend on it. On
    success the result is cached on ``code.covering_radius``.
    """
    nk = code.n - code.k
    if nk > 32:
        raise ValueError(f"syndrome space 2^{nk} not addressable (need n - k <= 32)")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if weight_cap is None:
        weight_cap = code.n
    total = 1 << nk
    words = 1 << max(nk - 6, 0)

    resumed = _load_checkpoint(checkpoint_path, code, words) if checkpoint_path else None
    if resumed is not None:
        reached, frontier, counts, w = resumed
    else:
        reached = np.zeros(words, dtype=np.uint64)
        reached[0] = 1
        frontier = reached.copy()
        counts = [1]
        w = 0

    seen = sum(counts)
    groups = _column_groups(code, jobs) if seen < total else []
    pool = ThreadPoolExecutor(max_workers=len(groups)) if len(groups) > 1 else None
    try:
        while seen < total:
            if w >= weight_cap:
                raise WeightCapExceeded(weight_cap, tuple(counts), total)
            if pool is None:
                accs = [g.translate_or(frontier) for g in groups]
            else:
                accs = list(pool.map(lambda g: g.translate_or(frontier), groups))
            for other in accs[1:]:
                accs[0] |= other
            not_reached = np.invert(reached, out=groups[0].tmp)
            np.bitwise_and(accs[0], not_reached, out=frontier)
            reached |= frontier
            w += 1
            count = int(np.bitwise_count(frontier).sum())
            if count == 0:
                raise AssertionError("stratum empty before full coverage (H not full rank?)")
            counts.append(count)
            seen += count
            if checkpoint_path:
                _save_checkpoint(checkpoint_path, code, reached, frontier, counts, w)
    finally:
        if pool is not None:
            pool.shutdown()

    result = RadiusResult(
        covering_radius=w,
        coset_count_by_weight=tuple(counts),
        deepest_syndrome=Word(_lowest_set_bit(frontier), nk),
    )
    code.covering_radius = w
    return result


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


def is_perfect(code: LinearCode) -> bool:
    """R == floor((d-1)/2); needs exact distance and a known covering radius."""
    d, exactness = code.min_distance()
    if exactness != "exact" or code.covering_radius is None:
        raise ValueError("insufficient data: need exact d and a computed covering radius")
    return code.covering_radius == (d - 1) // 2


# ----------------------------------------------------------------------
# revolving-door enumeration of fixed-weight words
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
