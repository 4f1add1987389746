import hashlib
import math
import os
import random
import re
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np
import pytest

from bchcover.bch import build_bch, generator_polynomial, multiplicative_order_of_two
from bchcover.bounds import classify
from bchcover.linear_code import LinearCode, Word, from_generator_poly
from bchcover import radius
from bchcover.manifest import TABLE1
from bchcover.radius import StratumEvent, WeightCapExceeded, covering_radius

from conftest import (
    bch_code,
    codeword_table,
    covering_radius_oracle,
    radius_result,
    random_code,
    span_table,
    word_with_syndrome,
)


# ---------------------------------------------------------------------------
# engine vs definitional oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,delta", [(7, 3), (15, 3), (15, 5)])
def test_engine_matches_oracle_on_bch(n, delta):
    code, _ = build_bch(n, delta)
    assert covering_radius(code).covering_radius == covering_radius_oracle(code)


def test_engine_matches_oracle_on_random_codes():
    rng = random.Random(42)
    for _ in range(10):
        code = random_code(rng, 10, rng.randrange(3, 8))
        assert covering_radius(code).covering_radius == covering_radius_oracle(code)


def test_oracle_trivial_codes():
    whole = from_generator_poly(1, 5)
    assert covering_radius_oracle(whole) == 0
    assert covering_radius(whole).covering_radius == 0
    repetition = LinearCode([0b111], 3)
    assert covering_radius_oracle(repetition) == 1
    assert covering_radius(repetition).covering_radius == 1


def test_oracle_guard():
    code, _ = build_bch(17, 3)
    with pytest.raises(ValueError):
        covering_radius_oracle(code)


# ---------------------------------------------------------------------------
# known radii
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n,delta,expected",
    [(7, 3, 1), (15, 5, 3), (17, 3, 3), (23, 5, 3), (31, 7, 5)],
)
def test_known_covering_radii(n, delta, expected):
    code = bch_code(n, delta)
    assert covering_radius(code).covering_radius == expected


def test_search_leaves_the_code_unchanged(tmp_path):
    # the result is the only output: no run, finished or stopped at the
    # weight cap, with or without a checkpoint, writes to the code
    code, _ = build_bch(15, 5)
    before = dict(vars(code))
    for jobs in (1, 2):
        assert covering_radius(code, jobs=jobs).covering_radius == 3
        assert vars(code) == before
        path = str(tmp_path / f"jobs{jobs}.ckpt")
        assert covering_radius(code, jobs=jobs, checkpoint_path=path).covering_radius == 3
        assert vars(code) == before
    with pytest.raises(WeightCapExceeded):
        covering_radius(code, weight_cap=2)
    assert vars(code) == before


def test_classify_without_result_after_a_search():
    code, _ = build_bch(15, 5)
    assert covering_radius(code).covering_radius == 3
    report = classify(code)
    assert report.covering_radius is None
    assert "R unknown" in report.comment
    assert not report.is_a_covered and not report.wu_covered


# ---------------------------------------------------------------------------
# result invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,delta", [(7, 3), (15, 5), (17, 3), (23, 5)])
def test_result_invariants(n, delta):
    code = bch_code(n, delta)
    result = covering_radius(code)
    counts = result.coset_count_by_weight
    assert sum(counts) == 1 << (code.n - code.k)
    assert counts[0] == 1
    assert len(counts) - 1 == result.covering_radius
    assert all(c > 0 for c in counts)
    # sphere-covering: balls of radius R must cover the syndrome space
    assert sum(math.comb(code.n, w) for w in range(result.covering_radius + 1)) >= sum(counts)


@pytest.mark.parametrize(
    "row", [row for row in TABLE1 if (row.n, row.k) != (63, 36)], ids=lambda r: f"n{r.n}-k{r.k}"
)
def test_coset_profile_brackets_d(row):
    # The words of weight <= t lead distinct cosets exactly when d >= 2t + 1,
    # and those of weight t + 1 do exactly when d >= 2t + 3. The search shares
    # no code with min_distance, so on a lower-bound row this puts the true d
    # at delta or delta + 1.
    d, _ = bch_code(row.n, row.delta).min_distance()
    t = (d - 1) // 2
    counts = radius_result(row.n, row.delta).coset_count_by_weight + (0,) * (t + 2)  # past R: 0
    assert all(counts[w] == math.comb(row.n, w) for w in range(t + 1))
    assert counts[t + 1] < math.comb(row.n, t + 1)


@pytest.mark.parametrize(
    "row", [row for row in TABLE1 if all(row.n % p for p in range(2, row.n))], ids=lambda r: f"n{r.n}-k{r.k}"
)
def test_coset_counts_of_a_prime_length_are_multiples_of_n(row):
    # The cyclic shift maps cosets of weight w to cosets of weight w. It fixes
    # v + C iff g | (x + 1)v, that is iff g | v since g(1) != 0: only the zero
    # coset. So for prime n every other orbit has n cosets.
    counts = radius_result(row.n, row.delta).coset_count_by_weight
    assert all(count % row.n == 0 for count in counts[1:])


DELSARTE_TIGHT = {(7, 4), (15, 11), (15, 5), (23, 12), (31, 26), (31, 21), (31, 16), (63, 57)}


@pytest.mark.parametrize("row", [row for row in TABLE1 if row.n - row.k <= 20], ids=lambda r: f"n{r.n}-k{r.k}")
def test_radius_within_delsarte_bound(row):
    # Delsarte (Inform. Control 1973): R is at most the number of distinct
    # nonzero weights of the dual code, enumerated here from the rows of H.
    code = bch_code(row.n, row.delta)
    dual_weights = set(np.bitwise_count(span_table(code.parity_rows)[1:]).tolist())
    radius = radius_result(row.n, row.delta).covering_radius
    assert radius <= len(dual_weights)
    assert (radius == len(dual_weights)) == ((row.n, row.k) in DELSARTE_TIGHT)


def test_deepest_syndrome_is_a_deep_hole():
    code = bch_code(15, 5)
    result = covering_radius(code)
    rep = word_with_syndrome(code, result.deepest_syndrome.bits)
    brute = int(np.bitwise_count(codeword_table(code) ^ np.uint64(rep.bits)).min())
    assert brute == result.covering_radius == 3


def test_counts_match_brute_force_leader_weights():
    code, _ = build_bch(7, 3)
    result = covering_radius(code)
    # independent: leader weight of every syndrome by scanning all 2^7 words
    leaders = {}
    for v in range(1 << 7):
        s = code.syndrome_int(v)
        w = v.bit_count()
        if s not in leaders or w < leaders[s]:
            leaders[s] = w
    expected = [0] * (max(leaders.values()) + 1)
    for w in leaders.values():
        expected[w] += 1
    assert list(result.coset_count_by_weight) == expected


def _brute_force_leaders(code: LinearCode) -> np.ndarray:
    """Leader weight of every syndrome, from the syndromes of all 2^n words
    computed with the parity-check rows."""
    words = np.arange(1 << code.n, dtype=np.int64)
    syndromes = np.zeros_like(words)
    for j, h in enumerate(code.parity_rows):
        syndromes |= (np.bitwise_count(words & h).astype(np.int64) & 1) << j
    leaders = np.full(1 << (code.n - code.k), code.n + 1, dtype=np.int64)
    np.minimum.at(leaders, syndromes, np.bitwise_count(words).astype(np.int64))
    return leaders


def _brute_force_leader_profile(code: LinearCode) -> tuple[tuple[int, ...], int]:
    """(coset counts by leader weight, smallest syndrome of leader weight R),
    from the syndromes of all 2^n words computed with the parity-check rows."""
    leaders = _brute_force_leaders(code)
    counts = np.bincount(leaders)
    radius = len(counts) - 1
    return tuple(int(c) for c in counts), int(np.flatnonzero(leaders == radius)[0])


def _duplicate_column_code() -> LinearCode:
    """A [20,8] code whose H = [A | I_12] repeats general column 0 as columns 5 and 6."""
    rng = random.Random(3)
    a = [rng.randrange(1, 1 << 12) for _ in range(8)]
    a[5] = a[6] = a[0]
    return LinearCode([1 << i | col << 8 for i, col in enumerate(a)], 20)


def _leader_cases():
    """Codes with n - k in {0, 1, 3, 5, 6, 7, 8, 10, 12}: both sides of the 64-bit word.

    The codes with n - k >= 9 seed n-k-8 columns (J) instead of translating
    them; random20-8 and duplicates20-8 seed 4 of their 20, and have dense
    strata.
    """
    rng = random.Random(7)
    cases = [
        ("whole5-5", from_generator_poly(1, 5)),
        ("bch7-4", build_bch(7, 3)[0]),
        ("bch7-1", build_bch(7, 7)[0]),
        ("bch15-7", build_bch(15, 5)[0]),
        ("bch17-9", build_bch(17, 3)[0]),
        ("bch15-5", build_bch(15, 7)[0]),
    ]
    for n in (2, 4, 6, 7, 8, 9, 11):
        cases.append((f"repetition{n}-1", LinearCode([(1 << n) - 1], n)))
    for n, k in ((6, 6), (8, 7), (10, 7), (12, 7), (12, 6), (13, 6), (14, 6), (14, 4), (20, 8)):
        cases.append((f"random{n}-{k}", random_code(rng, n, k)))
    cases.append(("duplicates20-8", _duplicate_column_code()))
    return [pytest.param(code, id=label) for label, code in cases]


@pytest.mark.parametrize("code", _leader_cases())
def test_engine_matches_brute_force_across_word_boundary(code, tmp_path):
    counts, deepest = _brute_force_leader_profile(code)
    R = len(counts) - 1
    expected = radius.RadiusResult(R, counts, Word(deepest, code.n - code.k))
    for jobs in (1, 3):
        assert covering_radius(code, jobs=jobs) == expected
    # stopped at every cap below R and resumed; each completed run keeps the file of
    # stratum R - 1, the last one that leaves syndromes unreached
    for cap in range(1, R):
        path = str(tmp_path / f"cap{cap}.ckpt")
        with pytest.raises(WeightCapExceeded) as info:
            covering_radius(code, weight_cap=cap, jobs=3, checkpoint_path=path)
        assert info.value.counts_so_far == counts[: cap + 1]
        assert covering_radius(code, checkpoint_path=path) == expected
        assert _read_checkpoint(path).weight == R - 1
    path = tmp_path / "complete.ckpt"
    assert covering_radius(code, checkpoint_path=str(path)) == expected
    if R >= 2:
        assert _read_checkpoint(path).weight == R - 1
    else:
        assert not path.exists()  # no stratum left syndromes unreached


def _cut_cases():
    """Codes with n - k in 12..14 whose strata fall on both sides of the sparse/dense cut
    and end in a pull stratum."""
    rng = random.Random(11)
    return [
        pytest.param(random_code(rng, 20, 6), id="random20-6"),
        pytest.param(random_code(rng, 21, 8), id="random21-8"),
    ]


@pytest.mark.parametrize("code", _cut_cases())
def test_sparse_and_dense_strata_match_brute_force(code):
    nk = code.n - code.k
    words = 1 << (nk - 6)
    leaders = _brute_force_leaders(code)
    counts, deepest = _brute_force_leader_profile(code)
    assert any(c >> 6 for c in code.syndrome_columns)  # sparse strata move whole words
    # one dense block, so one worker at any jobs
    sparse_words = radius._sparse_words(radius._column_walk(code)[0], words, 1)
    for jobs in (1, 3):
        events = []
        result = covering_radius(code, jobs=jobs, on_event=events.append)
        assert result.coset_count_by_weight == counts
        assert result.deepest_syndrome == Word(deepest, nk)
        paths = [e.path for e in events]
        assert paths.count("sparse") >= 2 and paths.count("dense") >= 1 and paths[-1] == "pull"
        for e in events:
            # the cuts: stratum w is pulled iff at most half as many syndromes are unreached
            # as stratum w-1 holds, else grown sparsely iff the syndromes of leader weight
            # <= w-1 fill at most the walk's sparse_words words
            last = int(np.count_nonzero(leaders == e.weight - 1))
            unreached = int(np.count_nonzero(leaders >= e.weight))
            occupied = len(np.unique(np.flatnonzero(leaders <= e.weight - 1) >> 6))
            if 2 * unreached <= last:
                assert e.path == "pull"
            else:
                assert e.path == ("sparse" if occupied <= sparse_words else "dense")


def _pull_case() -> LinearCode:
    """A seeded random [20,6] code whose last two strata are pulled; 8 syndromes
    of leader weight 8 miss every column in the pull of stratum 7."""
    return random_code(random.Random(1), 20, 6)


@pytest.mark.parametrize("chunk", [1 << 16, 16, 1], ids=["default", "chunks-of-16", "chunks-of-1"])
def test_pull_stratum_before_the_last_matches_brute_force(monkeypatch, chunk):
    # Chunks of 16 cut the 256 words of this code into 16 pending sets, some
    # emptied before the last column and some left with misses to clear;
    # chunks of 1 leave a pending set of a single word.
    monkeypatch.setattr(radius, "_CHUNK", chunk)
    code = _pull_case()
    leaders = _brute_force_leaders(code)
    counts, deepest = _brute_force_leader_profile(code)
    assert len(counts) == 9 and counts[-1] > 0
    for jobs in (1, 3):
        events = []
        result = covering_radius(code, jobs=jobs, on_event=events.append)
        assert result.coset_count_by_weight == counts
        assert result.deepest_syndrome == Word(deepest, code.n - code.k)
        assert [e.path for e in events][-2:] == ["pull", "pull"]
        assert [e.count for e in events] == [int(np.count_nonzero(leaders == w)) for w in range(1, 9)]


def _chunk_cases():
    """(code, words per chunk or None for the default), for the cut cases and the pull case."""
    codes = _cut_cases() + [pytest.param(_pull_case(), id="pull20-6")]
    return [pytest.param(p.values[0], None, id=p.id) for p in codes] + [
        pytest.param(p.values[0], chunk, id=f"{p.id}-blocks-of-{chunk}") for p in codes for chunk in (4, 64)
    ]


@pytest.mark.parametrize("code,chunk", _chunk_cases())
def test_swap_chunks_match_brute_force(monkeypatch, code, chunk):
    # The oracle codes have at most 256 words, fewer than one default chunk,
    # so by default each is one dense block. Chunks of 4 or 64 words send the
    # sparse values and the pull's pending sets through the chunk loop of
    # their permutations, remainders included. They also cut these codes into
    # 32 or 64 dense blocks of 4 words, so the translates flip the block
    # index as well as the words inside a block, or into 2 or 4 blocks of 64
    # words, fewer than 5 jobs, which then run one worker per block; 3
    # workers divide no block count.
    if chunk is not None:
        monkeypatch.setattr(radius, "_CHUNK", chunk)
    counts, deepest = _brute_force_leader_profile(code)
    for jobs in (1, 3) if chunk is None else (1, 2, 3, 5):
        events = []
        result = covering_radius(code, jobs=jobs, on_event=events.append)
        assert result.coset_count_by_weight == counts
        assert result.deepest_syndrome == Word(deepest, code.n - code.k)
        assert {e.path for e in events} == {"sparse", "dense", "pull"}


@pytest.mark.parametrize("path,sparse_words", [("dense", 0), ("sparse", 1 << 40)], ids=["dense", "sparse"])
@pytest.mark.parametrize("code", _cut_cases() + [pytest.param(_pull_case(), id="pull20-6")])
def test_forced_translate_path_matches_brute_force(monkeypatch, code, path, sparse_words):
    # A sparse cut of 0 words grows every stratum that is not pulled densely,
    # thin ones included; a cut past any bitset grows them all sparsely, thick
    # ones included.
    monkeypatch.setattr(radius, "_sparse_words", lambda steps, words, workers: sparse_words)
    counts, deepest = _brute_force_leader_profile(code)
    for jobs in (1, 3):
        events = []
        result = covering_radius(code, jobs=jobs, on_event=events.append)
        assert result.coset_count_by_weight == counts
        assert result.deepest_syndrome == Word(deepest, code.n - code.k)
        assert {e.path for e in events} == {path, "pull"}


def test_checkpoint_around_a_pull_stratum_resumes(tmp_path):
    fresh = covering_radius(_pull_case())
    for cap in (6, 7):  # just before the first pull stratum, and just after it
        path = str(tmp_path / f"cap{cap}.ckpt")
        with pytest.raises(WeightCapExceeded):
            covering_radius(_pull_case(), weight_cap=cap, checkpoint_path=path)
        resumed = []
        assert covering_radius(_pull_case(), checkpoint_path=path, on_event=resumed.append) == fresh
        assert [(e.weight, e.path) for e in resumed] == [(7, "pull"), (8, "pull")][cap - 6:]


def test_last_stratum_of_bch31_6_is_pulled():
    events = []
    result = covering_radius(build_bch(31, 15)[0], on_event=events.append)
    assert result.covering_radius == 11
    assert [e.path for e in events][-1] == "pull"
    assert events[-1].count == 427924


def _bitset(syndromes: np.ndarray) -> np.ndarray:
    """A bool array over the syndromes as the engine's uint64 words (syndrome s is bit s % 64 of word s // 64)."""
    padded = np.zeros(-(-len(syndromes) // 64) * 64, dtype=bool)
    padded[: len(syndromes)] = syndromes
    return np.packbits(padded, bitorder="little").view("<u8").astype(np.uint64)


@pytest.mark.parametrize("code,chunk", [
    pytest.param(_pull_case(), None, id="pull20-6-one-block"),
    pytest.param(_pull_case(), 16, id="pull20-6-blocks-of-16"),
    pytest.param(random_code(random.Random(7), 12, 6), None, id="random12-6-one-word"),
])
def test_each_path_returns_its_translates_on_every_stratum(monkeypatch, code, chunk):
    # The stratum loop ORs reached in after a pull only: the sparse and dense
    # paths return reached | translates, the pull the next stratum alone less
    # the seeds that no translate hits. Chunks of 16 cut the 256 words of
    # pull20-6 into 16 dense blocks, and the sparse values and pending sets
    # into chunks. random12-6 is one word, and its walk starts with a column
    # that has low bits, so a dense block starts by moving reached's bits.
    if chunk is not None:
        monkeypatch.setattr(radius, "_CHUNK", chunk)
    leaders = _brute_force_leaders(code)
    steps, seeds = radius._column_walk(code)
    seed_sets = radius._seed_syndromes(seeds)
    syndromes = np.arange(len(leaders))
    words = max(len(leaders) // 64, 1)
    block = min(radius._CHUNK, words)
    assert (words // block > 1) == (chunk is not None)
    assert (words == 1) == (steps[0][0] != 0)
    tmp = np.empty(block, dtype=np.uint64)
    for w in range(int(leaders.max())):
        reached = leaders <= w
        translates = np.zeros_like(reached)
        for d, high in steps:
            translates |= reached[syndromes ^ (d | high << 6)]
        reached_bits = _bitset(reached)
        results = {}
        for path in ("sparse", "dense", "pull"):
            acc = np.full(words, 0x5A5A5A5A5A5A5A5A, dtype=np.uint64)  # every path overwrites acc
            if path == "sparse":
                radius._translate_or_sparse(steps, reached_bits, np.flatnonzero(reached_bits), acc, tmp)
            elif path == "dense":
                radius._dense_blocks(steps, reached_bits, acc, block, range(words // block), tmp)
            else:
                radius._pull(steps, reached_bits, acc, tmp)
            results[path] = acc
        assert np.array_equal(results["sparse"], _bitset(reached | translates)), w
        assert np.array_equal(results["dense"], _bitset(reached | translates)), w
        assert np.array_equal(results["pull"], _bitset(translates & ~reached)), w
        # the seeds P_{w+1} fill in what the pull leaves of stratum w + 1
        missed = (leaders == w + 1) & ~translates
        seeded = np.zeros_like(reached)
        if w + 1 < len(seed_sets):
            seeded[seed_sets[w + 1]] = True
        assert not (missed & ~seeded).any(), w


def _bits_moved(x: np.ndarray, d: int) -> np.ndarray:
    """Every word of x with bit p moved to bit p ^ d, one bit at a time."""
    out = np.zeros_like(x)
    for p in range(64):
        out |= ((x >> np.uint64(p)) & np.uint64(1)) << np.uint64(p ^ d)
    return out


@pytest.mark.parametrize("length", [1, 7, 8, 8 * 3 + 5], ids=["1", "7", "one-chunk", "chunks-and-rest"])
def test_swap_bits_moves_bit_p_to_p_xor_d(monkeypatch, length):
    monkeypatch.setattr(radius, "_CHUNK", 8)
    words = np.random.default_rng(length).integers(0, 2**64, length, dtype=np.uint64)
    words[0] = 0x0123456789ABCDEF
    tmp = np.empty(min(length, 8), dtype=np.uint64)
    for d in range(64):
        x = words.copy()
        radius._swap_bits(x, d, tmp)
        assert np.array_equal(x, _bits_moved(words, d)), d


def test_swap_bits_on_an_offset_slice(monkeypatch):
    # the dense path permutes its block of the accumulator, a slice, in place
    monkeypatch.setattr(radius, "_CHUNK", 8)
    buffer = np.random.default_rng(5).integers(0, 2**64, 40, dtype=np.uint64)
    tmp = np.empty(8, dtype=np.uint64)
    for d in range(64):
        x = buffer.copy()
        radius._swap_bits(x[3:32], d, tmp)
        assert np.array_equal(x[3:32], _bits_moved(buffer[3:32], d)), d
        assert np.array_equal(x[:3], buffer[:3]) and np.array_equal(x[32:], buffer[32:])


FULL = 2**64 - 1


@pytest.mark.parametrize("words", [
    pytest.param([0b1011], id="one-word"),
    pytest.param([FULL ^ 1 << 37, 0, FULL], id="word-0"),
    pytest.param([FULL, FULL >> 1, 0, FULL], id="bit-63-of-a-middle-word"),
    pytest.param([FULL] * 5 + [FULL ^ 1 << 9 ^ 1 << 40], id="last-word"),
])
def test_lowest_zero_bit_matches_a_bit_by_bit_scan(words):
    bits = np.array(words, dtype=np.uint64)
    first_clear = next(p for p in range(64 * len(words)) if not words[p // 64] >> (p % 64) & 1)
    assert radius._lowest_zero_bit(bits) == first_clear


@pytest.mark.parametrize("code,seeded", [
    pytest.param(bch_code(31, 15), 17, id="31-15"),
    pytest.param(bch_code(63, 9), 16, id="63-9"),
    pytest.param(_duplicate_column_code(), 4, id="duplicates20-8"),
])
def test_column_walk_covers_every_column_once(code, seeded):
    # J (the seeds) holds n-k-8 columns, unit or general; the walk translates the rest
    steps, seeds = radius._column_walk(code)
    walked = [d | high << 6 for d, high in steps]
    assert sorted(walked + seeds) == sorted(code.syndrome_columns)
    assert len(seeds) == max(code.n - code.k - 8, 0) == seeded
    if code.n == 31:
        # [31,6] seeds its 6 general columns and the unit columns on bits 0-10, so
        # every one of its 14 walked columns only flips words
        assert len(steps) == 14 and all(d == 0 for d, _ in steps)


def _full_recompute_column_walk(code: LinearCode) -> tuple[list[tuple[int, int]], list[int]]:
    """``radius._column_walk`` with every saving recomputed before each pop: the oracle of its seed choice."""
    cols = sorted(code.syndrome_columns, key=lambda c: (radius._gray_rank((c & 7) << 3 | (c >> 3) & 7), c))

    def cost(low: int, c: int) -> int:
        return sum(radius._step_cost(low, c))

    def saving(i: int) -> int:
        prev = cols[i - 1] if i else 0
        saved = cost(prev, cols[i])
        if i + 1 < len(cols):
            saved += cost(cols[i], cols[i + 1]) - cost(prev, cols[i + 1])
        return saved

    seeds = [cols.pop(max(range(len(cols)), key=saving)) for _ in range(max(code.n - code.k - 8, 0))]
    return [(c & 63, c >> 6) for c in cols], seeds


def _narrow_sense_bch_cases():
    """Every distinct narrow-sense BCH code of odd length n <= 127 with n - k <= 32 (76 of
    them), each built at the smallest delta that gives it; lengths whose ord_n(2) has no
    field table are left out."""
    codes = {}
    for n in range(3, 128, 2):
        try:
            multiplicative_order_of_two(n)
        except ValueError:
            continue
        for delta in range(2, n + 1):
            g = generator_polynomial(n, delta)
            if g.bit_length() - 1 > 32:  # n - k grows with delta
                break
            codes.setdefault((n, g), delta)
    return [pytest.param(bch_code(n, delta), id=f"bch{n}-{n + 1 - g.bit_length()}") for (n, g), delta in codes.items()]


@pytest.mark.parametrize("code", _narrow_sense_bch_cases()
                         + [pytest.param(_duplicate_column_code(), id="duplicates20-8")])
def test_column_walk_matches_full_recompute(code):
    # the same steps and seeds, in the same order
    assert radius._column_walk(code) == _full_recompute_column_walk(code)


def _seed_splits(code: LinearCode) -> list[list[int]]:
    """Seed sets J of max(n-k-8, 0) columns: none, the first unit columns, and a
    seeded random mix of unit, general and, where the code repeats one, duplicate columns."""
    nk = code.n - code.k
    j_max, cols, rng = max(nk - 8, 0), code.syndrome_columns, random.Random(2)
    units = [1 << j for j in range(nk)]
    general = [c for c in cols if c not in units]
    copies = [c for c in general if general.count(c) > 1][:2]
    mix = [rng.choice(units), rng.choice([c for c in general if c not in copies])] + copies
    rest = list(cols)
    for c in mix:
        rest.remove(c)
    return [[], units[:j_max], mix + rng.sample(rest, j_max - len(mix))]


@pytest.mark.parametrize("code", [p for p in _leader_cases() if p.id in ("random20-8", "duplicates20-8", "bch15-5")]
                         + [pytest.param(_pull_case(), id="pull20-6")])
def test_any_seed_set_gives_the_same_strata(monkeypatch, tmp_path, code):
    # reached_{w+1} = reached_w | P_{w+1} | the translates by the columns outside J
    # holds for every J, so the walk and J may split the columns any way at all
    counts, deepest = _brute_force_leader_profile(code)
    R = len(counts) - 1
    expected = radius.RadiusResult(R, counts, Word(deepest, code.n - code.k))
    splits = _seed_splits(code)
    # duplicates20-8 seeds two copies of one column
    assert (len(set(splits[2])) < len(splits[2])) == (len(set(code.syndrome_columns)) < code.n)
    for i, seeds in enumerate(splits):
        walked = list(code.syndrome_columns)
        for c in seeds:
            walked.remove(c)
        monkeypatch.setattr(radius, "_column_walk", lambda _: ([(c & 63, c >> 6) for c in walked], seeds))
        for jobs in (1, 3):
            assert covering_radius(code, jobs=jobs) == expected
        for cap in range(1, R):
            path = str(tmp_path / f"split{i}-cap{cap}.ckpt")
            with pytest.raises(WeightCapExceeded) as info:
                covering_radius(code, weight_cap=cap, jobs=3, checkpoint_path=path)
            assert info.value.counts_so_far == counts[: cap + 1]
            assert covering_radius(code, checkpoint_path=path) == expected


def test_seed_in_a_pulled_stratum(monkeypatch):
    # H = [A | I_16] where general column i is bits 2i and 2i+1, so the leader
    # weight of a syndrome is its number of nonzero bit pairs: C(8, w) 3^w
    # syndromes of weight w, and the deep holes have every pair nonzero, the
    # smallest one pair 01 each. Stratum 8 is pulled (2 * 6561 unreached <=
    # 17496 of weight 7). The engine's own J mixes unit and general columns;
    # with J the 8 general columns instead, syndrome 0xFFFF has one leader,
    # the XOR of all 8 seeds: every unit translate of it has weight 8, so the
    # pull misses it and only its seed sets it.
    code = LinearCode([1 << i | 3 << (8 + 2 * i) for i in range(8)], 24)
    assert len(radius._column_walk(code)[1]) == 8
    units, general = [1 << j for j in range(16)], [3 << 2 * i for i in range(8)]
    assert sorted(units + general) == sorted(code.syndrome_columns)
    for walk in (radius._column_walk, lambda _: ([(c & 63, c >> 6) for c in units], general)):
        monkeypatch.setattr(radius, "_column_walk", walk)
        for jobs in (1, 3):
            events = []
            result = covering_radius(code, jobs=jobs, on_event=events.append)
            assert result == radius.RadiusResult(8, tuple(math.comb(8, w) * 3**w for w in range(9)), Word(0x5555, 16))
            assert events[-1].path == "pull"


def test_radius_at_least_packing_radius():
    for n, delta in [(7, 3), (15, 5), (23, 5)]:
        code = bch_code(n, delta)
        d, _ = code.min_distance()
        result = covering_radius(code)
        assert result.covering_radius >= (d - 1) // 2


# ---------------------------------------------------------------------------
# perfect codes
# ---------------------------------------------------------------------------

def test_perfect_codes():
    def perfect(n: int, delta: int) -> bool:
        return classify(bch_code(n, delta), radius_result(n, delta)).is_perfect

    assert perfect(7, 3)  # Hamming
    assert perfect(23, 5)  # Golay
    assert not perfect(15, 5)  # t = 2, R = 3 (quasi-perfect)


# ---------------------------------------------------------------------------
# caps, guards, determinism, checkpoints
# ---------------------------------------------------------------------------

def test_weight_cap_exceeded_is_explicit():
    code, _ = build_bch(15, 5)
    with pytest.raises(WeightCapExceeded) as info:
        covering_radius(code, weight_cap=2)
    err = info.value
    assert err.weight_cap == 2
    assert err.counts_so_far == (1, 15, 105)
    assert sum(err.counts_so_far) == 121
    assert err.syndrome_total == 256
    assert "R > 2" in str(err)


def test_default_cap_never_triggers():
    code, _ = build_bch(15, 7)
    assert covering_radius(code).covering_radius == 5


def test_syndrome_space_guard():
    big = LinearCode([(1 << 40) - 1], 40)  # n - k = 39
    with pytest.raises(ValueError):
        covering_radius(big)


def test_determinism_across_jobs():
    results = []
    for jobs in (1, 4):
        code, _ = build_bch(31, 11)
        results.append(covering_radius(code, jobs=jobs))
    assert results[0] == results[1]


def test_no_pool_below_two_dense_blocks(monkeypatch):
    # [31,11] has 2^14 words, one dense block: jobs 4 runs on the calling
    # thread. [31,6] has 2^19 words, 8 blocks: jobs 3 gets 3 workers.
    pools = []

    class SpyPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(radius, "ThreadPoolExecutor", SpyPool)
    assert covering_radius(bch_code(31, 11), jobs=4) == radius_result(31, 11)
    assert pools == []
    assert covering_radius(bch_code(31, 15), jobs=3) == radius_result(31, 15)
    assert pools == [3]


def test_checkpoint_resume(tmp_path):
    path = str(tmp_path / "radius.ckpt")
    code, _ = build_bch(15, 5)
    with pytest.raises(WeightCapExceeded):
        covering_radius(code, weight_cap=2, checkpoint_path=path)
    resumed = covering_radius(code, checkpoint_path=path)
    fresh = covering_radius(build_bch(15, 5)[0])
    assert resumed == fresh


def test_checkpoint_rejects_other_code(tmp_path):
    path = str(tmp_path / "radius.ckpt")
    code, _ = build_bch(15, 5)
    covering_radius(code, checkpoint_path=path)
    other, _ = build_bch(15, 7)
    with pytest.raises(ValueError, match=re.escape(f"checkpoint {path}")):
        covering_radius(other, checkpoint_path=path)
    same_size = random_code(random.Random(1), 15, 7)  # n - k = 8 as in bch15-7, other columns
    with pytest.raises(ValueError, match=re.escape(f"checkpoint {path} belongs to a different code")):
        covering_radius(same_size, checkpoint_path=path)


def test_checkpoint_detects_corruption(tmp_path):
    path = str(tmp_path / "radius.ckpt")
    code, _ = build_bch(15, 5)
    covering_radius(code, checkpoint_path=path)
    raw = open(path, "rb").read()
    flipped = bytearray(raw)
    flipped[len(raw) // 2] ^= 0xFF
    for bad in (bytes(flipped), raw + b"\0"):  # a flipped bit; a byte past the digest
        open(path, "wb").write(bad)
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {path}")):
            covering_radius(build_bch(15, 5)[0], checkpoint_path=path)


class _Checkpoint(NamedTuple):
    version: int
    code_key: str
    weight: int
    counts: list[int]
    reached: np.ndarray


def _read_checkpoint(path) -> _Checkpoint:
    """Parse a format-4 checkpoint apart from the engine: a header line
    "bchcover-radius 4 <code key> <weight> <counts...>", the little-endian
    uint64 words of reached, then the 32-byte digest."""
    raw = open(path, "rb").read()
    head, rest = raw.split(b"\n", 1)
    magic, version, key, weight, *counts = head.decode().split(" ")
    assert magic == "bchcover-radius"
    reached = np.frombuffer(rest[:-32], dtype="<u8")
    return _Checkpoint(int(version), key, int(weight), [int(c) for c in counts], reached)


def _write_checkpoint(path, head: str, reached: np.ndarray) -> None:
    """A format-4 file with this header line and a valid digest."""
    signed = head.encode() + b"\n" + reached.astype("<u8").tobytes()
    open(path, "wb").write(signed + hashlib.sha256(signed).digest())


def _capped_checkpoint(tmp_path, n=31, delta=11, cap=3):
    path = str(tmp_path / "radius.ckpt")
    with pytest.raises(WeightCapExceeded):
        covering_radius(build_bch(n, delta)[0], weight_cap=cap, checkpoint_path=path)
    return path


def test_checkpoint_rejects_truncated_file(tmp_path):
    path = _capped_checkpoint(tmp_path)
    raw = open(path, "rb").read()
    for size in (0, 10, len(raw) // 2, len(raw) - 1):
        open(path, "wb").write(raw[:size])
        with pytest.raises(ValueError, match=re.escape(path)):
            covering_radius(build_bch(31, 11)[0], checkpoint_path=path)


def test_checkpoint_rejects_tampered_counts(tmp_path):
    path = _capped_checkpoint(tmp_path)
    ckpt = _read_checkpoint(path)
    head, rest = open(path, "rb").read().split(b"\n", 1)
    tampered = head.rsplit(b" ", 1)[0] + b" %d" % (ckpt.counts[-1] - 1)
    open(path, "wb").write(tampered + b"\n" + rest)  # the old words and the old digest
    with pytest.raises(ValueError, match="digest"):
        covering_radius(build_bch(31, 11)[0], checkpoint_path=path)


def test_checkpoint_rejects_old_table_format(tmp_path):
    path = str(tmp_path / "radius.npz")
    np.savez_compressed(
        path,
        table=np.zeros(1 << 8, dtype=np.uint8),
        counts=np.array([1], dtype=np.int64),
        weight=np.int64(0),
        code_key=np.bytes_(b"0" * 64),
        digest=np.bytes_(b"0" * 64),
    )
    raw = open(path, "rb").read()
    with pytest.raises(ValueError, match=re.escape(f"checkpoint {path} is an .npz checkpoint of format versions 1-3")):
        covering_radius(build_bch(15, 5)[0], checkpoint_path=path)
    assert open(path, "rb").read() == raw


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = str(tmp_path / "radius.npz")
    with open(path, "wb") as fh:
        np.save(fh, np.arange(4))  # a plain .npy array under an .npz name
    with pytest.raises(ValueError, match=re.escape(path)):
        covering_radius(build_bch(15, 5)[0], checkpoint_path=path)
    open(path, "w").write("not a checkpoint")
    with pytest.raises(ValueError, match=re.escape(path)):
        covering_radius(build_bch(15, 5)[0], checkpoint_path=path)


def _npz_checkpoint(tmp_path, version):
    """Rewrite a capped [31,11] checkpoint as the .npz archive of format version 2 or 3, digest included.

    Version 3 stored reached and the counts; version 2 also stored the last stratum as "frontier",
    and its digest covered it. Both digests were SHA-256 over "<version>,<code key>,<weight>,<strata>"
    and then the raw bytes of the arrays.
    """
    path = _capped_checkpoint(tmp_path, cap=2)
    before = _read_checkpoint(path).reached.copy()
    _capped_checkpoint(tmp_path, cap=3)
    ckpt = _read_checkpoint(path)
    fields = {
        "version": np.int64(version),
        "code_key": np.bytes_(ckpt.code_key.encode()),
        "weight": np.int64(ckpt.weight),
        "counts": np.array(ckpt.counts, dtype=np.int64),
        "reached": ckpt.reached.astype(np.uint64),
    }
    if version == 2:
        fields["frontier"] = fields["reached"] ^ before
    head = f"{version},{ckpt.code_key},{ckpt.weight},{len(ckpt.counts)}".encode()
    body = b"".join(fields[name].tobytes() for name in ("counts", "reached", "frontier") if name in fields)
    fields["digest"] = np.bytes_(hashlib.sha256(head + body).hexdigest().encode())
    with open(path, "wb") as fh:  # a file handle keeps numpy from adding ".npz" to the name
        np.savez(fh, **fields)
    return path


def test_checkpoint_refuses_version_2_file(tmp_path):
    path = _npz_checkpoint(tmp_path, 2)
    raw = open(path, "rb").read()
    with pytest.raises(ValueError, match=re.escape(f"checkpoint {path} is an .npz checkpoint of format versions 1-3")):
        covering_radius(build_bch(31, 11)[0], checkpoint_path=path)
    assert open(path, "rb").read() == raw


def test_checkpoint_refuses_version_3_file(tmp_path):
    path = _npz_checkpoint(tmp_path, 3)
    raw = open(path, "rb").read()
    with pytest.raises(ValueError, match=re.escape(f"checkpoint {path} is an .npz checkpoint of format versions 1-3")):
        covering_radius(build_bch(31, 11)[0], checkpoint_path=path)
    assert open(path, "rb").read() == raw


def test_checkpoint_holds_bitsets_not_a_table(tmp_path):
    path = _capped_checkpoint(tmp_path)
    raw = open(path, "rb").read()
    ckpt = _read_checkpoint(path)
    assert ckpt.version == 4 and ckpt.weight == 3 and len(ckpt.counts) == 4
    assert len(raw) == raw.index(b"\n") + 1 + 8 * (1 << (20 - 6)) + 32
    assert len(ckpt.reached) == 1 << (20 - 6)
    assert int(np.bitwise_count(ckpt.reached).sum()) == sum(ckpt.counts)


def test_checkpoint_digest_is_sha256_of_its_fields(tmp_path):
    # recomputed from the file alone: the last 32 bytes are the SHA-256 of every byte before them,
    # and the code key hashes n, k and H's columns
    path = _capped_checkpoint(tmp_path)
    code = build_bch(31, 11)[0]
    columns = b"".join(c.to_bytes(8, "little") for c in code.syndrome_columns)
    key = hashlib.sha256(f"{code.n},{code.k}".encode() + columns).hexdigest()
    raw = open(path, "rb").read()
    assert raw[-32:] == hashlib.sha256(raw[:-32]).digest()
    ckpt = _read_checkpoint(path)
    assert ckpt.version == 4 and ckpt.code_key == key


def test_checkpoint_refuses_complete_or_inconsistent_counts(tmp_path):
    # files with valid digests, so only the count check can refuse them
    code = build_bch(15, 7)[0]
    fresh = covering_radius(code)
    counts, R = fresh.coset_count_by_weight, fresh.covering_radius
    path = _capped_checkpoint(tmp_path, 15, 7, cap=R - 1)
    real = _read_checkpoint(path)
    full = np.full(1 << (10 - 6), ~np.uint64(0))
    cases = (
        (R, counts, full),  # all 2^(n-k) syndromes
        (R - 2, counts[:R], full),  # one count too many
        (real.weight, real.counts[:-1] + [real.counts[-1] - 1], real.reached),  # one syndrome short of reached
    )
    for weight, stored, reached in cases:
        _write_checkpoint(path, " ".join(map(str, ("bchcover-radius 4", real.code_key, weight, *stored))), reached)
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {path} has counts that fit no unfinished search")):
            covering_radius(code, checkpoint_path=path)
    # the same writer with the counts the search wrote: resumed, so only the counts were refused
    _write_checkpoint(path, " ".join(map(str, ("bchcover-radius 4", real.code_key, real.weight, *real.counts))),
                      real.reached)
    assert covering_radius(code, checkpoint_path=path) == fresh


def test_stale_temp_file_does_not_stop_a_capped_run(tmp_path):
    path = str(tmp_path / "radius.ckpt")
    open(path + ".tmp", "wb").write(b"PK\x03\x04 cut off mid-write" * 1000)
    code = build_bch(31, 11)[0]
    with pytest.raises(WeightCapExceeded):
        covering_radius(code, weight_cap=3, checkpoint_path=path)
    assert not os.path.exists(path + ".tmp") and _read_checkpoint(path).weight == 3
    assert covering_radius(code, checkpoint_path=path) == covering_radius(code)


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_must_be_positive(jobs):
    with pytest.raises(ValueError, match="jobs"):
        covering_radius(build_bch(15, 5)[0], jobs=jobs)


@pytest.mark.parametrize("cap", [-1, -2])
def test_negative_weight_cap_is_refused_before_any_checkpoint_is_read(tmp_path, monkeypatch, cap):
    path = str(tmp_path / "radius.ckpt")
    with pytest.raises(WeightCapExceeded):
        covering_radius(build_bch(15, 5)[0], weight_cap=2, checkpoint_path=path)
    monkeypatch.setattr(radius, "_load_checkpoint", lambda *args: pytest.fail("checkpoint read"))
    for checkpoint_path in (None, path):
        with pytest.raises(ValueError, match="weight_cap"):
            covering_radius(build_bch(15, 5)[0], weight_cap=cap, checkpoint_path=checkpoint_path)


def test_weight_cap_below_resumed_checkpoint(tmp_path):
    path = str(tmp_path / "radius.ckpt")
    with pytest.raises(WeightCapExceeded) as info:
        covering_radius(build_bch(31, 7)[0], weight_cap=4, checkpoint_path=path)
    assert info.value.counts_so_far == (1, 31, 465, 4495, 13020)
    for _ in range(2):  # the file stays at weight 4: a completed search keeps stratum R - 1
        with pytest.raises(WeightCapExceeded) as info:
            covering_radius(build_bch(31, 7)[0], weight_cap=2, checkpoint_path=path)
        err = info.value
        assert err.weight_cap == 2
        assert err.counts_so_far == (1, 31, 465)
        assert sum(err.counts_so_far) == 497
        assert "R > 2: only 497 of 32768" in str(err)
        result = covering_radius(build_bch(31, 7)[0], checkpoint_path=path)
        assert result.coset_count_by_weight == (1, 31, 465, 4495, 13020, 14756)


def test_stratum_events(tmp_path):
    code, _ = build_bch(15, 5)
    events = []
    result = covering_radius(code, on_event=events.append)
    assert [e.weight for e in events] == [1, 2, 3]
    assert [e.count for e in events] == list(result.coset_count_by_weight[1:])
    assert [e.cumulative for e in events] == [16, 121, 256]
    for e in events:
        assert isinstance(e, StratumEvent)
        assert e.path in ("sparse", "dense")
        assert e.seconds >= 0
        assert e.checkpoint_seconds == 0 and e.checkpoint_bytes == 0
    with pytest.raises(AttributeError):
        events[0].weight = 7  # frozen

    path = tmp_path / "radius.ckpt"
    with pytest.raises(WeightCapExceeded):
        covering_radius(code, weight_cap=1, checkpoint_path=str(path), on_event=events.append)
    assert events[-1].weight == 1 and events[-1].checkpoint_bytes == path.stat().st_size
    resumed = []
    covering_radius(code, checkpoint_path=str(path), on_event=resumed.append)
    assert [e.weight for e in resumed] == [2, 3]  # strata loaded from the file are not reported
    assert all(e.checkpoint_bytes > 0 and e.checkpoint_seconds > 0 for e in resumed[:-1])
    assert resumed[-1].checkpoint_bytes == 0 and resumed[-1].checkpoint_seconds == 0  # the last is not written
    assert resumed[-2].checkpoint_bytes == path.stat().st_size


@pytest.mark.parametrize("jobs", [1, 2])
def test_checkpoint_written_at_a_sparse_stratum_resumes(tmp_path, jobs):
    path = str(tmp_path / "radius.ckpt")
    fresh = covering_radius(build_bch(31, 11)[0])
    events = []
    with pytest.raises(WeightCapExceeded):
        covering_radius(build_bch(31, 11)[0], weight_cap=3, jobs=jobs, checkpoint_path=path,
                        on_event=events.append)
    assert [e.path for e in events] == ["sparse"] * 3
    resumed = []
    assert covering_radius(build_bch(31, 11)[0], jobs=jobs, checkpoint_path=path,
                           on_event=resumed.append) == fresh
    assert resumed[0].weight == 4 and {e.path for e in resumed} == {"sparse", "dense"}
