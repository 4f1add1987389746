import gc
import random
import weakref

import numpy as np
import pytest

from bchcover import decode
from bchcover.bch import build_bch
from bchcover.bounds import classify, johnson_binary_floor
from bchcover.decode import _split_index, list_decode, ml_decode
from bchcover.linear_code import LinearCode, Word, _rref, _xor_rows
from bchcover.manifest import TABLE1
from bchcover.radius import covering_radius

from conftest import bch_code, codeword_table, radius_result, random_code, span_table, word_with_syndrome


def brute_force_within(code, v: Word, tau: int) -> set[int]:
    """Oracle: scan every codeword through the generator side."""
    cw = codeword_table(code, max_k=code.k)
    dist = np.bitwise_count(cw ^ np.uint64(v.bits))
    return set(cw[dist <= tau].tolist())


def brute_force_nearest(code, v: Word) -> int:
    cw = codeword_table(code, max_k=code.k)
    return int(np.bitwise_count(cw ^ np.uint64(v.bits)).min())


# ---------------------------------------------------------------------------
# list decoding
# ---------------------------------------------------------------------------

def test_codeword_at_tau_zero():
    code = bch_code(7, 3)
    v = Word(code.codeword_int(0b1010), 7)
    result = list_decode(code, v, 0)
    assert result.entries == ((v, 0),)
    assert result.radius_used == 0 and result.exhausted


def test_hamming_single_error_unique():
    code = bch_code(7, 3)
    c = Word(code.codeword_int(0b0110), 7)
    for i in range(7):
        v = Word(c.bits ^ (1 << i), 7)
        result = list_decode(code, v, 1)
        assert result.entries == ((c, 1),)


def test_golay_matches_brute_force():
    code = bch_code(23, 5)
    rng = random.Random(2023)
    for _ in range(40):
        v = Word(rng.randrange(1 << 23), 23)
        got = {w.bits for w, _ in list_decode(code, v, 4).entries}
        assert got == brute_force_within(code, v, 4)


@pytest.mark.parametrize("tau_pair", [(0, 1), (1, 2), (2, 3), (3, 4)])
def test_monotone_in_tau(tau_pair):
    code = bch_code(15, 5)
    rng = random.Random(55)
    t1, t2 = tau_pair
    for _ in range(25):
        v = Word(rng.randrange(1 << 15), 15)
        small = {w for w, _ in list_decode(code, v, t1).entries}
        assert small <= {w for w, _ in list_decode(code, v, t2).entries}


def test_strategies_agree():
    rng = random.Random(99)
    for n, delta, words in [(23, 5, 5), (31, 7, 3)]:
        code = bch_code(n, delta)
        d, _ = code.min_distance()
        taus = sorted({(d - 1) // 2, radius_result(n, delta).covering_radius, johnson_binary_floor(n, d)})
        for _ in range(words):
            v = Word(rng.randrange(1 << n), n)
            for tau in taus:
                scan = list_decode(code, v, tau, strategy="scan")
                split = list_decode(code, v, tau, strategy="split")
                assert scan == split
            assert ml_decode(code, v, strategy="scan") == ml_decode(code, v, strategy="split")


def test_split_at_full_radius_31_11_matches_codeword_oracle():
    # tau = R = 7: split joins needle parts up to weight 7, checked against
    # the distances to all 2^11 codewords
    code = bch_code(31, 11)
    tau = radius_result(31, 11).covering_radius
    assert tau == 7
    cw = codeword_table(code)
    rng = random.Random(100)
    for _ in range(5):
        bits = rng.randrange(1 << 31)
        dist = np.bitwise_count(cw ^ np.uint64(bits))
        keep = dist <= tau
        result = list_decode(code, Word(bits, 31), tau, strategy="split")
        assert {w.bits: d for w, d in result.entries} == dict(zip(cw[keep].tolist(), dist[keep].tolist()))


def test_strategies_agree_at_weight_7_on_23_12():
    # the scan walks every prefix of weight <= 6, 1.5e5 of them, with one
    # lookup of the last coordinate each
    code = bch_code(23, 5)
    v = Word(random.Random(100).randrange(1 << 23), 23)
    scan = list_decode(code, v, 7, strategy="scan")
    assert scan == list_decode(code, v, 7, strategy="split")
    assert max(dist for _, dist in scan.entries) == 7


def test_result_ordering_and_dedup():
    code = bch_code(15, 5)
    rng = random.Random(7)
    for _ in range(20):
        v = Word(rng.randrange(1 << 15), 15)
        result = list_decode(code, v, 5)
        keys = [(dist, str(w)) for w, dist in result.entries]
        assert keys == sorted(keys)
        assert len({w.bits for w, _ in result.entries}) == len(result.entries)
        assert all(dist <= result.radius_used for _, dist in result.entries)
        assert result.exhausted


def test_result_words_equal_checked_words():
    # decoders build their entries without Word's range check; they must be the same values
    code = bch_code(31, 11)
    rng = random.Random(3111)
    for _ in range(20):
        for w, dist in list_decode(code, Word(rng.getrandbits(31), 31), 6).entries:
            checked = Word(w.bits, w.n)
            assert type(w) is Word and w == checked and hash(w) == hash(checked)
            assert (repr(w), w.bits.bit_count(), w.n) == (repr(checked), checked.bits.bit_count(), 31)
            assert code.syndrome_int(w.bits) == 0 and 0 <= w.bits < 1 << 31 and dist <= 6


def test_list_decode_validation():
    code = bch_code(7, 3)
    with pytest.raises(ValueError):
        list_decode(code, Word.from_text("110100"), 1)
    with pytest.raises(ValueError):
        list_decode(code, Word(0, 7), 8)
    with pytest.raises(ValueError):
        list_decode(code, Word(0, 7), 1, strategy="nonsense")
    with pytest.raises(ValueError):
        list_decode(build_bch(63, 5)[0], Word(0, 63), 2, strategy="split")


def test_list_decode_every_tau_matches_brute_force():
    # every tau crosses every split of the weight classes: [15,5] has a
    # lookup side of 8 coordinates and a needle side of 7, the random
    # [13,5] sides of 7 and 6; the [11,4] code has one weight-2 codeword
    # on the lookup side (coordinates 0-5) and the other on the needle
    # side (6-10), so lookup masks share syndromes and one needle weight
    # class holds repeated syndromes
    rng = random.Random(1315)
    repeated = LinearCode([0b00000000011, 0b00101000000, 0b10110101100, 0b01011010110], 11)
    for code in (bch_code(15, 7), random_code(rng, 13, 5), repeated):
        cw = codeword_table(code, max_k=code.k)
        words = [rng.randrange(1 << code.n) for _ in range(6)] + [int(cw[1]), int(cw[-1]) ^ 0b101]
        for bits in words:
            dist = np.bitwise_count(cw ^ np.uint64(bits))
            for tau in range(code.n + 1):
                result = list_decode(code, Word(bits, code.n), tau, strategy="split")
                keep = dist <= tau
                expected = dict(zip(cw[keep].tolist(), dist[keep].tolist()))
                assert {w.bits: d for w, d in result.entries} == expected
                assert len(result.entries) == len(expected)


def test_scan_matches_codeword_oracle_on_every_syndrome():
    # ML and list at every tau up to n, on a word of every syndrome. The [10,4]
    # code holds e_0, so column 0 of H is zero and e_0 matches syndrome 0 at
    # weight 1. The [11,4] code has d = 2, so H has equal columns, and a pattern
    # is found once only if its last coordinate comes after its prefix.
    rng = random.Random(1004)
    zero_column = LinearCode([0b0000000001, 0b0001101110, 0b0110110100, 0b1011011000], 10)
    repeated = LinearCode([0b00000000011, 0b00101000000, 0b10110101100, 0b01011010110], 11)
    assert zero_column.syndrome_columns[0] == 0
    assert len(set(repeated.syndrome_columns)) < repeated.n
    for code in (zero_column, repeated):
        cw = codeword_table(code, max_k=code.k)
        for syndrome in range(1 << (code.n - code.k)):
            bits = word_with_syndrome(code, syndrome).bits ^ int(cw[rng.randrange(len(cw))])
            v = Word(bits, code.n)
            dist = np.bitwise_count(cw ^ np.uint64(bits))
            nearest = int(dist.min())
            for tau in range(code.n + 1):
                result = list_decode(code, v, tau, strategy="scan")
                keep = dist <= tau
                assert {w.bits: d for w, d in result.entries} == dict(zip(cw[keep].tolist(), dist[keep].tolist()))
                assert len(result.entries) == np.count_nonzero(keep)
                result = ml_decode(code, v, weight_cap=tau, strategy="scan")
                assert result.radius_used == min(tau, nearest) and result.exhausted
                expected = set(cw[dist == nearest].tolist()) if nearest <= tau else set()
                assert {w.bits for w, _ in result.entries} == expected
    # a codeword (target 0) at tau 0 is its own only match
    c = Word(repeated.generator_rows[2], repeated.n)
    assert list_decode(repeated, c, 0, strategy="scan").entries == ((c, 0),)
    assert ml_decode(repeated, c, weight_cap=0, strategy="scan").entries == ((c, 0),)


def test_list_and_ml_past_64_bit_words():
    # [127,15]: the weight distribution cannot run on 127-bit words, and the
    # decoders never need it, so the code builds and decodes like any other
    code, _ = build_bch(127, 55)
    assert code.k == 15
    c = Word(code.codeword_int(0b101100111000101), 127)
    v = Word(c.bits ^ (1 << 100), 127)
    assert list_decode(code, v, 1).entries == ((c, 1),)
    assert ml_decode(code, v).entries == ((c, 1),)


# ---------------------------------------------------------------------------
# the split index
# ---------------------------------------------------------------------------

def test_split_index_invariants():
    # lookup-side kernel dimension nr - rho and rho per code: 0, 1 and 4 all
    # occur, and bch31-6 has rho = 16 < n - k = 25
    expected = {(31, 15): (0, 16), (31, 7): (1, 15), (15, 3): (4, 4)}
    shift = decode._WEIGHT_SHIFT
    field = np.uint64((1 << shift) - 1)
    codes = [bch_code(row.n, row.delta) for row in TABLE1 if row.n <= 31]
    codes.append(random_code(random.Random(808), 21, 12))
    seen = {}
    for code in codes:
        index = _split_index(code)
        nr, rho = index.nr, index.rho
        assert nr == code.n - code.n // 2 and rho <= code.n - code.k
        seen[code.n, code.designed_distance] = (nr - rho, rho)
        # H' is orthogonal to every generator row and has rank n - k: it defines the code
        h_rows = [sum(((c >> j) & 1) << i for i, c in enumerate(index.columns))
                  for j in range(code.n - code.k)]
        assert all((g & h).bit_count() % 2 == 0 for g in code.generator_rows for h in h_rows)
        assert len(_rref(h_rows, code.n)[1]) == code.n - code.k
        # every lookup mask once, 2^(nr - rho) of them in the column of each syndrome, each
        # entry packing its mask below _WEIGHT_SHIFT and the mask's weight from it up
        assert index.lookup.shape == (1 << (nr - rho), 1 << rho)
        lookup_mask, lookup_weight = index.lookup & field, index.lookup >> shift
        assert np.array_equal(np.sort(lookup_mask, axis=None), np.arange(1 << nr, dtype=np.uint64))
        lookup_synd = span_table(index.columns[:nr])[lookup_mask]
        assert np.array_equal(lookup_synd, np.broadcast_to(np.arange(1 << rho), lookup_synd.shape))
        assert np.array_equal(lookup_weight, np.bitwise_count(lookup_mask))
        assert index.lightest.dtype == np.uint8
        assert np.array_equal(index.lightest, lookup_weight.min(axis=0))
        # the rows of H' past rho have unit-vector pivot columns on the needle side
        assert all((1 << j) in index.columns[nr:] for j in range(rho, code.n - code.k))
        # needle side: every mask once, in 2^(n-k-rho) groups of equal size; group g holds
        # the parts whose H'-syndrome >> rho is g, with their H'-syndromes mod 2^rho, by
        # weight; upto[g][w] bounds the parts of weight <= w
        needle_mask, needle_weight = index.needle & field, index.needle >> shift
        needle = needle_mask >> np.uint64(nr)
        assert np.array_equal(needle << np.uint64(nr), needle_mask)
        assert np.array_equal(np.sort(needle), np.arange(1 << index.nl, dtype=np.uint64))
        assert np.array_equal(needle_weight, np.bitwise_count(needle))
        groups = 1 << (code.n - code.k - rho)
        assert index.group_size * groups == 1 << index.nl
        assert len(index.upto) == groups and all(len(row) == index.nl + 1 for row in index.upto)
        synd = span_table(index.columns[nr:])[needle]
        group_of = np.repeat(np.arange(groups, dtype=np.uint64), index.group_size)
        assert np.array_equal(synd >> np.uint64(rho), group_of)
        assert np.array_equal(synd & np.uint64((1 << rho) - 1), index.needle_col.astype(np.uint64))
        for g in range(groups):
            weight = needle_weight[g * index.group_size: (g + 1) * index.group_size]
            assert np.all(np.diff(weight.astype(int)) >= 0)
            assert index.upto[g] == [np.count_nonzero(weight <= w) for w in range(index.nl + 1)]
    for key, value in expected.items():
        assert seen[key] == value
    assert {kernel for kernel, _ in seen.values()} >= {0, 1, 4}


def test_split_ml_work_is_bounded_by_a_coset_pattern(monkeypatch):
    # each lookup column of the [31,26] Hamming code holds 2^11 masks; with
    # the default cap n, ML must still cut its segment at needle weight <= 2
    code = bch_code(31, 3)
    index = _split_index(code)
    joined = []
    segment = index._segment
    monkeypatch.setattr(index, "_segment", lambda s, wmax: joined.append(wmax) or segment(s, wmax))
    rng = random.Random(31)
    for _ in range(50):
        result = ml_decode(code, Word(rng.getrandbits(31), 31))
        assert len(result.entries) == 1 and result.radius_used <= 1  # perfect, R = 1
    assert len(joined) == 50 and max(joined) <= 2


def test_split_ml_on_every_word_of_15_11():
    code = bch_code(15, 3)
    cw = codeword_table(code, max_k=code.k)
    for bits in range(1 << code.n):
        dist = np.bitwise_count(cw ^ np.uint64(bits))
        nearest = int(dist.min())
        result = ml_decode(code, Word(bits, code.n), strategy="split")
        assert result.radius_used == nearest == result.entries[0][1]
        assert {w.bits for w, _ in result.entries} == set(cw[dist == nearest].tolist())


def test_split_ml_and_list_on_every_word_of_15_5():
    # [15,5]: rho = 8 < n - k = 10, so the needle side has 4 groups of 32 parts
    code = bch_code(15, 7)
    index = _split_index(code)
    assert (index.rho, len(index.upto), index.group_size) == (8, 4, 32)
    cw = codeword_table(code, max_k=code.k)
    for bits in range(1 << code.n):
        dist = np.bitwise_count(cw ^ np.uint64(bits))
        nearest = int(dist.min())
        v = Word(bits, code.n)
        result = ml_decode(code, v, strategy="split")
        assert result.radius_used == nearest == result.entries[0][1]
        assert {w.bits for w, _ in result.entries} == set(cw[dist == nearest].tolist())
        tau = 3 + bits % 3  # t = 3, R = 5 and 4 in between
        result = list_decode(code, v, tau, strategy="split")
        keep = dist <= tau
        assert {w.bits: d for w, d in result.entries} == dict(zip(cw[keep].tolist(), dist[keep].tolist()))


@pytest.mark.parametrize("weigh_all_max", [0, 1 << 40])
def test_split_ml_narrowing_matches_brute_force(monkeypatch, weigh_all_max):
    # 0 first weighs every part with its column's lightest mask and joins only the parts
    # that reach the least weight; 2^40 joins every part with its whole column
    monkeypatch.setattr(decode, "_WEIGH_ALL_MAX", weigh_all_max)
    rng = random.Random(2012)
    for code in (bch_code(15, 3), bch_code(17, 3), bch_code(31, 7), random_code(rng, 20, 12)):
        assert _split_index(code).lookup.shape[0] > 1
        cw = codeword_table(code, max_k=code.k)
        for _ in range(60):
            bits = rng.getrandbits(code.n)
            dist = np.bitwise_count(cw ^ np.uint64(bits))
            nearest = int(dist.min())
            for cap in sorted({max(nearest - 1, 0), nearest, code.n}):
                result = ml_decode(code, Word(bits, code.n), weight_cap=cap, strategy="split")
                assert result.radius_used == min(cap, nearest) and result.exhausted
                if cap < nearest:
                    assert result.entries == ()
                else:
                    assert {w.bits for w, _ in result.entries} == set(cw[dist == nearest].tolist())


@pytest.mark.parametrize("parts_per_block", [1, 3])
@pytest.mark.parametrize("weigh_all_max", [0, 1 << 40])
def test_split_joins_in_blocks_match_brute_force(monkeypatch, weigh_all_max, parts_per_block):
    # join matrices of one or three needle parts each: list decoding gathers the patterns of
    # every block, and ML meets blocks of lighter joins after heavier ones
    monkeypatch.setattr(decode, "_WEIGH_ALL_MAX", weigh_all_max)
    rng = random.Random(2129)
    for code, words in ((bch_code(15, 3), 20), (bch_code(15, 7), 20), (random_code(rng, 20, 12), 20),
                        (bch_code(31, 7), 3)):
        monkeypatch.setattr(decode, "_JOIN_BLOCK_PAIRS", len(_split_index(code).lookup) * parts_per_block)
        cw = codeword_table(code, max_k=code.k)
        for _ in range(words):
            bits = rng.getrandbits(code.n)
            v = Word(bits, code.n)
            dist = np.bitwise_count(cw ^ np.uint64(bits))
            nearest = int(dist.min())
            for cap in sorted({max(nearest - 1, 0), nearest, code.n}):
                result = ml_decode(code, v, weight_cap=cap, strategy="split")
                expected = set(cw[dist == nearest].tolist()) if cap >= nearest else set()
                assert result.radius_used == min(cap, nearest)
                assert {w.bits for w, _ in result.entries} == expected
            for tau in range(min(code.n, 5) + 1):
                keep = dist <= tau
                result = list_decode(code, v, tau, strategy="split")
                assert {w.bits: d for w, d in result.entries} == dict(zip(cw[keep].tolist(), dist[keep].tolist()))


def test_split_at_the_packing_limit():
    # an index entry holds its mask below bit _WEIGHT_SHIFT and its weight in the 6 bits from it:
    # masks of n <= _SPLIT_MAX_N = 40 bits fit below, and so does the largest weight a join
    # compares with, tau + 1 = 2 * 20 + 1
    assert decode._SPLIT_MAX_N <= decode._WEIGHT_SHIFT
    assert 2 * 20 + 1 < 1 << (64 - decode._WEIGHT_SHIFT)
    rng = random.Random(4016)
    code = random_code(rng, decode._SPLIT_MAX_N, 16)
    n = code.n
    cw = codeword_table(code)
    words = [rng.getrandbits(n) for _ in range(24)]
    words += [int(cw[rng.randrange(len(cw))]) ^ sum(1 << p for p in rng.sample(range(n), w)) for w in range(8)]
    for bits in words:
        dist = np.bitwise_count(cw ^ np.uint64(bits))
        nearest = int(dist.min())
        result = ml_decode(code, Word(bits, n))  # weight cap n
        assert result.radius_used == nearest
        assert {w.bits: d for w, d in result.entries} == dict.fromkeys(cw[dist == nearest].tolist(), nearest)
        tau = nearest + 2
        keep = dist <= tau
        result = list_decode(code, Word(bits, n), tau)
        assert {w.bits: d for w, d in result.entries} == dict(zip(cw[keep].tolist(), dist[keep].tolist()))
    # a list query joins at most its whole group with every lookup mask, 2^k pairs, so with k = 16
    # the largest tau under _SPLIT_MAX_PAIRS is n: every codeword comes back, with its distance
    index = _split_index(code)
    for bits in words[:2]:
        s = index.syndrome(bits)
        fits = [tau for tau in range(n + 1)
                if len(index._segment(s, tau)[1]) * len(index.lookup) <= decode._SPLIT_MAX_PAIRS]
        assert max(fits) == n
        dist = np.bitwise_count(cw ^ np.uint64(bits))
        result = list_decode(code, Word(bits, n), n)
        assert len(result.entries) == 1 << code.k
        assert {w.bits: d for w, d in result.entries} == dict(zip(cw.tolist(), dist.tolist()))


@pytest.mark.parametrize("n,delta", [(7, 3), (17, 3), (23, 5), (31, 11), (40, None)])
def test_split_syndrome_from_byte_tables(n, delta):
    # one table read per byte of the word; the last byte is partial below n = 40
    rng = random.Random(800 + n)
    code = bch_code(n, delta) if delta else random_code(rng, n, 16)
    index = _split_index(code)
    assert len(index.byte_syndromes) == -(-n // 8)
    words = [1 << i for i in range(n)] + [rng.getrandbits(n) for _ in range(200)] + [(1 << n) - 1]
    for bits in words:
        assert index.syndrome(bits) == _xor_rows(index.columns, bits)


# ---------------------------------------------------------------------------
# maximum-likelihood decoding
# ---------------------------------------------------------------------------

def test_ml_identity_on_codewords():
    code = bch_code(15, 5)
    for msg in (0, 1, 77, 127):
        v = Word(code.codeword_int(msg), 15)
        result = ml_decode(code, v)
        assert result.entries == ((v, 0),)


def test_ml_at_a_deep_hole():
    code = bch_code(15, 5)
    deep = covering_radius(code).deepest_syndrome
    v = word_with_syndrome(code, deep.bits)
    result = ml_decode(code, v)
    assert result.radius_used == 3  # R for this code
    assert result.entries[0][1] == 3 == brute_force_nearest(code, v)


def test_ml_matches_brute_force():
    rng = random.Random(314)
    for n, delta in [(7, 3), (15, 5), (17, 3), (23, 5)]:
        code = bch_code(n, delta)
        for _ in range(100):
            v = Word(rng.randrange(1 << n), n)
            result = ml_decode(code, v)
            expected = brute_force_nearest(code, v)
            assert result.entries[0][1] == expected
            assert {w.bits for w, _ in result.entries} == brute_force_within(code, v, expected)


def test_ml_on_perfect_code_always_unique():
    code = bch_code(7, 3)
    for bits in range(1 << 7):
        result = ml_decode(code, Word(bits, 7))
        assert len(result.entries) == 1
        assert result.entries[0][1] <= 1


def test_ml_reports_ties():
    repetition = LinearCode([0b1111], 4)
    result = ml_decode(repetition, Word.from_text("0011"))
    assert [(str(w), dist) for w, dist in result.entries] == [("0000", 2), ("1111", 2)]


@pytest.mark.parametrize("row", [row for row in TABLE1 if not row.long_running], ids=lambda row: f"{row.n}-{row.k}")
def test_ml_at_the_deepest_syndrome_has_weight_r(row):
    # Certifies R >= claimed by decoding: the word whose support is the unit
    # columns of H that sum to the deepest syndrome has no codeword nearer
    # than R. Length 63 runs the scan, [63,45] in under a second. [63,39] and
    # [63,36] are out of its reach: about 7.6e7 prefixes at [63,39]'s R = 7.
    code = bch_code(row.n, row.delta)
    deepest = radius_result(row.n, row.delta).deepest_syndrome.bits
    unit = {col: i for i, col in enumerate(code.syndrome_columns) if col.bit_count() == 1}
    bits = sum(1 << unit[1 << j] for j in range(code.n - code.k) if deepest >> j & 1)
    result = ml_decode(code, Word(bits, code.n))
    assert result.strategy == ("split" if row.n <= 31 else "scan")
    assert result.radius_used == row.covering_radius
    assert result.entries and {dist for _, dist in result.entries} == {row.covering_radius}


def test_ml_respects_weight_cap():
    code = bch_code(15, 5)
    deep = covering_radius(code).deepest_syndrome
    v = word_with_syndrome(code, deep.bits)  # distance 3 from the code
    result = ml_decode(code, v, weight_cap=2)
    assert result.entries == ()
    assert result.radius_used == 2 and result.exhausted


def test_split_ml_below_leader_weight_is_empty():
    for n, delta in [(15, 7), (23, 5), (31, 11)]:
        code = bch_code(n, delta)
        v = word_with_syndrome(code, covering_radius(code).deepest_syndrome.bits)
        leader = brute_force_nearest(code, v)
        for cap in range(leader):
            result = ml_decode(code, v, weight_cap=cap, strategy="split")
            assert result.entries == ()
            assert result.radius_used == cap and result.exhausted
        result = ml_decode(code, v, weight_cap=leader, strategy="split")
        assert result.radius_used == leader == result.entries[0][1]
        assert {w.bits for w, _ in result.entries} == brute_force_within(code, v, leader)


def test_ml_matches_brute_force_on_every_word_of_an_odd_length_code():
    code = random_code(random.Random(713), 13, 5)
    cw = codeword_table(code, max_k=code.k)
    for bits in range(1 << code.n):
        dist = np.bitwise_count(cw ^ np.uint64(bits))
        nearest = int(dist.min())
        result = ml_decode(code, Word(bits, code.n))
        assert result.radius_used == nearest == result.entries[0][1]
        assert {w.bits for w, _ in result.entries} == set(cw[dist == nearest].tolist())


def test_ml_with_unknown_radius_leaves_the_code_untouched():
    code, _ = build_bch(23, 5)  # fresh: no radius search has run on it
    before = dict(vars(code))
    cw = codeword_table(code, max_k=code.k)
    rng = random.Random(2305)
    for _ in range(100):
        bits = rng.randrange(1 << 23)
        dist = np.bitwise_count(cw ^ np.uint64(bits))
        nearest = int(dist.min())
        result = ml_decode(code, Word(bits, 23))
        assert result.radius_used == nearest == result.entries[0][1]
        assert {w.bits for w, _ in result.entries} == set(cw[dist == nearest].tolist())
    assert vars(code) == before


def test_split_index_does_not_keep_the_code_alive():
    code, _ = build_bch(15, 5)
    list_decode(code, Word(0, 15), 2, strategy="split")
    ref = weakref.ref(code)
    del code
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("cap", [-2, -1, 16])
@pytest.mark.parametrize("strategy", ["auto", "scan", "split"])
def test_ml_weight_cap_validation(cap, strategy):
    with pytest.raises(ValueError, match="weight_cap"):
        ml_decode(bch_code(15, 5), Word(0, 15), weight_cap=cap, strategy=strategy)


def test_ml_split_refuses_long_codes():
    code, _ = build_bch(63, 5)
    with pytest.raises(ValueError, match="split index too large"):
        ml_decode(code, Word(0, 63), strategy="split")


def test_scan_refuses_list_decoding_past_its_limit():
    # [63,51]: weights 1-5 walk 637,393 prefixes, weight 6 another C(63, 5), so
    # list decoding at tau 10 is refused before its walk; ML, which stops at
    # its first match, still decodes a word at distance 1 with the cap n
    code = bch_code(63, 5)
    v = Word(1, 63)
    with pytest.raises(ValueError, match=r"scan of \[63,51\] refused at w = 6: .* _SCAN_MAX_PREFIXES = 1048576"):
        list_decode(code, v, 10)
    assert ml_decode(code, v).entries == ((Word(0, 63), 1),)


def test_split_refuses_list_decoding_past_its_pair_limit(monkeypatch):
    # [15,11] at tau 15 joins all 128 needle parts with the 16 lookup masks of
    # their columns: 2,048 pairs, refused under a limit of 2^10 and listed at 2^11
    code = bch_code(15, 3)
    v = Word(0b101, 15)
    monkeypatch.setattr(decode, "_SPLIT_MAX_PAIRS", 1 << 10)
    with pytest.raises(ValueError, match=r"refused at tau = 15: it would join 2048 pairs, .* _SPLIT_MAX_PAIRS = 1024"):
        list_decode(code, v, 15)
    monkeypatch.setattr(decode, "_SPLIT_MAX_PAIRS", 1 << 11)
    assert list_decode(code, v, 15) == list_decode(code, v, 15, strategy="scan")


def test_result_reports_strategy():
    for row in TABLE1:
        if row.n > 31:
            continue
        code = bch_code(row.n, row.delta)
        v = Word(code.codeword_int(1) ^ 1, row.n)
        assert ml_decode(code, v).strategy == "split"
        assert list_decode(code, v, row.tau_binary).strategy == "split"
        assert ml_decode(code, v, strategy="scan").strategy == "scan"
    code = bch_code(63, 7)  # [63,45]
    v = Word(code.codeword_int(1) ^ 1, 63)
    assert ml_decode(code, v).strategy == "scan"
    assert list_decode(code, v, 1).strategy == "scan"


def test_ml_termination_within_binary_johnson_on_covered_codes():
    rng = random.Random(1618)
    for n, delta in [(15, 5), (17, 3), (23, 5), (31, 11)]:
        code = bch_code(n, delta)
        d, _ = code.min_distance()
        tau_b = johnson_binary_floor(n, d)
        for _ in range(200):
            v = Word(rng.randrange(1 << n), n)
            assert ml_decode(code, v).radius_used <= tau_b


# ---------------------------------------------------------------------------
# the A-covered flag, witnessed both ways: covered means R <= tau_binary, so
# list decoding at tau_binary finds every ML answer; an uncovered row has a
# word, its deep hole, that the list at tau_binary misses
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("row", [row for row in TABLE1 if row.covering_radius <= row.tau_binary],
                         ids=lambda row: f"{row.n}-{row.k}")
def test_a_covered_rows_list_at_tau_binary_holds_the_ml_answer(row):
    code = bch_code(row.n, row.delta)
    report = classify(code, radius_result(row.n, row.delta))
    assert report.is_a_covered and report.tau_binary == row.tau_binary
    rng = random.Random(row.n * 64 + row.k)
    for i in range(20):
        if i % 2:  # a codeword plus at most R errors
            bits = code.codeword_int(rng.getrandbits(code.k))
            for j in rng.sample(range(row.n), rng.randint(0, row.covering_radius)):
                bits ^= 1 << j
        else:  # uniform
            bits = rng.getrandbits(row.n)
        v = Word(bits, row.n)
        listed = list_decode(code, v, row.tau_binary).entries
        assert listed
        nearest = tuple(entry for entry in listed if entry[1] == listed[0][1])
        assert ml_decode(code, v).entries == nearest


# [63,39] and [63,36] are left out: ML at R = 7 and 9 is past the scan's limit
@pytest.mark.parametrize("row", [row for row in TABLE1 if row.covering_radius > row.tau_binary and not row.long_running],
                         ids=lambda row: f"{row.n}-{row.k}")
def test_uncovered_rows_deep_hole_escapes_the_list_at_tau_binary(row):
    code = bch_code(row.n, row.delta)
    result = radius_result(row.n, row.delta)
    report = classify(code, result)
    assert not report.is_a_covered and report.tau_binary == row.tau_binary
    v = word_with_syndrome(code, result.deepest_syndrome.bits)
    assert list_decode(code, v, row.tau_binary).entries == ()
    ml = ml_decode(code, v)
    assert ml.radius_used == row.covering_radius and ml.entries


# ---------------------------------------------------------------------------
# bounded decoding: list decoding at the packing radius t = floor((d-1)/2)
# ---------------------------------------------------------------------------

def packing_radius(code: LinearCode) -> int:
    d, exactness = code.min_distance()
    assert exactness == "exact"
    return (d - 1) // 2


def test_bounded_corrects_up_to_t():
    code = bch_code(15, 5)
    t = packing_radius(code)
    assert t == 2
    rng = random.Random(41)
    for _ in range(50):
        c = Word(code.codeword_int(rng.randrange(1 << 7)), 15)
        i, j = rng.sample(range(15), 2)
        v = Word(c.bits ^ (1 << i) ^ (1 << j), 15)
        result = list_decode(code, v, t)
        assert result.entries == ((c, 2),)


def test_bounded_empty_beyond_packing_radius():
    code = bch_code(15, 5)
    deep = covering_radius(code).deepest_syndrome
    v = word_with_syndrome(code, deep.bits)  # leader weight 3 = t + 1
    assert list_decode(code, v, packing_radius(code)).entries == ()


@pytest.mark.parametrize("n,delta,samples", [(15, 5, 10_000), (17, 3, 10_000), (23, 5, 2_000), (31, 11, 2_000)])
def test_bounded_uniqueness(n, delta, samples):
    code = bch_code(n, delta)
    t = packing_radius(code)
    rng = random.Random(n)
    for _ in range(samples):
        v = Word(rng.randrange(1 << n), n)
        assert len(list_decode(code, v, t).entries) <= 1
