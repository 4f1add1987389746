import itertools
import random
from math import comb

import numpy as np
import pytest

from bchcover import linear_code
from bchcover.bch import build_bch
from bchcover.linear_code import (
    LinearCode,
    Word,
    _krawtchouk_column,
    from_generator_poly,
    weight_distribution,
)
from bchcover.manifest import TABLE1

import conftest
from conftest import bch_code, codeword_table, min_nonzero_weight, random_code, ref_mod

HAMMING_G = 0b1011  # x^3 + x + 1


def hamming74() -> LinearCode:
    return from_generator_poly(HAMMING_G, 7)


# ---------------------------------------------------------------------------
# Word
# ---------------------------------------------------------------------------

def test_word_text_roundtrip():
    w = Word.from_text("1101000")
    assert w.bits == 0b0001011 and w.n == 7
    assert str(w) == "1101000"
    assert w.bits.bit_count() == 3


@pytest.mark.parametrize("n", [0, 1, 7, 31, 63, 64, 70])
def test_word_str_is_coordinate_order(n):
    rng = random.Random(n)
    for bits in {0, 1 % (1 << n), (1 << n) - 1, rng.randrange(1 << n)}:
        w = Word(bits, n)
        text = str(w)
        assert text == "".join("1" if (bits >> i) & 1 else "0" for i in range(n))
        if n:  # the empty string is not a word
            assert Word.from_text(text) == w


def test_word_hex_form():
    assert Word.from_text("0x0b", n=7) == Word.from_text("1101000")
    with pytest.raises(ValueError):
        Word.from_text("0x0b")  # hex needs a length


def test_word_validation():
    for bits, n in ((8, 3), (-1, 3), (1, 0), (0, -1), (1 << 63, 63)):
        with pytest.raises(ValueError, match="out of range"):
            Word(bits, n)
    with pytest.raises(ValueError, match="out of range"):
        Word.from_text("0x8", n=3)
    with pytest.raises(ValueError):
        Word.from_text("10201")
    with pytest.raises(ValueError):
        Word.from_text("101", n=4)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_hamming_from_generator_poly():
    code = hamming74()
    assert (code.n, code.k) == (7, 4)
    assert code.min_distance() == (3, "exact")


def test_trivial_whole_space_code():
    code = from_generator_poly(1, 5)
    assert (code.n, code.k) == (5, 5)
    assert code.min_distance() == (1, "exact")


def test_generator_must_divide_x_n_plus_1():
    with pytest.raises(ValueError, match=r"g = 0b101 does not divide x\^7 \+ 1"):
        from_generator_poly(0b101, 7)  # x^2 + 1 = (x+1)^2


def test_degenerate_generator_rejected():
    with pytest.raises(ValueError, match="deg g = 7 leaves k = 0"):
        from_generator_poly((1 << 7) | 1, 7)  # x^7 + 1 itself
    for g in (0, -0b1011):
        with pytest.raises(ValueError, match="positive bitmask"):
            from_generator_poly(g, 7)


def test_generator_divisibility_matches_reference_remainder():
    # every g of degree <= n up to n = 12: accepted exactly when an
    # independent remainder says g | x^n + 1 and deg g < n
    for n in range(1, 13):
        for g in range(1, 2 << n):
            deg = g.bit_length() - 1
            if ref_mod((1 << n) | 1, g):
                with pytest.raises(ValueError, match="does not divide"):
                    from_generator_poly(g, n)
            elif deg < n:
                assert from_generator_poly(g, n).k == n - deg
            else:
                with pytest.raises(ValueError, match="degenerate"):
                    from_generator_poly(g, n)


def test_dependent_rows_rejected():
    with pytest.raises(ValueError):
        LinearCode([0b011, 0b101, 0b110], 3)  # row3 = row1 ^ row2


def test_row_out_of_range_rejected():
    with pytest.raises(ValueError):
        LinearCode([0b1000], 3)


def ref_rank(rows, n):
    rows = [r for r in rows]
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, len(rows)) if (rows[i] >> col) & 1), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and (rows[i] >> col) & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


@pytest.mark.parametrize("maker", [
    hamming74,
    lambda: bch_code(15, 5),
    lambda: bch_code(17, 3),
    lambda: bch_code(23, 5),
    lambda: random_code(random.Random(7), 12, 5),
])
def test_parity_check_consistency(maker):
    code = maker()
    for g in code.generator_rows:
        for h in code.parity_rows:
            assert (g & h).bit_count() % 2 == 0
    assert ref_rank(list(code.generator_rows), code.n) == code.k
    assert ref_rank(list(code.parity_rows), code.n) == code.n - code.k
    for g in code.generator_rows:
        assert code.syndrome_int(g) == 0


# ---------------------------------------------------------------------------
# syndromes
# ---------------------------------------------------------------------------

def test_syndrome_of_codewords_is_zero():
    code = hamming74()
    for cw in codeword_table(code).tolist():
        assert code.syndrome_int(cw) == 0
    assert sum(code.syndrome_int(v) == 0 for v in range(1 << 7)) == 1 << code.k


def test_syndrome_of_zero_word():
    code = hamming74()
    assert code.syndrome_int(0) == 0


def test_syndrome_of_unit_vectors_reads_h_columns():
    code = hamming74()
    for i in range(code.n):
        s = code.syndrome_int(1 << i)
        assert s == code.syndrome_columns[i]
        assert s != 0  # d = 3: no zero column


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_hamming_weight_distribution():
    # independent enumeration: all message combinations, manual row XOR
    code = hamming74()
    dist = [0] * 8
    for msg in itertools.product((0, 1), repeat=4):
        cw = 0
        for bit, row in zip(msg, code.generator_rows):
            if bit:
                cw ^= row
        dist[cw.bit_count()] += 1
    assert dist == [1, 0, 0, 7, 7, 0, 0, 1]
    assert list(weight_distribution(code)) == dist  # k = 4 > n - k: from the dual by MacWilliams


def test_enumeration_edge_cases():
    zero_code = LinearCode([], 6)
    assert weight_distribution(zero_code) == (1, 0, 0, 0, 0, 0, 0)
    assert zero_code.min_distance() == (7, "exact")  # no nonzero codeword
    assert sum(weight_distribution(bch_code(15, 7))) == 32


def test_codeword_table_matches_enumeration():
    code = hamming74()
    assert codeword_table(code).tolist() == [code.codeword_int(m) for m in range(1 << code.k)]


# ---------------------------------------------------------------------------
# minimum distance
# ---------------------------------------------------------------------------

def test_min_distance_budget_fallback(monkeypatch):
    code = from_generator_poly(HAMMING_G, 7, designed_distance=3)
    with monkeypatch.context() as m:
        m.setattr(linear_code, "CODEWORD_BUDGET", 8)  # 2^4 > 8
        assert code.min_distance() == (3, "lower_bound")
    assert code.min_distance() == (3, "exact")


def test_min_distance_self_consistent_with_enumeration():
    for code in (hamming74(), bch_code(15, 5), bch_code(17, 3), bch_code(23, 5)):
        brute = int(np.bitwise_count(codeword_table(code)[1:]).min())
        assert code.min_distance() == (brute, "exact")


def test_min_distance_known_values():
    assert bch_code(17, 3).min_distance() == (5, "exact")
    assert bch_code(23, 5).min_distance() == (7, "exact")


def test_min_nonzero_weight_chunked_agrees(monkeypatch):
    rng = random.Random(11)
    code = random_code(rng, 18, 9)
    brute = min(code.codeword_int(m).bit_count() for m in range(1, 1 << code.k))
    assert min_nonzero_weight(code.generator_rows, code.n) == brute
    # chunked path (block smaller than k)
    monkeypatch.setattr(conftest, "_ORACLE_BLOCK_BITS", 4)
    assert min_nonzero_weight(code.generator_rows, code.n) == brute


@pytest.mark.parametrize("row", [r for r in TABLE1 if r.k <= 26], ids=lambda r: f"{r.n}-{r.k}")
def test_min_distance_matches_enumeration_on_table_rows(row):
    code = bch_code(row.n, row.delta)
    assert code.min_distance() == (min_nonzero_weight(code.generator_rows, code.n), "exact")


@pytest.mark.parametrize("n,k", [
    (12, 5), (14, 3), (12, 6), (16, 8), (12, 9), (18, 13), (10, 1), (1, 1), (9, 9), (13, 12),
])
def test_weight_distribution_matches_codeword_table(monkeypatch, n, k):
    rng = random.Random(1000 * n + k)
    for _ in range(3):
        code = random_code(rng, n, k)
        brute = np.bincount(np.bitwise_count(codeword_table(code)), minlength=n + 1)
        assert weight_distribution(code) == tuple(int(a) for a in brute)
        with monkeypatch.context() as m:
            m.setattr(linear_code, "_SPAN_BLOCK_BITS", 2)  # many blocks
            assert linear_code._span_weights(code.generator_rows, n) == brute.tolist()
        assert code.min_distance() == (min(i for i in range(1, n + 1) if brute[i]), "exact")


def test_krawtchouk_column_matches_definition():
    for n in range(1, 13):
        for j in range(n + 1):
            definition = [
                sum((-1) ** s * comb(j, s) * comb(n - j, i - s) for s in range(min(i, j) + 1))
                for i in range(n + 1)
            ]
            assert _krawtchouk_column(n, j) == definition


def test_min_distance_enumerates_the_smaller_of_code_and_dual(span_weight_calls):
    for delta, k in ((3, 26), (5, 21), (11, 11), (15, 6)):
        code = bch_code(31, delta)
        assert code.k == k
        code.min_distance()
        assert span_weight_calls.pop() == min(k, 31 - k)


def test_min_distance_leaves_the_code_unchanged(span_weight_calls):
    code, _ = build_bch(31, 11)
    before = dict(vars(code))
    assert code.min_distance() == (11, "exact")
    assert vars(code) == before
    assert code.min_distance() == (11, "exact")
    assert span_weight_calls == [11, 11]  # nothing kept: each call enumerates again


@pytest.mark.parametrize("delta", [3, 5, 7])
def test_length_63_engine_beyond_the_budget_gate(delta):
    code, _ = build_bch(63, delta)  # k = 57, 51, 45: duals of 2^6, 2^12, 2^18 words
    weights = weight_distribution(code)
    assert next(i for i in range(1, 64) if weights[i]) == delta
    if delta == 3:
        assert weights[3] == 63 * 62 // 6  # Hamming code: n(n-1)/6 words of weight 3
    assert code.min_distance() == (delta, "lower_bound")  # exactness still gated on 2^k


def simplex73() -> LinearCode:
    return LinearCode(list(hamming74().parity_rows), 7)


@pytest.mark.parametrize("maker,fake,check", [
    (hamming74, [1, 0, 0, 0, 0, 0, 0, 0], "not a multiple"),  # dual has only 0: A_1 = 7/8
    (simplex73, [1, 0, 0, 1, 0, 0, 0, 0], "sums to"),         # 2 words, not 2^3
    (simplex73, [2, 0, 0, 0, 6, 0, 0, 0], "A_0"),
])
def test_weight_distribution_self_checks_name_themselves(monkeypatch, maker, fake, check):
    code = maker()
    monkeypatch.setattr(linear_code, "_span_weights", lambda rows, n: list(fake))
    with pytest.raises(AssertionError, match=check):
        weight_distribution(code)


# ---------------------------------------------------------------------------
# cyclic structure
# ---------------------------------------------------------------------------

def cyclic_shift(bits: int, n: int) -> int:
    return ((bits << 1) | (bits >> (n - 1))) & ((1 << n) - 1)


@pytest.mark.parametrize(
    "n,delta",
    [(7, 3), (15, 3), (15, 5), (15, 7), (17, 3), (23, 5),
     (31, 3), (31, 5), (31, 7), (31, 11), (31, 15)],
)
def test_cyclic_shift_closure(n, delta):
    code = bch_code(n, delta)
    rng = random.Random(n * 100 + delta)
    samples = [rng.randrange(1 << code.k) for _ in range(64)]
    for msg in samples:
        cw = code.codeword_int(msg)
        assert code.syndrome_int(cyclic_shift(cw, n)) == 0


def test_codeword_table_guard():
    with pytest.raises(ValueError):
        codeword_table(random_code(random.Random(0), 30, 25))
