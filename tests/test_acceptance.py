"""Acceptance gate: every criterion of the build contract, at stated sizes.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion with its measured runtime. Every criterion runs, the two heavy
length-63 covering radius searches (2^24 and 2^27 syndromes) among them.
"""

import os
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bchcover.bch import build_bch
from bchcover.bounds import classify, johnson_binary_floor, johnson_general_floor, tau_wu
from bchcover.cli import main as cli_main
from bchcover.decode import list_decode, ml_decode
from bchcover.linear_code import Word
from bchcover.manifest import TABLE1
from bchcover.radius import covering_radius

from conftest import bch_code, codeword_table, covering_radius_oracle, radius_result, random_code

EXPECTED = Path(__file__).parent / "expected"


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(criterion: str, timer: Timer, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS in {timer.elapsed:.1f}s — {detail}")


# ---------------------------------------------------------------------------
# 1. table reproduction for n <= 31
# ---------------------------------------------------------------------------

def test_criterion_1_table_rows_up_to_31(capsys):
    with Timer() as timer:
        rows = [row for row in TABLE1 if row.n <= 31]
        assert len(rows) == 11  # every table row with n in {7, 15, 17, 23, 31}
        for row in rows:
            code = bch_code(row.n, row.delta)
            assert code.k == row.k, f"[{row.n},{row.k}] k"
            assert code.min_distance() == (row.d, "exact"), f"[{row.n},{row.k}] d"
            assert radius_result(row.n, row.delta).covering_radius == row.covering_radius, f"[{row.n},{row.k}] R"
            assert johnson_binary_floor(row.n, row.d) == row.tau_binary, f"[{row.n},{row.k}] tau"
        # the CLI check is the single source of truth for table fidelity
        assert cli_main(["table1", "--max-n", "31"]) == 0
        capsys.readouterr()
    report("1", timer, "all 11 rows with n <= 31 match (k, d, R, tau_binary) exactly")


# ---------------------------------------------------------------------------
# 2. length-63 rows; the heavy ones with checkpointing
# ---------------------------------------------------------------------------

def test_criterion_2_length_63_cheap_rows():
    with Timer() as timer:
        for delta, expected_r in ((3, 1), (5, 3), (7, 5)):
            code, _ = build_bch(63, delta)
            assert covering_radius(code).covering_radius == expected_r
    report("2", timer, "[63,57] R=1, [63,51] R=3, [63,45] R=5")


def _pinned_radius(n: int, delta: int) -> tuple[int, tuple[int, ...], str]:
    """(R, coset counts by weight, deepest syndrome text) from the pinned `bchcover radius` stdout."""
    lines = (EXPECTED / f"radius_n{n}_delta{delta}.txt").read_text().splitlines()
    assert lines[0].startswith("R = ") and lines[2] == "weight,cosets" and lines[-1].startswith("deepest_syndrome,")
    counts = tuple(int(line.split(",")[1]) for line in lines[3:-1])
    return int(lines[0].removeprefix("R = ")), counts, lines[-1].split(",")[1]


@pytest.mark.parametrize("delta,expected_r", [(9, 7), (11, 9)])
def test_criterion_2_length_63_long_rows(tmp_path, delta, expected_r):
    ckpt = str(tmp_path / f"bch63_{delta}.ckpt")
    with Timer() as timer:
        code, _ = build_bch(63, delta)
        result = covering_radius(code, checkpoint_path=ckpt)
        assert result.covering_radius == expected_r
        assert (result.covering_radius, result.coset_count_by_weight, str(result.deepest_syndrome)) == \
            _pinned_radius(63, delta)
        assert os.path.exists(ckpt)
        resumed = covering_radius(build_bch(63, delta)[0], checkpoint_path=ckpt)
        assert resumed == result
    report("2-long", timer, f"[63,{code.k}] R={expected_r}, pinned profile and deep hole, checkpoint resumable")


# ---------------------------------------------------------------------------
# 3. non-primitive lengths 17 and 23
# ---------------------------------------------------------------------------

def test_criterion_3_non_primitive_codes():
    with Timer() as timer:
        code17, _ = build_bch(17, 3)
        assert (code17.n, code17.k) == (17, 9)
        assert code17.min_distance() == (5, "exact")
        assert covering_radius(code17).covering_radius == 3
        code23, _ = build_bch(23, 5)
        assert (code23.n, code23.k) == (23, 12)
        assert code23.min_distance() == (7, "exact")
        assert covering_radius(code23).covering_radius == 3
    report("3", timer, "[17,9,5] R=3 and [23,12,7] R=3 reproduced")


# ---------------------------------------------------------------------------
# 4. Johnson bound columns and exhaustive dominance
# ---------------------------------------------------------------------------

def test_criterion_4_johnson_columns():
    with Timer() as timer:
        for row in TABLE1:
            assert johnson_binary_floor(row.n, row.d) == row.tau_binary
        for n in range(1, 129):
            for d in range(1, n // 2 + 1):
                assert johnson_binary_floor(n, d) >= johnson_general_floor(n, d)
    report("4", timer, "tau column matches on all 16 rows; binary >= general for n <= 128")


# ---------------------------------------------------------------------------
# 5. classification sets
# ---------------------------------------------------------------------------

def test_criterion_5_classification():
    with Timer() as timer:
        reports = {}
        for row in TABLE1:
            result = None if row.long_running else radius_result(row.n, row.delta)
            reports[(row.n, row.k, row.d)] = classify(bch_code(row.n, row.delta), result, comment=row.comment)

        expected_wu = {
            (15, 7, 5), (17, 9, 5), (23, 12, 7), (31, 11, 11),
            (31, 6, 15), (15, 5, 7), (7, 4, 3),
        }
        assert {key for key, r in reports.items() if r.wu_covered} == expected_wu

        expected_strict = {(23, 12, 7), (31, 6, 15), (7, 4, 3)}
        assert {key for key, r in reports.items() if r.strictly_covered} == expected_strict

        # both flags stay exposed: the d=3 perfect codes with tau = t = R = 1
        # satisfy the definitional predicate R <= tau_binary but gain nothing
        # from list decoding, so they are not counted above
        equality_hammings = {(15, 11, 3), (31, 26, 3), (63, 57, 3)}
        assert {key for key, r in reports.items() if r.is_a_covered} == expected_wu | equality_hammings

        expected_perfect = {(7, 4, 3), (15, 11, 3), (31, 26, 3), (63, 57, 3), (23, 12, 7)}
        assert {key for key, r in reports.items() if r.is_perfect} == expected_perfect
    report("5", timer, "Wu-covered set has exactly 7 codes; strict subset is the 3 quasi-quadratic candidates")


# ---------------------------------------------------------------------------
# 6. decoder oracle equivalence on every code with k <= 16
# ---------------------------------------------------------------------------

def test_criterion_6_decoding_oracle_equivalence():
    with Timer() as timer:
        small = [row for row in TABLE1 if row.k <= 16]
        assert len(small) == 9
        rng = random.Random(0xC0DE)
        for row in small:
            code = bch_code(row.n, row.delta)
            radius = radius_result(row.n, row.delta).covering_radius
            d, _ = code.min_distance()
            taus = sorted({(d - 1) // 2, radius, johnson_binary_floor(row.n, row.d)})
            cw = codeword_table(code, max_k=16)
            for _ in range(1000):
                v = rng.randrange(1 << row.n)
                dist = np.bitwise_count(cw ^ np.uint64(v))
                nearest = int(dist.min())
                got = ml_decode(code, Word(v, row.n))
                assert got.entries[0][1] == nearest
                assert {w.bits for w, _ in got.entries} == set(cw[dist == nearest].tolist())
                for tau in taus:
                    listed = {w.bits for w, _ in list_decode(code, Word(v, row.n), tau).entries}
                    assert listed == set(cw[dist <= tau].tolist())
    report("6", timer, "ml + list decoding match brute force on 9 codes x 1000 words x {t, R, tau_binary}")


# ---------------------------------------------------------------------------
# 7. covering radius engine vs definitional oracle
# ---------------------------------------------------------------------------

def test_criterion_7_radius_engine_vs_oracle():
    with Timer() as timer:
        for n, delta in ((7, 3), (15, 3), (15, 5)):
            code, _ = build_bch(n, delta)
            assert covering_radius(code).covering_radius == covering_radius_oracle(code)
        rng = random.Random(0xAB)
        for i in range(50):
            code = random_code(rng, 10, 3 + i % 5)
            assert covering_radius(code).covering_radius == covering_radius_oracle(code)
    report("7", timer, "engine equals brute-force definition on [7,4], [15,11], [15,7], 50 random [10,k]")


# ---------------------------------------------------------------------------
# 8. relaxed Wu radius
# ---------------------------------------------------------------------------

def test_criterion_8_wu_bound():
    with Timer() as timer:
        grid = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 10)]
        for row in TABLE1:
            t = (row.d - 1) // 2
            tau_b = johnson_binary_floor(row.n, row.d)
            assert tau_wu(row.n, row.d, 1) == (t, 1)
            taus = []
            for eps in grid:
                result = tau_wu(row.n, row.d, eps)
                assert result.multiplicity == eps.denominator // eps.numerator
                assert t <= result.tau <= tau_b
                taus.append(result.tau)
            assert taus == sorted(taus)  # non-increasing in epsilon
    report("8", timer, "tau_wu(1) = t, t <= tau_wu <= tau_binary, monotone over the epsilon grid")


# ---------------------------------------------------------------------------
# 9. job-count determinism of the radius command
# ---------------------------------------------------------------------------

def test_criterion_9_radius_output_deterministic(capsys):
    with Timer() as timer:
        outputs = []
        for jobs in ("1", "4", "8"):
            assert cli_main(["radius", "--n", "31", "--delta", "11", "--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].startswith("R = 7\n")
    report("9", timer, "radius output byte-identical for jobs in {1, 4, 8} on [31,11,11]")
