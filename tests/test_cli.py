from pathlib import Path

import numpy as np
import pytest

from bchcover.bounds import johnson_binary_floor, johnson_general_floor
from bchcover import cli
from bchcover.cli import main

EXPECTED = Path(__file__).parent / "expected"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def test_table1_single_row(capsys):
    code, out, err = run(capsys, "table1", "--max-n", "7")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,d,t,R,tau_general,tau_binary,perfect,a_covered,strict,comment"
    assert lines[1] == "7,4,3,1,1,1,2,true,true,true,Hamming"
    assert len(lines) == 2


def test_table1_up_to_31(capsys):
    code, out, err = run(capsys, "table1", "--max-n", "31")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 12  # header + the 11 rows with n <= 31
    assert "23,12,7,3,3,3,4,true,true,true,Wu-covered code" in lines
    assert "31,21,5,2,3,2,2,false,false,false," in lines


def test_table1_skips_heavy_rows_by_default(capsys):
    code, out, err = run(capsys, "table1", "--max-n", "63")
    assert code == 0
    assert out == (EXPECTED / "table1.csv").read_text()
    rows = {tuple(line.split(",")[:2]): line for line in out.strip().splitlines()[1:]}
    assert rows[("63", "45")].split(",")[4] == "5"        # cheap row computed
    assert rows[("63", "39")].split(",")[4] == "skipped"
    assert rows[("63", "36")].split(",")[4] == "skipped"
    assert "R unknown" in rows[("63", "36")]


def test_table1_long_running(capsys):
    code, out, err = run(capsys, "table1", "--long-running", "--jobs", "2")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[:15] == (EXPECTED / "table1.csv").read_text().splitlines()[:15]
    assert lines[15:] == [
        "63,39,9,4,7,4,4,false,false,false,d is a lower bound",
        "63,36,11,5,9,5,6,false,false,false,d is a lower bound",
    ]


# ---------------------------------------------------------------------------
# johnson
# ---------------------------------------------------------------------------

def test_johnson_integer_curve(capsys):
    code, out, _ = run(capsys, "johnson", "--n", "31")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,tau_general,tau_binary"
    assert len(lines) == 16  # d = 1 .. 15
    assert lines[1] == "1,0,0"
    for line in lines[1:]:
        d, tg, tb = map(int, line.split(","))
        assert tb >= tg


def test_johnson_normalized(capsys):
    code, out, _ = run(capsys, "johnson", "--n", "31", "--steps", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d_over_n,tau_general_over_n,tau_binary_over_n"
    assert 2 <= len(lines) - 1 <= 8


def test_johnson_steps_past_n_over_2_print_the_integer_rows_once(capsys):
    # 10**12 samples repeat the n // 2 = 15 values of d; only 15 are taken
    _, many, _ = run(capsys, "johnson", "--n", "31", "--steps", str(10**12))
    _, fifteen, _ = run(capsys, "johnson", "--n", "31", "--steps", "15")
    assert many == fifteen
    assert len(many.splitlines()) == 16


def _johnson_rows_sampled_every_step(n: int, steps: int) -> str:
    """``johnson --steps`` output from one sample per step, however many steps."""
    lines = ["d_over_n,tau_general_over_n,tau_binary_over_n"]
    seen = set()
    for i in range(steps):
        d = max(1, round(1 + (n // 2 - 1) * i / (steps - 1)))
        if d not in seen:
            seen.add(d)
            tg, tb = johnson_general_floor(n, d), johnson_binary_floor(n, d)
            lines.append(f"{d / n:.6f},{tg / n:.6f},{tb / n:.6f}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [2, 3, 7, 31, 63])
def test_johnson_steps_match_one_sample_per_step(capsys, n):
    for steps in range(2, 41):
        code, out, _ = run(capsys, "johnson", "--n", str(n), "--steps", str(steps))
        assert code == 0
        assert out == _johnson_rows_sampled_every_step(n, steps), steps


def test_johnson_rejects_single_step(capsys):
    code, _, err = run(capsys, "johnson", "--n", "31", "--steps", "1")
    assert code == 1
    assert "steps" in err


def test_an_internal_zero_division_is_not_reported_as_a_usage_error(monkeypatch):
    # every divisor on a CLI path is checked nonzero first, so one that is
    # zero is a bug and must surface, not exit 1 as a refused input
    def divide_by_zero(n):
        return 1 // 0

    monkeypatch.setattr(cli, "johnson_curve", divide_by_zero)
    with pytest.raises(ZeroDivisionError):
        main(["johnson", "--n", "7"])


@pytest.mark.parametrize("argv", [("--n", "0"), ("--n", "-3"), ("--n", "1", "--steps", "2")])
def test_johnson_rejects_n_below_2_before_any_output(capsys, argv):
    code, out, err = run(capsys, "johnson", *argv)
    assert (code, out) == (1, "")
    assert err == f"bchcover: error: need n >= 2, got {argv[1]}\n"


# ---------------------------------------------------------------------------
# radius
# ---------------------------------------------------------------------------

def test_radius_output(capsys):
    code, out, _ = run(capsys, "radius", "--n", "23", "--delta", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "R = 3"
    assert lines[1] == "code = BCH [23,12,7]"
    assert lines[2] == "weight,cosets"
    counts = [int(line.split(",")[1]) for line in lines[3:7]]
    assert sum(counts) == 1 << 11
    assert lines[7].startswith("deepest_syndrome,")


@pytest.mark.parametrize("n,delta,header", [
    (17, 3, "code = BCH [17,9,5]"),       # exact d, above the designed 3
    (63, 5, "code = BCH [63,51,d>=5]"),   # 2^51 codewords: the designed distance as a lower bound
], ids=["exact", "lower-bound"])
def test_radius_header_names_d(capsys, n, delta, header):
    code, out, _ = run(capsys, "radius", "--n", str(n), "--delta", str(delta))
    assert code == 0
    assert out.splitlines()[1] == header


def test_radius_weight_cap_error(capsys):
    code, _, err = run(capsys, "radius", "--n", "23", "--delta", "5", "--weight-cap", "2")
    assert code == 1
    assert "R > 2" in err


@pytest.mark.parametrize("checkpoint", [False, True])
def test_radius_rejects_a_negative_weight_cap(capsys, tmp_path, checkpoint):
    argv = ["radius", "--n", "15", "--delta", "5"]
    ckpt = tmp_path / "r.ckpt"
    if checkpoint:
        assert run(capsys, *argv, "--checkpoint", str(ckpt), "--weight-cap", "2")[0] == 1
        argv += ["--checkpoint", str(ckpt)]
    code, out, err = run(capsys, *argv, "--weight-cap", "-2")
    assert (code, out) == (1, "")
    assert err.startswith("bchcover: error:") and "weight_cap" in err


def test_radius_checkpoint_roundtrip(capsys, tmp_path):
    ckpt = str(tmp_path / "r.ckpt")
    first = run(capsys, "radius", "--n", "17", "--delta", "3", "--checkpoint", ckpt)
    assert first[0] == 0
    assert (tmp_path / "r.ckpt").exists()
    second = run(capsys, "radius", "--n", "17", "--delta", "3", "--checkpoint", ckpt)
    assert second == first


def test_radius_refuses_an_npz_checkpoint(capsys, tmp_path):
    ckpt = tmp_path / "r.ckpt"
    with open(ckpt, "wb") as fh:
        np.savez(fh, reached=np.zeros(4, dtype=np.uint64))  # the container of format versions 1-3
    raw = ckpt.read_bytes()
    code, out, err = run(capsys, "radius", "--n", "17", "--delta", "3", "--checkpoint", str(ckpt))
    assert (code, out) == (1, "")
    assert err.startswith(f"bchcover: error: checkpoint {ckpt} is an .npz checkpoint of format versions 1-3")
    assert ckpt.read_bytes() == raw


def test_radius_reports_an_unwritable_checkpoint(capsys, tmp_path):
    ckpt = str(tmp_path / "missing" / "r.ckpt")  # written after stratum 1, through r.ckpt.tmp
    code, out, err = run(capsys, "radius", "--n", "15", "--delta", "5", "--checkpoint", ckpt)
    assert (code, out) == (1, "")
    assert err.startswith("bchcover: error:") and err.count("\n") == 1 and ckpt in err


def test_radius_reports_a_checkpoint_that_is_a_directory(capsys, tmp_path):
    code, out, err = run(capsys, "radius", "--n", "15", "--delta", "5", "--checkpoint", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("bchcover: error:") and err.count("\n") == 1 and str(tmp_path) in err


def test_radius_jobs_do_not_change_output(capsys):
    baseline = run(capsys, "radius", "--n", "17", "--delta", "3")
    for jobs in ("2", "5"):
        assert run(capsys, "radius", "--n", "17", "--delta", "3", "--jobs", jobs) == baseline


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_radius_rejects_nonpositive_jobs(capsys, jobs):
    code, out, err = run(capsys, "radius", "--n", "15", "--delta", "5", "--jobs", jobs)
    assert code == 1 and out == ""
    assert err.startswith("bchcover: error:") and "jobs" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_table1_rejects_nonpositive_jobs_before_any_output(capsys, jobs):
    code, out, err = run(capsys, "table1", "--max-n", "7", "--jobs", jobs)
    assert (code, out) == (1, "")
    assert err == f"bchcover: error: jobs must be at least 1, got {jobs}\n"


# Full `bchcover radius` stdout recorded with earlier engines: the uint8
# first-seen table, and for [63,39] the bitset search that translated every
# column of H; the search must reproduce it byte for byte.
PINNED = [(31, 11, 5), (63, 7, 3), (31, 15, 9), (31, 15, 3), (63, 9, 5)]  # n, delta, a weight cap below R


@pytest.mark.parametrize("n,delta,cap", PINNED)
def test_radius_output_pinned_across_jobs_and_resume(capsys, tmp_path, n, delta, cap):
    expected = (EXPECTED / f"radius_n{n}_delta{delta}.txt").read_text()
    argv = ["radius", "--n", str(n), "--delta", str(delta)]
    for jobs in ("1", "2", "5"):
        assert run(capsys, *argv, "--jobs", jobs) == (0, expected, "")
    ckpt = str(tmp_path / "r.ckpt")
    code, out, err = run(capsys, *argv, "--jobs", "2", "--checkpoint", ckpt, "--weight-cap", str(cap))
    assert code == 1 and out == "" and f"R > {cap}" in err
    assert run(capsys, *argv, "--checkpoint", ckpt) == (0, expected, "")


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_output(capsys):
    code, out, _ = run(capsys, "classify", "--n", "31", "--delta", "11")
    assert code == 0
    lines = out.strip().splitlines()
    assert "R = 7" in lines
    assert "tau_binary = 7" in lines
    assert "a_covered = true" in lines
    assert "wu_covered = true" in lines
    assert "strictly_covered = false" in lines
    assert "comment = Wu-covered code" in lines


# The README example (exact d) and a length-63 row whose d is the designed
# distance, reported as a lower bound.
@pytest.mark.parametrize("n,delta", [(23, 5), (63, 5)])
def test_classify_output_pinned(capsys, n, delta):
    expected = (EXPECTED / f"classify_n{n}_delta{delta}.txt").read_text()
    assert run(capsys, "classify", "--n", str(n), "--delta", str(delta)) == (0, expected, "")


def test_classify_golay(capsys):
    code, out, _ = run(capsys, "classify", "--n", "23", "--delta", "5")
    assert code == 0
    assert "perfect = true" in out
    assert "strictly_covered = true" in out


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

def test_decode_ml_on_codeword(capsys):
    code, out, _ = run(capsys, "decode", "--n", "7", "--delta", "3",
                       "--word", "1101000", "--mode", "ml")
    assert code == 0
    lines = out.strip().splitlines()
    assert "radius_used = 0" in lines
    assert lines[-1] == "1101000,0"


def test_decode_list_mode(capsys):
    code, out, _ = run(capsys, "decode", "--n", "7", "--delta", "3",
                       "--word", "1101001", "--mode", "list", "--tau", "3")
    assert code == 0
    body = out.strip().splitlines()
    entries = body[body.index("codeword,distance") + 1:]
    assert len(entries) >= 1
    assert all(int(e.split(",")[1]) <= 3 for e in entries)


def test_decode_bounded_mode(capsys):
    code, out, _ = run(capsys, "decode", "--n", "15", "--delta", "5",
                       "--word", "0" * 14 + "1", "--mode", "bounded")
    assert code == 0
    assert "radius_used = 2" in out


def test_decode_bounded_needs_exact_distance(capsys):
    # [63,51]: 2^51 codewords are over the budget, so d is only a lower bound
    code, out, err = run(capsys, "decode", "--n", "63", "--delta", "5", "--word", "0x0", "--mode", "bounded")
    assert (code, out) == (1, "")
    assert err == "bchcover: error: bounded decoding needs the exact minimum distance\n"


def test_decode_hex_word(capsys):
    plain = run(capsys, "decode", "--n", "7", "--delta", "3", "--word", "1101000", "--mode", "ml")
    hexed = run(capsys, "decode", "--n", "7", "--delta", "3", "--word", "0x0b", "--mode", "ml")
    assert plain == hexed


# [31,6]: rho = 16 < n - k = 25, so ML and list read one of 512 needle groups
DECODE_PIN_WORD = "1100100100001111110110101010001"


@pytest.mark.parametrize("mode,extra,pin", [
    ("ml", (), "decode_n31_delta15_ml.txt"),
    ("list", ("--tau", "12"), "decode_n31_delta15_list_tau12.txt"),
])
def test_decode_output_pinned_on_31_6(capsys, mode, extra, pin):
    expected = (EXPECTED / pin).read_text()
    argv = ("decode", "--n", "31", "--delta", "15", "--word", DECODE_PIN_WORD, "--mode", mode, *extra)
    assert run(capsys, *argv) == (0, expected, "")


# [31,16]: a lookup table of two rows; this word's ML segment joins 45,638 pairs, past
# _WEIGH_ALL_MAX, so ML first narrows it; ML and list both find two codewords at distance 4
DECODE_PIN_WORD_31_16 = "0111000010010000001101000011100"


@pytest.mark.parametrize("mode,extra,pin", [
    ("ml", (), "decode_n31_delta7_ml.txt"),
    ("list", ("--tau", "4"), "decode_n31_delta7_list_tau4.txt"),
])
def test_decode_output_pinned_on_31_16(capsys, mode, extra, pin):
    expected = (EXPECTED / pin).read_text()
    argv = ("decode", "--n", "31", "--delta", "7", "--word", DECODE_PIN_WORD_31_16, "--mode", mode, *extra)
    assert run(capsys, *argv) == (0, expected, "")


# [63,45]: a weight-5 leader of the deepest syndrome, decoded by the scan (n > 40)
DEEP_HOLE_63_45 = "000000000000000000000000000000000000000000000111011000000000000"


def test_decode_output_pinned_at_the_deep_hole_of_63_45(capsys):
    expected = (EXPECTED / "decode_n63_delta7_ml.txt").read_text()
    argv = ("decode", "--n", "63", "--delta", "7", "--word", DEEP_HOLE_63_45, "--mode", "ml")
    assert run(capsys, *argv) == (0, expected, "")


@pytest.mark.parametrize("mode", ["ml", "bounded"])
def test_decode_refuses_tau_outside_list_mode(capsys, mode):
    code, out, err = run(capsys, "decode", "--n", "15", "--delta", "5",
                         "--word", "0" * 15, "--mode", mode, "--tau", "1")
    assert (code, out) == (1, "")
    assert err.startswith("bchcover: error:") and "--tau" in err


def test_decode_rejects_out_of_range_hex_word(capsys):
    code, out, err = run(capsys, "decode", "--n", "7", "--delta", "3", "--word", "0x80", "--mode", "ml")
    assert (code, out) == (1, "")
    assert "out of range for length 7" in err


def test_decode_list_requires_tau(capsys):
    code, _, err = run(capsys, "decode", "--n", "7", "--delta", "3",
                       "--word", "1101000", "--mode", "list")
    assert code == 1
    assert "--tau" in err


def test_decode_rejects_bad_word(capsys):
    code, _, err = run(capsys, "decode", "--n", "7", "--delta", "3",
                       "--word", "110100", "--mode", "ml")
    assert code == 1
    assert "length" in err


def test_error_exit_on_even_length(capsys):
    code, _, err = run(capsys, "radius", "--n", "16", "--delta", "3")
    assert code == 1
    assert "odd" in err


def test_error_exit_past_64_bit_words(capsys):
    # [127,15]: 2^15 codewords fit the budget, but a length-127 word does not
    # fit a uint64, so d is only a lower bound; bounded mode needs the exact d
    code, out, err = run(capsys, "decode", "--n", "127", "--delta", "55", "--word", "0x0", "--mode", "bounded")
    assert (code, out) == (1, "")
    assert err == "bchcover: error: bounded decoding needs the exact minimum distance\n"


# a seeded random [127,15] word, hex(random.Random(127).getrandbits(127)):
# its nearest codeword is far past the scan's limit, which ML reaches at w = 5
SCAN_GUARD_WORD = "0x4a4db8189fb81994e990bf360b6951b3"


def test_decode_ml_refuses_a_scan_past_its_limit(capsys):
    code, out, err = run(capsys, "decode", "--n", "127", "--delta", "55", "--word", SCAN_GUARD_WORD, "--mode", "ml")
    assert (code, out) == (1, "")
    assert err.startswith("bchcover: error: scan of [127,15] refused at w = 5:")
    assert "_SCAN_MAX_PREFIXES = 1048576" in err


def test_classify_refuses_a_syndrome_space_past_32_bits(capsys):
    # [127,15]: the radius search, which classify runs first, needs n - k <= 32
    code, out, err = run(capsys, "classify", "--n", "127", "--delta", "55")
    assert code == 1 and out == ""
    assert err.startswith("bchcover: error:") and "n - k <= 32" in err


# ml and list mode on [31,16], and list mode on [127,15], whose d cannot be
# computed on 64-bit words
@pytest.mark.parametrize("n,delta,mode,extra", [
    (31, 7, "ml", ()),
    (31, 7, "list", ("--tau", "3")),
    (127, 55, "list", ("--tau", "1")),
])
def test_decode_computes_no_distance(capsys, span_weight_calls, n, delta, mode, extra):
    argv = ("decode", "--n", str(n), "--delta", str(delta), "--word", "0x0", "--mode", mode, *extra)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[-2:] == ["codeword,distance", "0" * n + ",0"]
    assert span_weight_calls == []


def test_radius_past_64_bit_words_without_exact_d(capsys):
    # [127,113]: 2^113 codewords are over the budget, so d stays the designed
    # distance and the 2^14-syndrome search runs as usual
    code, out, err = run(capsys, "radius", "--n", "127", "--delta", "5")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:2] == ["R = 3", "code = BCH [127,113,d>=5]"]
    assert lines[3:7] == ["0,1", "1,127", "2,8001", "3,8255"]
