"""Self-test of the benchmark's own checks, on codes small enough to run in seconds.

    python3 perfbench/selftest.py

Each check runs once against its true expected value, where it must count
no failure, and once against a tampered copy, where it must count at least
one. Exits 1 if any case behaves otherwise.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from run import WORK, import_program

import_program()

import workloads as wl  # noqa: E402  (needs the program on sys.path first)

TINY_TABLE_ARGV = ("table1", "--max-n", "15")
TINY_DEEP = wl.DeepSpec(n=15, delta=5, cap=2, profile=(1, 15, 105, 135))


def failures(run) -> int:
    tally = wl.Tally()
    run(tally)
    return tally.failed


def table_case(tamper: bool):
    rows = wl.table_reference().splitlines(keepends=True)[:5]   # header and the n <= 15 rows
    if tamper:
        rows[4] = rows[4].replace(",5,4,5,", ",4,4,5,")         # R of [15,5] from 5 to 4
    return lambda tally: wl.table_unit(tally, "".join(rows), TINY_TABLE_ARGV)


def deep_case(tamper: str | None):
    spec = TINY_DEEP
    if tamper == "profile":
        spec = wl.DeepSpec(spec.n, spec.delta, spec.cap, (1, 15, 105, 134))

    def run(tally):
        WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            _, out = wl.deep_unit(tally, spec, Path(tmp) / "ckpt.npz", 2)
        reference = wl.deep_reference(tally, spec)
        if tamper == "jobs1-output":
            reference = reference.replace("deepest_syndrome,", "deepest_syndrome,1")
        wl.check_same_output(tally, [out], reference)
    return run


def decode_case(tamper: str | None):
    def run(tally):
        codes = wl.decode_setup(max_k=5)
        stream = wl.make_stream(codes, seed=7, blocks=4)
        oracle = wl.DecodeOracle(codes)
        if tamper == "radius":
            first, true_expected = stream[0], oracle.expected

            def tampered(q):
                entries, radius = true_expected(q)
                return entries, radius + (q == first)
            oracle.expected = tampered
        if tamper == "raised":   # tau > n: list_decode raises ValueError
            stream[0] = wl.Query(stream[0].code, "list", codes[stream[0].code].code.n + 1, stream[0].bits)
        wl.decode_unit(tally, codes, stream, oracle)
    return run


CASES = [
    ("table1 CSV", table_case(False), False),
    ("table1 CSV, one cell changed", table_case(True), True),
    ("radius cap/resume", deep_case(None), False),
    ("radius coset profile tampered", deep_case("profile"), True),
    ("radius jobs=1 output tampered", deep_case("jobs1-output"), True),
    ("decode vs brute force", decode_case(None), False),
    ("decode expected radius tampered", decode_case("radius"), True),
    ("decode answer raised", decode_case("raised"), True),
    ("unknown CLI command", lambda tally: wl.table_unit(tally, "", ("no-such-command",)), True),
]


def main() -> int:
    bad = 0
    for name, run, must_fail in CASES:
        failed = failures(run)
        ok = (failed > 0) == must_fail
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {failed} failed, expected {'> 0' if must_fail else '0'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
