"""The three workloads: their inputs, one timed unit each, and output checks.

Every call into the program goes through a public entry point
(``bchcover.cli.main``, ``build_bch``, ``covering_radius``, ``ml_decode``,
``list_decode``), and every answer is checked against an expectation that
does not come from the code under test: a committed reference CSV, the
published coset profile of [63,39], a ``jobs=1`` run, or brute-force
codeword enumeration written here. A wrong or raised answer counts as one
failed operation and never stops the run.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from bchcover import TABLE1, LinearCode, Word, build_bch, list_decode, ml_decode
from bchcover import cli

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TABLE_ARGV = ("table1",)

DECODE_MAX_K = 16         # the 9 table codes whose 2^k codewords the oracle enumerates
DECODE_BLOCKS = 40        # queries per (code, cell); 9 codes x 6 cells x 40 = 2160 per pass
DECODE_WARMUP_BITS = 0b1011


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)
        return ok


def run_cli(argv: list[str]) -> tuple[int | None, str, str, float]:
    """``bchcover.cli.main(argv)`` in process: (exit code, stdout, stderr, seconds).

    A raised exception gives exit code None with the exception on stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc: int | None = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else None
    except Exception as exc:  # a crash is one failed operation, not a crashed benchmark
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    return rc, out.getvalue(), err.getvalue(), perf_counter() - start


# ----------------------------------------------------------------------
# table: `bchcover table1` with defaults
# ----------------------------------------------------------------------

def table_reference() -> str:
    return (REFERENCE_DIR / "table1.csv").read_text()


def table_unit(tally: Tally, expected: str, argv: tuple[str, ...] = TABLE_ARGV) -> float:
    rc, out, err, seconds = run_cli(list(argv))
    tally.check(rc == 0 and out == expected,
                f"{' '.join(argv)}: exit {rc}, stdout {'matches' if out == expected else 'differs'}; {err.strip()[:200]}")
    return seconds


# ----------------------------------------------------------------------
# radius-deep: capped, checkpointed search of bch63-39, then resume
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DeepSpec:
    """A code, the weight cap of the stopped run, and its coset counts by weight.

    The default is bch63-39 (n=63, delta=9): 2^24 syndromes, R = 7.
    """

    n: int = 63
    delta: int = 9
    cap: int = 5
    profile: tuple[int, ...] = (1, 63, 1953, 39711, 595665, 5629743, 10352769, 157311)

    def argv(self, jobs: int, checkpoint: Path | None = None, cap: int | None = None) -> list[str]:
        argv = ["radius", "--n", str(self.n), "--delta", str(self.delta), "--jobs", str(jobs)]
        if checkpoint is not None:
            argv += ["--checkpoint", str(checkpoint)]
        if cap is not None:
            argv += ["--weight-cap", str(cap)]
        return argv


def radius_profile(stdout: str) -> tuple[int, ...] | None:
    """Coset counts from `bchcover radius` output (the weight,cosets block)."""
    lines = stdout.splitlines()
    try:
        start = lines.index("weight,cosets") + 1
    except ValueError:
        return None
    counts = []
    for w, line in enumerate(lines[start:]):
        if line.startswith("deepest_syndrome,"):
            return tuple(counts)
        weight, _, count = line.partition(",")
        if weight != str(w) or not count.isdigit():
            return None
        counts.append(int(count))
    return None


def deep_unit(tally: Tally, spec: DeepSpec, checkpoint: Path, jobs: int) -> tuple[float, str]:
    """Stop at the weight cap (exit 1, `R > cap`), then resume from the checkpoint.

    Returns the seconds of both calls and the resumed stdout, which the
    caller compares with a ``jobs=1`` run; that comparison is this unit's
    last operation, so the resumed call is checked here for everything else.
    """
    for stale in (checkpoint, Path(f"{checkpoint}.tmp.npz")):
        stale.unlink(missing_ok=True)
    rc, out, err, capped_s = run_cli(spec.argv(jobs, checkpoint, spec.cap))
    tally.check(rc == 1 and out == "" and f"R > {spec.cap}" in err and checkpoint.exists(),
                f"capped radius: exit {rc}, checkpoint {'written' if checkpoint.exists() else 'missing'}; {err.strip()[:200]}")
    rc, out, err, resume_s = run_cli(spec.argv(jobs, checkpoint))
    profile = radius_profile(out)
    tally.check(rc == 0 and profile == spec.profile,
                f"resumed radius: exit {rc}, profile {profile}; {err.strip()[:200]}")
    return capped_s + resume_s, out


def deep_reference(tally: Tally, spec: DeepSpec) -> str:
    """The ``jobs=1`` run without checkpoint, itself checked against the profile."""
    rc, out, err, _ = run_cli(spec.argv(1))
    tally.check(rc == 0 and radius_profile(out) == spec.profile,
                f"jobs=1 radius: exit {rc}, profile {radius_profile(out)}; {err.strip()[:200]}")
    return out


def check_same_output(tally: Tally, outputs: list[str], reference: str) -> None:
    for out in outputs:
        tally.check(out == reference, "resumed radius stdout differs from the jobs=1 run")


# ----------------------------------------------------------------------
# decode: closed loop of ml_decode / list_decode queries
# ----------------------------------------------------------------------

@dataclass
class DecodeCode:
    name: str
    code: LinearCode
    t: int
    radius: int
    tau_binary: int


@dataclass(frozen=True)
class Query:
    code: int      # index into the code list
    mode: str      # "ml" (weight cap = R) or "list"
    tau: int
    bits: int


def decode_setup(max_k: int = DECODE_MAX_K) -> list[DecodeCode]:
    """Table codes with k <= max_k, each warmed up by one query per mode (builds lazy indexes).

    t, R and tau_binary come from the manifest rows, never from a radius search.
    """
    codes = []
    for row in TABLE1:
        if row.k <= max_k:
            code, _ = build_bch(row.n, row.delta)
            v = Word(DECODE_WARMUP_BITS & ((1 << row.n) - 1), row.n)
            ml_decode(code, v, weight_cap=row.covering_radius)
            list_decode(code, v, row.tau_binary)
            codes.append(DecodeCode(f"bch{row.n}-{row.k}", code, (row.d - 1) // 2,
                                    row.covering_radius, row.tau_binary))
    return codes


def make_stream(codes: list[DecodeCode], seed: int, blocks: int = DECODE_BLOCKS) -> list[Query]:
    """Seeded, shuffled queries: per code, half ML (cap R) and half list at t, R, tau_binary.

    In every (code, cell) half the words are uniform and half are a random
    codeword plus an error whose weight cycles through 0..tau_binary, so
    the mix of distances to the nearest codeword is the same for every seed.
    """
    rng = random.Random(seed)
    stream = []
    for ci, c in enumerate(codes):
        n, k = c.code.n, c.code.k
        cells = [("ml", c.radius)] * 3 + [("list", c.t), ("list", c.radius), ("list", c.tau_binary)]
        for mode, tau in cells:
            for b in range(blocks):
                if b % 2:
                    bits = rng.getrandbits(n)
                else:
                    weight = (b // 2) % (c.tau_binary + 1)
                    error = sum(1 << p for p in rng.sample(range(n), weight))
                    bits = c.code.codeword_int(rng.getrandbits(k)) ^ error
                stream.append(Query(ci, mode, tau, bits))
    rng.shuffle(stream)
    return stream


def decode_query(codes: list[DecodeCode], q: Query, strategy: str = "auto"):
    c = codes[q.code]
    v = Word(q.bits, c.code.n)
    if q.mode == "ml":
        return ml_decode(c.code, v, weight_cap=q.tau, strategy=strategy)
    return list_decode(c.code, v, q.tau, strategy=strategy)


def decode_unit(tally: Tally, codes: list[DecodeCode], stream: list[Query], oracle: DecodeOracle,
                span=None) -> tuple[float, int]:
    """One closed-loop pass (one client) over the stream: (seconds, entries returned).

    Answers are checked after the timed pass and then dropped, so memory
    does not grow with the number of passes. ``span`` (a Tracer.span)
    wraps each query when given.
    """
    answers = []
    start = perf_counter()
    for q in stream:
        with span(f"decode.{q.mode}_decode", code=codes[q.code].name) if span else contextlib.nullcontext():
            try:
                answers.append(decode_query(codes, q))
            except Exception as exc:  # counted as a failed operation by the oracle
                answers.append(exc)
    seconds = perf_counter() - start
    for q, a in zip(stream, answers):
        oracle.check(tally, q, a)
    return seconds, sum(len(a.entries) for a in answers if not isinstance(a, Exception))


class DecodeOracle:
    """Brute-force answers from every codeword, independent of the decoders."""

    def __init__(self, codes: list[DecodeCode]):
        self.codes = codes
        self.codewords = [self._all_codewords(c.code.generator_rows) for c in codes]
        self._memo: dict[Query, tuple] = {}

    @staticmethod
    def _all_codewords(rows: tuple[int, ...]) -> np.ndarray:
        cw = np.zeros(1 << len(rows), dtype=np.uint64)
        for i, row in enumerate(rows):
            cw[1 << i: 2 << i] = cw[: 1 << i] ^ np.uint64(row)
        return cw

    def expected(self, q: Query) -> tuple[tuple[tuple[int, int], ...], int]:
        """(entries as (codeword bits, distance) nearest first, radius_used)."""
        if q not in self._memo:
            n = self.codes[q.code].code.n
            cws = self.codewords[q.code]
            dist = np.bitwise_count(cws ^ np.uint64(q.bits))
            if q.mode == "ml":
                best = int(dist.min())
                keep, radius = (dist == best, best) if best <= q.tau else (np.zeros_like(dist, bool), q.tau)
            else:
                keep, radius = dist <= q.tau, q.tau
            entries = sorted(zip(cws[keep].tolist(), dist[keep].tolist()),
                             key=lambda e: (e[1], format(e[0], f"0{n}b")[::-1]))
            self._memo[q] = (tuple(entries), radius)
        return self._memo[q]

    def check(self, tally: Tally, q: Query, answer) -> bool:
        what = f"{q.mode} {self.codes[q.code].name} tau={q.tau} word=0x{q.bits:x}"
        if isinstance(answer, Exception):
            return tally.check(False, f"{what}: raised {type(answer).__name__}: {answer}")
        entries, radius = self.expected(q)
        got = tuple((w.bits, d) for w, d in answer.entries)
        return tally.check(got == entries and answer.radius_used == radius and answer.exhausted,
                           f"{what}: {len(got)} entries at radius {answer.radius_used}, "
                           f"expected {len(entries)} at {radius}")
