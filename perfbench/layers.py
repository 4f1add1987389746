"""Per-layer metrics for the traced run.

Three probes fill the sheet; a traced run of any workload runs all three,
so every per-layer metric is present whichever workload was asked for:

  table    one traced `bchcover table1`: gf2m, bch, linear_code, bounds,
           cli self time, and the radius search of bch31-6, bch31-11 and
           bch63-45 (the plain single-threaded engine).
  strata   bch63-39 searched one weight stratum at a time with a
           checkpoint, each stratum then reloaded at the same cap; plus
           plain searches at jobs=1 and jobs=nproc for the checkpoint tax
           and the thread speed-up.
  decode   one traced pass of the decode stream (per-code and overall
           latencies, entries returned), forced scan/split list decoding
           on a small sample, and the lazy split-index build time.
"""

from __future__ import annotations

import statistics
from math import comb
from pathlib import Path
from time import perf_counter

from bchcover import WeightCapExceeded, Word, build_bch, covering_radius, list_decode

import workloads as wl
from tracing import Tracer, duration, patched_layers, self_time

SEARCH_CODES = ("bch31-6", "bch31-11", "bch63-45")
STRATA = range(1, len(wl.DeepSpec().profile))
SCAN_SAMPLE = 5              # words per code for the forced-strategy comparison
SCAN_MAX_PATTERNS = 1 << 16  # forced scan only where sum_{w<=tau} C(n,w) stays below this


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank p-th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * p // 100) - 1)]


def _total_ms(tracer: Tracer, name: str) -> float:
    return 1e3 * sum(duration(s) for s in tracer.named(name))


# ----------------------------------------------------------------------
# table
# ----------------------------------------------------------------------

def traced_table(tally: wl.Tally, tracer: Tracer, expected: str) -> float:
    with patched_layers(tracer), tracer.span("cli.table1"):
        return wl.table_unit(tally, expected)


def table_sheet(tracer: Tracer) -> dict[str, tuple[float, str]]:
    root = tracer.named("cli.table1")[-1]
    computed = [s for s in tracer.named("linear_code.min_distance")
                if tracer.spans[s["parent"]]["name"] == "bch.build_bch" and s.get("exact")]
    m = {
        "gf2m.make_field_ms": (_total_ms(tracer, "gf2m.make_field"), "ms"),
        "bch.generator_poly_ms": (_total_ms(tracer, "bch.generator_polynomial"), "ms"),
        "linear_code.construct_ms": (_total_ms(tracer, "linear_code.from_generator_poly"), "ms"),
        "linear_code.min_distance_s": (_total_ms(tracer, "linear_code.min_distance") / 1e3, "s"),
        "linear_code.codewords_enumerated": (sum(1 << int(s["code"].split("-")[1]) for s in computed), "count"),
        "linear_code.exact_d_rows": (len(computed), "count"),
        "bounds.classify_ms": (_total_ms(tracer, "bounds.classify"), "ms"),
        "cli.self_ms": (1e3 * self_time(tracer, root), "ms"),
    }
    # a search that raised has no counts; its failure is already in the tally
    searches = {s["code"]: s for s in tracer.named("radius.covering_radius")
                if s["parent"] == root["id"] and "counts" in s}
    for name in SEARCH_CODES:
        if name not in searches:
            continue
        s = searches[name]
        n, k = (int(x) for x in name[3:].split("-"))
        seconds = duration(s)
        counts = s["counts"]
        m[f"radius.search_s.{name}"] = (seconds, "s")
        m[f"radius.syndromes_per_s.{name}"] = ((1 << (n - k)) / seconds, "1/s")
        m[f"radius.candidates.{name}"] = (sum(counts[:-1]) * n, "count")
    return m


# ----------------------------------------------------------------------
# strata (bch63-39)
# ----------------------------------------------------------------------

def _timed_search(code, **kwargs):
    """(seconds, RadiusResult or the exception raised); WeightCapExceeded is the expected stop below R."""
    start = perf_counter()
    try:
        result = covering_radius(code, **kwargs)
    except Exception as exc:  # anything but WeightCapExceeded fails the caller's check
        result = exc
    return perf_counter() - start, result


def _counts(result) -> tuple[int, ...] | None:
    if isinstance(result, WeightCapExceeded):
        return tuple(result.counts_so_far)
    return getattr(result, "coset_count_by_weight", None)


def strata_sheet(tally: wl.Tally, workdir: Path, jobs: int) -> dict[str, tuple[float, str]]:
    spec = wl.DeepSpec()
    path = workdir / "strata.npz"
    path.unlink(missing_ok=True)
    code, _ = build_bch(spec.n, spec.delta)
    m: dict[str, tuple[float, str]] = {}
    previous_load = 0.0
    for w in STRATA:
        first_s, result = _timed_search(code, weight_cap=w, jobs=jobs, checkpoint_path=str(path))
        size = path.stat().st_size if path.exists() else 0
        load_s, again = _timed_search(code, weight_cap=w, jobs=jobs, checkpoint_path=str(path))
        tally.check(_counts(result) == spec.profile[: w + 1] == _counts(again),
                    f"bch63-39 stratum {w}: counts {_counts(result)} then {_counts(again)}")
        m[f"radius.stratum_s.w{w}"] = (first_s - previous_load, "s")
        m[f"radius.checkpoint_load_s.w{w}"] = (load_s, "s")
        m[f"radius.checkpoint_bytes.w{w}"] = (size, "B")
        previous_load = load_s
    path.unlink(missing_ok=True)
    plain = {}
    for j in (jobs, 1):
        seconds, result = _timed_search(build_bch(spec.n, spec.delta)[0], jobs=j)
        tally.check(_counts(result) == spec.profile, f"bch63-39 jobs={j}: counts {_counts(result)}")
        plain[j] = seconds
    checkpointed = sum(m[f"radius.stratum_s.w{w}"][0] for w in STRATA)
    m["radius.plain_s.jobs1"] = (plain[1], "s")
    m["radius.plain_s.jobs_nproc"] = (plain[jobs], "s")
    m["radius.checkpoint_tax"] = (checkpointed / plain[jobs], "x")
    m["radius.thread_speedup"] = (plain[1] / plain[jobs], "x")
    return m


# ----------------------------------------------------------------------
# decode
# ----------------------------------------------------------------------

def _scan_patterns(n: int, tau: int) -> int:
    return sum(comb(n, w) for w in range(tau + 1))


def _compare_tau(c: wl.DecodeCode) -> int | None:
    """Largest tau in {t, R, tau_binary} where a forced scan stays cheap."""
    fits = [tau for tau in (c.t, c.radius, c.tau_binary) if _scan_patterns(c.code.n, tau) <= SCAN_MAX_PATTERNS]
    return max(fits) if fits else None


def _timed_check(tally: wl.Tally, tracer: Tracer, oracle, q: wl.Query, strategy: str, call) -> float:
    """Seconds of one traced list-decoding call; its answer is checked against the oracle."""
    with tracer.span(f"decode.list_decode.{strategy}", code=oracle.codes[q.code].name):
        start = perf_counter()
        try:
            answer = call()
        except Exception as exc:  # counted by the oracle check
            answer = exc
        seconds = perf_counter() - start
    oracle.check(tally, q, answer)
    return seconds


def decode_sheet(tally: wl.Tally, tracer: Tracer, codes, stream, oracle,
                 seconds: float, entries: int) -> dict[str, tuple[float, str]]:
    """Metrics of a traced ``decode_unit`` (``seconds``, ``entries``) plus the strategy probes."""
    pass_spans = [s for s in tracer.spans if s["name"] in ("decode.ml_decode", "decode.list_decode")]
    m: dict[str, tuple[float, str]] = {
        "decode.qps": (len(pass_spans) / seconds, "1/s"),
        "decode.entries_returned": (entries, "count"),
    }
    for mode in ("ml", "list"):
        ms = [1e3 * duration(s) for s in pass_spans if s["name"] == f"decode.{mode}_decode"]
        m[f"decode.{mode}_ms_p50"] = (statistics.median(ms), "ms")
        m[f"decode.{mode}_ms_p99"] = (percentile(ms, 99), "ms")
        for c in codes:
            per_code = [1e3 * duration(s) for s in pass_spans
                        if s["name"] == f"decode.{mode}_decode" and s["code"] == c.name]
            m[f"decode.{mode}_ms_p50.{c.name}"] = (statistics.median(per_code), "ms")

    for ci, c in enumerate(codes):
        tau = _compare_tau(c)
        if tau is None:
            continue
        sample = [wl.Query(ci, "list", tau, q.bits) for q in stream if q.code == ci][:SCAN_SAMPLE]
        for strategy in ("scan", "split"):
            ms = [1e3 * _timed_check(tally, tracer, oracle, q, strategy,
                                     lambda q=q: wl.decode_query(codes, q, strategy))
                  for q in sample]
            m[f"decode.list_{strategy}_ms_p50.{c.name}"] = (statistics.median(ms), "ms")

    # the split index is built lazily by the first split query on a fresh code
    build_ms = 0.0
    for ci, c in enumerate(codes):
        fresh, _ = build_bch(c.code.n, c.code.designed_distance)
        q = wl.Query(ci, "list", c.tau_binary, wl.DECODE_WARMUP_BITS & ((1 << fresh.n) - 1))
        first, again = (_timed_check(tally, tracer, oracle, q, "split",
                                     lambda: list_decode(fresh, Word(q.bits, fresh.n), q.tau, strategy="split"))
                        for _ in range(2))
        build_ms += 1e3 * (first - again)
    m["decode.index_build_ms"] = (build_ms, "ms")
    return m
