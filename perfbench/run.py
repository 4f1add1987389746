"""bchcover benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload {table,radius-deep,decode} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/`` and nothing is installed. ``--trace 0`` repeats the workload's
unit until S seconds have passed (at least twice) and reports the
end-to-end metrics. ``--trace 1`` fills the per-layer sheet (see
``layers.py``) and reports the tracing overhead of the workload's unit;
its spans are written to ``.perfbench_run/spans-<workload>-seed<N>.jsonl``.
The last stdout line is the result object; the line before it records the
environment. Wrong or raised answers are counted in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
WORKLOADS = ("table", "radius-deep", "decode")
MIN_UNITS = 2        # units per untraced run, so wall_s is never a single sample
SETUP_PROBES = 7     # fresh processes whose set-up times give the setup_s median
PROBE_TIMEOUT_S = 60


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Import bchcover from this checkout's src/, and from nowhere else."""
    package = SRC / "bchcover"
    if not (package / "__init__.py").is_file():
        die(f"no bchcover sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import bchcover.cli
    if Path(bchcover.__file__).resolve().parent != package.resolve():
        die(f"imported bchcover from {bchcover.__file__}, not from {package}")


def environment(workload: str, jobs: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return {
        "workload": workload,
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": jobs,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "cache_per_cpu0": caches,
        # uint8 first-seen-weight tables of the radius search, next to the caches above
        "working_set_mib": {"radius_table_2^24_bch63-39": 16, "radius_table_2^25_bch31-6": 32},
    }


def probe_setup(workload: str) -> float:
    """Set-up time in this fresh process: import, plus code builds and warm-up for decode."""
    start = perf_counter()
    import_program()
    import workloads as wl
    if workload == "decode":
        wl.decode_setup()
    return perf_counter() - start


def setup_seconds(workload: str) -> float:
    """Median set-up time over fresh processes, each waited for in turn."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--probe-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if done.returncode != 0:
            die(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def repeat(unit, seconds: float) -> list[float]:
    """Run ``unit`` (returning its own seconds) until ``seconds`` have passed, at least MIN_UNITS times."""
    start = perf_counter()
    times: list[float] = []
    while len(times) < MIN_UNITS or perf_counter() - start < seconds:
        times.append(unit())
    return times


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(workload: str, seed: int, seconds: float, tally) -> dict:
    import workloads as wl

    setup_s = setup_seconds(workload)
    if workload == "table":
        expected = wl.table_reference()
        units = repeat(lambda: wl.table_unit(tally, expected), seconds)
        rss = peak_rss_mib()
    elif workload == "radius-deep":
        spec, checkpoint, outputs = wl.DeepSpec(), WORK / "ckpt" / "deep.npz", []

        def cycle() -> float:
            cycle_s, out = wl.deep_unit(tally, spec, checkpoint, wl.nproc())
            outputs.append(out)
            return cycle_s
        units = repeat(cycle, seconds)
        rss = peak_rss_mib()
        wl.check_same_output(tally, outputs, wl.deep_reference(tally, spec))
    else:
        codes = wl.decode_setup()
        stream = wl.make_stream(codes, seed)
        oracle = wl.DecodeOracle(codes)
        units = repeat(lambda: wl.decode_unit(tally, codes, stream, oracle)[0], seconds)
        rss = peak_rss_mib()
    return {
        "wall_s": metric(statistics.median(units), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss, "MiB"),
    }


def traced_run(workload: str, seed: int, tally) -> dict:
    import layers
    import workloads as wl
    from tracing import Tracer, patched_layers

    tracer = Tracer(f"{workload}-seed{seed}")
    expected = wl.table_reference()
    codes = wl.decode_setup()
    stream = wl.make_stream(codes, seed)
    oracle = wl.DecodeOracle(codes)
    m: dict[str, tuple[float, str]] = {}

    def untraced_unit() -> float:
        if workload == "table":
            return wl.table_unit(tally, expected)
        if workload == "decode":
            return wl.decode_unit(tally, codes, stream, oracle)[0]
        return wl.deep_unit(tally, wl.DeepSpec(), WORK / "ckpt" / "deep.npz", wl.nproc())[0]

    # the workload's unit runs untraced before and after its traced twin, so
    # a drift in machine speed during the run cancels out of the overhead
    untraced = [untraced_unit()]
    if workload == "radius-deep":
        with patched_layers(tracer), tracer.span("cli.radius-deep"):
            traced = wl.deep_unit(tally, wl.DeepSpec(), WORK / "ckpt" / "deep.npz", wl.nproc())[0]
    table_s = layers.traced_table(tally, tracer, expected)
    m.update(layers.table_sheet(tracer))
    decode_s, entries = wl.decode_unit(tally, codes, stream, oracle, tracer.span)
    m.update(layers.decode_sheet(tally, tracer, codes, stream, oracle, decode_s, entries))
    if workload != "radius-deep":
        traced = table_s if workload == "table" else decode_s
    untraced.append(untraced_unit())
    m.update(layers.strata_sheet(tally, WORK / "ckpt", wl.nproc()))

    untraced_s = statistics.mean(untraced)
    m["trace.untraced_wall_s"] = (untraced_s, "s")
    m["trace.traced_wall_s"] = (traced, "s")
    m["trace.overhead_pct"] = (100 * (traced / untraced_s - 1), "%")
    tracer.write(WORK / f"spans-{workload}-seed{seed}.jsonl")
    return {name: metric(value, unit) for name, (value, unit) in m.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.probe_setup:
        print(json.dumps({"setup_s": probe_setup(args.workload)}))
        return 0

    import_program()
    import workloads as wl

    jobs = wl.nproc() if args.workload == "radius-deep" else 1
    print(json.dumps({"env": environment(args.workload, jobs)}))
    (WORK / "ckpt").mkdir(parents=True, exist_ok=True)
    tally = wl.Tally()
    try:
        if args.trace:
            metrics = traced_run(args.workload, args.seed, tally)
        else:
            metrics = untraced_run(args.workload, args.seed, args.seconds, tally)
    finally:
        shutil.rmtree(WORK / "ckpt", ignore_errors=True)
    for reason in tally.reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
