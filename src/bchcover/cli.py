"""Command-line front end.

Subcommands: ``table1`` (reproduce the comparison table as CSV, nonzero
exit on any cell disagreeing with the reference rows), ``johnson`` (bound
curves for plotting), ``radius``, ``classify``, and ``decode``. All output
is deterministic for identical inputs and any worker count.
"""

from __future__ import annotations

import argparse
import sys

from .bch import build_bch
from .bounds import classify, johnson_binary_floor, johnson_curve, johnson_general_floor
from .decode import list_decode, ml_decode
from .linear_code import Word
from .manifest import TABLE1, find_row
from .radius import covering_radius

TABLE_HEADER = "n,k,d,t,R,tau_general,tau_binary,perfect,a_covered,strict,comment"


def _flag(value: bool) -> str:
    return "true" if value else "false"


def cmd_table1(args: argparse.Namespace) -> int:
    if args.jobs < 1:  # before the header, so a rejected value prints nothing to stdout
        raise ValueError(f"jobs must be at least 1, got {args.jobs}")
    mismatches: list[str] = []
    print(TABLE_HEADER)
    for row in TABLE1:
        if row.n > args.max_n:
            continue
        code, _ = build_bch(row.n, row.delta)
        skip_radius = row.long_running and not args.long_running
        result = None if skip_radius else covering_radius(code, jobs=args.jobs)
        report = classify(code, result, comment=row.comment)
        r_cell = "skipped" if skip_radius else str(report.covering_radius)
        print(
            f"{report.n},{report.k},{report.d},{report.t},{r_cell},"
            f"{report.tau_general},{report.tau_binary},"
            f"{_flag(report.is_perfect)},{_flag(report.is_a_covered)},"
            f"{_flag(report.strictly_covered)},{report.comment}"
        )
        name = f"[{row.n},{row.k},{row.d}]"
        if code.k != row.k:
            mismatches.append(f"{name}: k = {code.k}, expected {row.k}")
        if report.d != row.d:
            flavor = "" if report.d_exact else " (lower bound)"
            mismatches.append(f"{name}: d = {report.d}{flavor}, expected {row.d}")
        if not skip_radius and report.covering_radius != row.covering_radius:
            mismatches.append(f"{name}: R = {report.covering_radius}, expected {row.covering_radius}")
        if report.tau_binary != row.tau_binary:
            mismatches.append(f"{name}: tau_binary = {report.tau_binary}, expected {row.tau_binary}")
    for line in mismatches:
        print(f"table1: MISMATCH {line}", file=sys.stderr)
    return 1 if mismatches else 0


def cmd_johnson(args: argparse.Namespace) -> int:
    if args.n < 2:  # before the header, so a rejected value prints nothing to stdout
        raise ValueError(f"need n >= 2, got {args.n}")
    if args.steps is not None:
        if args.steps < 2:
            raise ValueError(f"need at least 2 steps, got {args.steps}")
        print("d_over_n,tau_general_over_n,tau_binary_over_n")
        # n // 2 samples already give every d in 1..n/2 in order; more only repeat them
        steps = min(args.steps, max(args.n // 2, 2))
        seen = set()
        for i in range(steps):
            d = max(1, round(1 + (args.n // 2 - 1) * i / (steps - 1)))
            if d in seen:
                continue
            seen.add(d)
            tg, tb = johnson_general_floor(args.n, d), johnson_binary_floor(args.n, d)
            print(f"{d / args.n:.6f},{tg / args.n:.6f},{tb / args.n:.6f}")
        return 0
    print("d,tau_general,tau_binary")
    for d, tg, tb in johnson_curve(args.n):
        print(f"{d},{tg},{tb}")
    return 0


def cmd_radius(args: argparse.Namespace) -> int:
    code, _ = build_bch(args.n, args.delta)
    result = covering_radius(
        code,
        weight_cap=args.weight_cap,
        jobs=args.jobs,
        checkpoint_path=args.checkpoint,
    )
    d, exactness = code.min_distance()
    d_cell = str(d) if exactness == "exact" else f"d>={d}"
    print(f"R = {result.covering_radius}")
    print(f"code = BCH [{code.n},{code.k},{d_cell}]")
    print("weight,cosets")
    for w, count in enumerate(result.coset_count_by_weight):
        print(f"{w},{count}")
    print(f"deepest_syndrome,{result.deepest_syndrome}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    code, _ = build_bch(args.n, args.delta)
    row = find_row(args.n, args.delta)
    result = covering_radius(code, jobs=args.jobs)
    report = classify(code, result, comment=row.comment if row else "")
    print(f"n = {report.n}")
    print(f"k = {report.k}")
    print(f"d = {report.d}" + ("" if report.d_exact else " (lower bound)"))
    print(f"t = {report.t}")
    print(f"R = {report.covering_radius}")
    print(f"tau_general = {report.tau_general}")
    print(f"tau_binary = {report.tau_binary}")
    print(f"perfect = {_flag(report.is_perfect)}")
    print(f"a_covered = {_flag(report.is_a_covered)}")
    print(f"strictly_covered = {_flag(report.strictly_covered)}")
    print(f"wu_covered = {_flag(report.wu_covered)}")
    print(f"comment = {report.comment}")
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    if args.tau is not None and args.mode != "list":
        raise ValueError(f"--tau applies to list mode only, not to --mode {args.mode}")
    code, _ = build_bch(args.n, args.delta)
    v = Word.from_text(args.word, code.n)
    if args.mode == "ml":
        result = ml_decode(code, v)
    elif args.mode == "bounded":
        d, exactness = code.min_distance()
        if exactness != "exact":
            raise ValueError("bounded decoding needs the exact minimum distance")
        result = list_decode(code, v, (d - 1) // 2)
    else:
        if args.tau is None:
            raise ValueError("list mode needs --tau")
        result = list_decode(code, v, args.tau)
    print(f"mode = {args.mode}")
    print(f"radius_used = {result.radius_used}")
    print("codeword,distance")
    for cw, dist in result.entries:
        print(f"{cw},{dist}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bchcover",
        description="BCH codes, exact covering radii, Johnson/Wu bounds, list/ML decoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="reproduce the comparison table as CSV")
    p.add_argument("--max-n", type=int, default=63)
    p.add_argument("--long-running", action="store_true",
                   help="also search the 2^24 and 2^27 syndrome spaces of the heavy length-63 rows")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("johnson", help="emit bound curves for plotting")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--steps", type=int, default=None,
                   help="emit this many normalized samples instead of integer rows")
    p.set_defaults(func=cmd_johnson)

    p = sub.add_parser("radius", help="exact covering radius of a BCH code")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--checkpoint", type=str, default=None)
    p.add_argument("--weight-cap", type=int, default=None)
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("classify", help="coverage classification of a BCH code")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("decode", help="decode a word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--word", type=str, required=True,
                   help="0/1 string (leftmost = coordinate 0) or 0x-prefixed hex")
    p.add_argument("--mode", choices=("ml", "list", "bounded"), required=True)
    p.add_argument("--tau", type=int, default=None)
    p.set_defaults(func=cmd_decode)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"bchcover: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
