"""Command-line surface: indicators, fsz, gamma, selftest, bench.

Exit status convention: 0 success (or FSZ true), 1 FSZ false, 2 any error
(usage, parse, resource limits, bad environment, unwritable output), chosen
so census scripts can branch on it.
"""
from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .errors import FszdError
from .indicators import Session, all_indicators, fsz_test, gamma
from .oracle import benchmark, oracle_equivalence_sweep
from .permcore import construct_group

SELFTEST_CATALOG = (
    "S3",
    "S4",
    "S5",
    "A4",
    "A5",
    "D4",
    "D6",
    "Q8",
    "C12",
    "C2xC4",
    "perm:(1,4,7)(2,8,5);(1,6,2,3)(4,7,8,5)",  # SL(2,3) on F_3^2 \ {0}
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fszd",
        description="Frobenius-Schur indicators for Drinfeld doubles of finite groups",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_group_arg(p):
        p.add_argument("--group", required=True, help="group spec, e.g. S5, D6, C2xC4, perm:(1,2,3);(1,2)")
        p.add_argument("--max-degree", type=int, default=None, help="degree cap for the spec parser")

    p_ind = sub.add_parser("indicators", help="full indicator report for D(G)")
    add_group_arg(p_ind)
    p_ind.add_argument("--m", default=None, help="comma-separated divisors of exp(G); default all")
    p_ind.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_ind.add_argument("--out", default=None, help="write output to a file instead of stdout")

    p_fsz = sub.add_parser("fsz", help="test rationality of all indicators without computing them")
    add_group_arg(p_fsz)
    p_fsz.add_argument("--d", type=int, default=1, help="test membership in Q(zeta_d); default 1 (rationality)")

    p_gamma = sub.add_parser("gamma", help="print one gamma class function")
    add_group_arg(p_gamma)
    p_gamma.add_argument("--z-class", type=int, required=True)
    p_gamma.add_argument("--m", type=int, required=True)
    p_gamma.add_argument("--backend", choices=("characters", "cmc"), default="characters")

    p_self = sub.add_parser("selftest", help="oracle-equivalence sweep over the built-in catalog")
    p_self.add_argument("--max-order", type=int, default=100, help="largest group order to sweep")

    p_bench = sub.add_parser("bench", help="time class-level vs naive indicator sweeps")
    add_group_arg(p_bench)
    p_bench.add_argument("--m", default=None, help="comma-separated divisors; default all")

    return parser


def _parse_ms(text: str | None) -> list[int] | None:
    if text is None:
        return None
    try:
        ms = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise FszdError(f"cannot parse m-list {text!r}") from None
    if not ms:
        raise FszdError(f"m-list {text!r} has no entries")
    return ms


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _format_table(report) -> str:
    lines = [
        f"group {report.group}  order {report.order}  exponent {report.exponent}",
        "",
    ]
    header = ["g_class", "eta", "deg"] + [f"m={m}" for m in report.ms]
    rows = [header]
    for s in report.simples:
        rows.append(
            [str(s.g_class), str(s.eta_index), str(s.eta_degree)]
            + [e.pretty for e in s.indicators]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def _cmd_indicators(args) -> int:
    G = construct_group(args.group, max_degree=args.max_degree)
    report = all_indicators(Session(G), _parse_ms(args.m))
    if args.format == "json":
        _emit(report.to_json(), args.out)
    elif args.format == "csv":
        _emit(report.to_csv(), args.out)
    else:
        _emit(_format_table(report), args.out)
    return 0


def _cmd_fsz(args) -> int:
    G = construct_group(args.group, max_degree=args.max_degree)
    result = fsz_test(G, d=args.d)
    if result.verdict:
        print(f"FSZ{'' if args.d == 1 else f'_{args.d}'}: true  "
              f"(beta values checked: {result.betas_checked})")
        return 0
    z_class, m, chi = result.witness
    print(
        f"FSZ{'' if args.d == 1 else f'_{args.d}'}: false  "
        f"(witness: z-class {z_class}, m={m}, chi={chi})"
    )
    return 1


def _cmd_gamma(args) -> int:
    G = construct_group(args.group, max_degree=args.max_degree)
    session = Session(G)
    k = len(session.classes)
    if not 0 <= args.z_class < k:
        raise FszdError(f"z-class must be in 0..{k - 1}")
    cf = gamma(session, args.z_class, args.m, backend=args.backend)
    zrep = session.classes.classes[args.z_class].rep
    print(f"gamma_m^z on C_G(z), z = {zrep.cycle_string()} (class {args.z_class}), "
          f"m = {args.m}, backend = {args.backend}")
    print(f"{'class':>5}  {'rep':<20} {'size':>5}  {'order':>5}  gamma")
    for i, cl in enumerate(cf.classes.classes):
        print(f"{i:>5}  {cl.rep.cycle_string():<20} {cl.size:>5}  {cl.order:>5}  "
              f"{cf.values[i].rational_value()}")
    return 0


def _cmd_selftest(args) -> int:
    failures = 0
    total = 0
    for spec in SELFTEST_CATALOG:
        G = construct_group(spec)
        if G.order() > args.max_order:
            print(f"{spec}: skipped (order {G.order()} > {args.max_order})")
            continue
        report = oracle_equivalence_sweep(G)
        total += report.values_checked
        status = "ok" if not report.mismatches else "MISMATCH"
        print(f"{spec}: {report.values_checked} values checked, "
              f"{len(report.mismatches)} mismatches [{status}]")
        failures += len(report.mismatches)
    print(f"selftest: {total} values checked, {failures} mismatches")
    if total == 0:
        raise FszdError(f"selftest checked no values: no catalog group has order <= {args.max_order}")
    return 0 if failures == 0 else 2


def _cmd_bench(args) -> int:
    G = construct_group(args.group, max_degree=args.max_degree)
    result = benchmark(G, _parse_ms(args.m))
    print(f"group {result.group}: {result.simples} simples, {result.values} indicator values")
    print(f"naive element-level sweep: {result.naive_seconds:.3f}s")
    print(f"class-level sweep:         {result.class_seconds:.3f}s")
    print(f"speedup ratio:             {result.ratio:.1f}x")
    return 0


def dispatch(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "indicators": _cmd_indicators,
        "fsz": _cmd_fsz,
        "gamma": _cmd_gamma,
        "selftest": _cmd_selftest,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.verb](args)
    except Exception as exc:  # exit 1 is reserved for "FSZ false"
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
