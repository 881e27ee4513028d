"""Command line front end: verify, scan, table.

``verify`` computes one identity cell four independent ways (product
recursion, partition DP, standard-monomial count, coefficient-family limit)
and certifies that all four series agree to the chosen order. ``scan`` runs
that over a parameter grid, optionally with extra property suites and worker
processes. ``table`` dumps one series as CSV or JSON.

Exit codes: 0 all checks passed, 1 some check failed, 2 usage error.
JSON and CSV output is byte-deterministic; wall times appear in text mode
only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .families import Side, family_limit, verify_expansion, verify_family_match, verify_valuations
from .hilbert import gordon_quotient, hp_series, verify_hp_identities, verify_hp_recursion
from .partitions import GordonParams, gordon_series
from .products import ProductIndex, _padded_order, product_series
from .qseries import TruncatedSeries, first_mismatch

DEFAULT_ORDER = 50
ORDER_ENV_VAR = "RRGORDON_ORDER"
#: Largest truncation order any command accepts, from --order or the
#: environment. The packed DPs cost about r*N big-int steps of N*sqrt(N)
#: bits; the product tower costs N*sqrt(N) int additions for the partition
#: numbers at its padded order, and about r*sqrt(N/r) + r*J big-int shifts
#: and subtractions of that size; README.md gives the measured cost at this
#: limit.
MAX_ORDER = 2000
#: Largest padded order of a cell's product tower, N + (r-1)*J*(J+1)/2,
#: that any command accepts. The order alone does not bound the tower: its
#: padding grows as (r-1)*J^2/2, and its cost with the padded order.
MAX_PADDED_ORDER = 2 * MAX_ORDER

# the four independent routes to the same series; tests may patch entries
SERIES_ROUTES = {
    "product": lambda p, N: product_series(ProductIndex(p.r, p.product_index), N),
    "partition": lambda p, N: gordon_series(p, N),
    "hilbert": lambda p, N: hp_series(gordon_quotient(p), N),
    "family": lambda p, N: family_limit(Side.HILBERT, p, N),
}

# the expansion suite checks stages J+1..J+_EXPANSION_DEPTH; stage d reads product level d
_EXPANSION_DEPTH = 3

# each extra property suite, called as check(params, order, d_max) -> bool
SUITE_CHECKS = {
    "hp-identities": lambda p, N, d_max: verify_hp_identities(p.r, p.J + 1, N),
    "hp-recursion": lambda p, N, d_max: verify_hp_recursion(p.r, p.J + 1, p.i, N),
    "family-match": lambda p, N, d_max: verify_family_match(p, max(d_max, p.J + 1), N),
    "expansion": lambda p, N, d_max: all(verify_expansion(p, d, N) for d in range(p.J + 1, p.J + _EXPANSION_DEPTH + 1)),
    "valuation": lambda p, N, d_max: verify_valuations(p, N),
}
SUITES = tuple(SUITE_CHECKS)


@dataclass
class RouteResult:
    fingerprint: str
    leading: list[str]
    seconds: float
    error: str | None = None


@dataclass
class VerificationReport:
    params: GordonParams
    order: int
    routes: dict[str, RouteResult] = field(default_factory=dict)
    verdict: bool = False
    mismatch: dict | None = None


def build_report(params: GordonParams, order: int) -> VerificationReport:
    report = VerificationReport(params=params, order=order)
    series: dict[str, TruncatedSeries] = {}
    for name, route in SERIES_ROUTES.items():
        start = time.perf_counter()
        try:
            s = route(params, order)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            report.routes[name] = RouteResult("-", [], time.perf_counter() - start, error)
            continue
        series[name] = s
        head = [str(c) for c in s.coeffs[: min(8, order + 1)]]
        report.routes[name] = RouteResult(s.fingerprint(), head, time.perf_counter() - start)

    # every route returns order N and equality is transitive, so comparing
    # each route with the first one that computed finds any disagreement
    names = list(series)
    for b in names[1:]:
        a = names[0]
        n = first_mismatch(series[a], series[b])
        if n is not None:
            report.mismatch = {
                "exponent": n,
                "routes": [a, b],
                "coefficients": [str(series[a].coeffs[n]), str(series[b].coeffs[n])],
            }
            return report
    report.verdict = len(series) == len(SERIES_ROUTES)
    return report


def report_json_dict(report: VerificationReport) -> dict:
    p = report.params
    return {
        "params": {"r": p.r, "i": p.i, "J": p.J, "ell": p.ell, "index": p.product_index},
        "order": report.order,
        "routes": {
            name: {"fingerprint": rr.fingerprint, "leading": rr.leading, "error": rr.error}
            for name, rr in report.routes.items()
        },
        "verdict": "pass" if report.verdict else "fail",
        "mismatch": report.mismatch,
    }


def render_report_text(report: VerificationReport) -> str:
    p = report.params
    lines = [
        f"params     r={p.r} i={p.i} J={p.J} (ell={p.ell}, product index {p.product_index}), order {report.order}"
    ]
    for name, rr in report.routes.items():
        if rr.error:
            lines.append(f"{name:<10} ERROR {rr.error}")
        else:
            head = ", ".join(rr.leading)
            lines.append(f"{name:<10} {rr.fingerprint} [{head}, ...] {rr.seconds:.3f}s")
    if report.mismatch:
        m = report.mismatch
        a, b = m["routes"]
        ca, cb = m["coefficients"]
        lines.append(
            f"first mismatch at exponent {m['exponent']}: {a}={ca} {b}={cb}"
        )
    lines.append(f"verdict: {'PASS' if report.verdict else 'FAIL'}")
    return "\n".join(lines)


def _parse_range(text: str, what: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return int(lo), int(hi)
        v = int(text)
        return v, v
    except ValueError:
        raise UsageError(f"bad {what} range {text!r}; use an integer or lo..hi")


class UsageError(Exception):
    pass


def _order_from(args) -> int:
    order = args.order
    if order is None:
        env = os.environ.get(ORDER_ENV_VAR, str(DEFAULT_ORDER))
        try:
            order = int(env)
        except ValueError:
            raise UsageError(f"{ORDER_ENV_VAR} must be an integer, got {env!r}")
    if order < 0:
        raise UsageError("order must be non-negative")
    if order > MAX_ORDER:
        raise UsageError(f"order must be at most {MAX_ORDER}, got {order}")
    return order


def _check_padded_order(r: int, J: int, order: int, suites: tuple[str, ...] = ()) -> None:
    top = J + _EXPANSION_DEPTH if "expansion" in suites else J
    padded = _padded_order(r, top, order)
    if padded > MAX_PADDED_ORDER:
        why = " for the expansion suite" if top > J else ""
        raise UsageError(
            f"r={r}, J={J} at order {order} pads the product tower to order {padded}{why}, "
            f"above {MAX_PADDED_ORDER}"
        )


def _cell_from(args) -> tuple[GordonParams, int]:
    """The (r, i, J) cell and order a verify or table request names."""
    try:
        params = GordonParams(args.r, args.i, args.J)
    except ValueError as exc:
        raise UsageError(str(exc))
    order = _order_from(args)
    _check_padded_order(params.r, params.J, order)
    return params, order


def cmd_verify(args) -> int:
    params, order = _cell_from(args)
    report = build_report(params, order)
    if args.format == "json":
        print(json.dumps(report_json_dict(report), indent=2, sort_keys=True))
    else:
        print(render_report_text(report))
    return 0 if report.verdict else 1


def _suite_passes(suite: str, params: GordonParams, order: int, d_max: int) -> bool:
    """A suite that raises counts as failed, like a mismatch."""
    try:
        return SUITE_CHECKS[suite](params, order, d_max)
    except Exception:
        return False


def _scan_cell(cell: tuple[int, int, int, int, tuple[str, ...], int]) -> dict:
    r, i, J, order, suites, d_max = cell
    params = GordonParams(r, i, J)
    report = build_report(params, order)
    suite_results = {suite: _suite_passes(suite, params, order, d_max) for suite in suites}
    passed = report.verdict and all(suite_results.values())
    return {
        "r": r,
        "i": i,
        "J": J,
        "verdict": "pass" if passed else "fail",
        "identity": "pass" if report.verdict else "fail",
        "suites": {k: ("pass" if v else "fail") for k, v in sorted(suite_results.items())},
        "mismatch": report.mismatch,
    }


def cmd_scan(args) -> int:
    r_lo, r_hi = _parse_range(args.r, "--r")
    j_lo, j_hi = _parse_range(args.J, "--J")
    order = _order_from(args)
    if r_lo < 2:
        raise UsageError("r must be at least 2")
    if j_lo < 0:
        raise UsageError("J must be non-negative")
    if args.d_max < 0:
        raise UsageError("--d-max must be non-negative")
    if args.jobs < 1:
        raise UsageError("jobs must be at least 1")
    suites = tuple(s for s in args.suites.split(",") if s) if args.suites else ()
    for k, s in enumerate(suites):
        if s not in SUITES:
            raise UsageError(f"unknown suite {s!r}; choose from {', '.join(SUITES)}")
        if s in suites[:k]:
            raise UsageError(f"suite {s!r} is named twice")

    i_lo, i_hi = (1, r_hi) if args.i == "all" else _parse_range(args.i, "--i")
    cells = [
        (r, i, J, order, suites, args.d_max)
        for r in range(r_lo, r_hi + 1)
        for i in range(max(1, i_lo), min(r, i_hi) + 1)
        for J in range(j_lo, j_hi + 1)
    ]
    if not cells:
        raise UsageError("the requested grid has no cells")
    for r, _, J, *_ in cells:
        _check_padded_order(r, J, order, suites)

    # a fork pool starts every worker up front, so never ask for idle ones
    workers = min(args.jobs, len(cells), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_scan_cell, c) for c in cells]
        # a cell whose worker died fails every check; one error line says why
        errors = [f.exception() for f in futures]
        unfinished = {"verdict": "fail", "identity": "fail", "suites": dict.fromkeys(sorted(suites), "fail"), "mismatch": None}
        results = [f.result() if e is None else {"r": c[0], "i": c[1], "J": c[2], **unfinished} for c, f, e in zip(cells, futures, errors)]
        if lost := [e for e in errors if e]:
            print(f"error: {len(lost)} cells did not finish: {lost[0]!r}", file=sys.stderr)
    else:
        results = [_scan_cell(c) for c in cells]
    results.sort(key=lambda c: (c["r"], c["i"], c["J"]))

    failed = [c for c in results if c["verdict"] != "pass"]
    if args.format == "json":
        payload = {
            "order": order,
            "suites": list(suites),
            "cells": results,
            "passed": len(results) - len(failed),
            "failed": len(failed),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for c in results:
            extra = ""
            if c["suites"]:
                extra = " " + " ".join(f"{k}={v}" for k, v in c["suites"].items())
            print(f"r={c['r']} i={c['i']} J={c['J']}: {c['verdict'].upper()}{extra}")
        print(f"{len(results) - len(failed)}/{len(results)} cells passed at order {order}")
    return 1 if failed else 0


TABLE_KINDS = {"counts": "partition", "product": "product", "hilbert": "hilbert"}


def cmd_table(args) -> int:
    params, order = _cell_from(args)
    series = SERIES_ROUTES[TABLE_KINDS[args.kind]](params, order)

    if args.format == "json":
        text = json.dumps(series.as_json_dict(), indent=2, sort_keys=True) + "\n"
    else:
        rows = [f"{n},{c}" for n, c in enumerate(series.coeffs)]
        text = "n,value\n" + "\n".join(rows) + "\n"

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrgordon",
        description="Exact verification of the shifted Rogers-Ramanujan-Gordon identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="check one (r, i, J) cell via four independent computations"
    )
    p_verify.add_argument("--r", type=int, required=True, help="modulus parameter, >= 2")
    p_verify.add_argument("--i", type=int, required=True, help="cap parameter, 1..r")
    p_verify.add_argument("--J", type=int, required=True, help="shift parameter, >= 0")
    p_verify.add_argument("--order", type=int, default=None, help=f"truncation order (default {DEFAULT_ORDER}, or ${ORDER_ENV_VAR})")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="verify a grid of cells, optionally with property suites")
    p_scan.add_argument("--r", default="2..4", help="r range, e.g. 3 or 2..5")
    p_scan.add_argument("--i", default="all", help="i range, e.g. 1..2, or 'all' (clipped to 1..r)")
    p_scan.add_argument("--J", default="0..2", help="J range, e.g. 0 or 0..3")
    p_scan.add_argument("--order", type=int, default=None)
    p_scan.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_scan.add_argument(
        "--suites",
        default="",
        help="comma-separated extra checks: " + ",".join(SUITES),
    )
    p_scan.add_argument("--d-max", type=int, default=10, help="stage bound for family-match")
    p_scan.add_argument("--format", choices=("text", "json"), default="text")
    p_scan.set_defaults(func=cmd_scan)

    p_table = sub.add_parser("table", help="emit one series as CSV or JSON")
    p_table.add_argument("--kind", choices=TABLE_KINDS, required=True)
    p_table.add_argument("--r", type=int, required=True)
    p_table.add_argument("--i", type=int, required=True)
    p_table.add_argument("--J", type=int, required=True)
    p_table.add_argument("--order", type=int, default=None)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--out", default=None, help="write to a file instead of stdout")
    p_table.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
