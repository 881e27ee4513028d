"""Command line front end: verify, scan, table.

``verify`` computes one identity cell four ways (product recursion,
partition DP, standard-monomial count, and the family limit that continues
the partition DP) and certifies that the four series agree to the order.
``scan`` runs that over a parameter grid, optionally with extra property
suites and worker processes. ``table`` dumps one series as CSV or JSON.
The routes hand over packed series (``qseries.PackedSeries``), which
``_compare_routes`` compares as ints, so a passing scan cell unpacks and
digests nothing; only ``verify``'s report digests each distinct series.
Each command first builds one plan (``_plan``), which checks the request,
a one-cell grid for ``verify`` and ``table``, and lists one row per r: the
Hilbert floors and product tower levels it reads, and its i's and J's.
``main`` empties the memo before a command, and ``scan`` runs each row
once (``_scan_row``), in-process or in a worker, which first files what its
cells read: r's floors and levels, and one ascending lane scan and one suite
walk per J (``partitions._lane_scans``, ``families._lane_walks``).

Exit codes: 0 all checks passed, 1 some check failed, 2 usage error.
JSON and CSV output is byte-deterministic; wall times appear in text mode
only. The worker-pool stack is imported only when ``scan`` opens workers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .families import _ladder, _lane_walks, _match, family_limit, verify_expansion, verify_family_match, verify_valuations
from .hilbert import _floor, _floors, gordon_quotient, hp_series, verify_hp_identities, verify_hp_recursion
from .partitions import GordonParams, _ascending, _lane_scans, gordon_series
from .products import ProductIndex, _family_at_level, _padded_order, _tower, product_series
from .qseries import PackedSeries, first_mismatch, forget, keep

DEFAULT_ORDER = 50
ORDER_ENV_VAR = "RRGORDON_ORDER"
#: Largest truncation order any command accepts, from --order or the
#: environment. The packed DPs cost about r*N/2 big-int steps of at most
#: N*sqrt(N) bits, one per value up to N/2 (the values above it are summed
#: in closed form), in slots that grow with the counts, so the descending
#: Hilbert scans run narrow for most of their steps; a product tower padded
#: by at most N costs N*sqrt(N) int additions for the partition numbers at
#: its padded order, and about r*sqrt(N/r) + r*J big-int shifts and
#: subtractions of that size, and a deeper one r*J of them in narrow slots
#: and N*sqrt(N) additions of r-lane ints; README.md gives the measured cost
#: at this limit.
MAX_ORDER = 2000
#: Largest r any command accepts. A cell holds up to r packed series per
#: walk and per tower level, and the expansion suite compares r entries
#: per level, so time and memory grow about linearly in r; README.md gives
#: the measured cost at this limit.
MAX_R = 100
#: Largest padded order of a cell's product tower, N + (r-1)*J*(J+1)/2,
#: that any command accepts. The order alone does not bound the tower: its
#: padding grows as (r-1)*J^2/2, and its cost with the padded order.
MAX_PADDED_ORDER = 2 * MAX_ORDER

# the four independent routes to the same series; tests may patch entries
SERIES_ROUTES = {
    "product": lambda p, N: product_series(ProductIndex(p.r, p.product_index), N),
    "partition": lambda p, N: gordon_series(p, N),
    "hilbert": lambda p, N: hp_series(gordon_quotient(p), N),
    "family": lambda p, N: family_limit(None, p, N),
}

# the expansion suite compares product levels J..J+_EXPANSION_DEPTH with the floors one above
_EXPANSION_DEPTH = 3


# each extra property suite, called as check(params, order, d_max) -> bool
SUITE_CHECKS = {
    "hp-identities": lambda p, N, d_max: verify_hp_identities(p.r, p.J + 1, N),
    "hp-recursion": lambda p, N, d_max: verify_hp_recursion(p.r, p.J + 1, p.i, N),
    "family-match": lambda p, N, d_max: verify_family_match(p, max(d_max, p.J + 1), N),
    "expansion": lambda p, N, d_max: verify_expansion(p, p.J + _EXPANSION_DEPTH, N),
    "valuation": lambda p, N, d_max: verify_valuations(p, N),
}
SUITES = tuple(SUITE_CHECKS)
# the top floor above J each suite reads (hilbert._floor); the hilbert route reads J+1
_SUITE_FLOORS = {"hp-identities": 2, "hp-recursion": 2, "valuation": 2, "expansion": _EXPANSION_DEPTH + 1}


def _run_route(name: str, params: GordonParams, order: int) -> tuple[PackedSeries | None, str | None]:
    """The route's series, or None and ``"Type: message"`` when it raises or
    returns anything but a series of order ``order``."""
    try:
        series = SERIES_ROUTES[name](params, order)
        got = getattr(series, "order", None)
        if got != order:
            raise ValueError(f"the route returned order {got}, not {order}")
        return series, None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _compare_routes(params: GordonParams, order: int) -> tuple[dict, dict, dict, str, dict | None]:
    """Each route's series or error, by name, each route's seconds, the
    verdict, and the first mismatch among the series, or None. The series
    are compared with ``==``, which for packed series in slots of one width
    compares two ints; a mismatch between two such series is read from
    their XOR (``first_mismatch``) and their slots, so nothing is unpacked."""
    series, errors, seconds = {}, {}, {}
    for name in SERIES_ROUTES:
        start = time.perf_counter()
        s, error = _run_route(name, params, order)
        if error:
            errors[name] = error
        else:
            series[name] = s
        seconds[name] = time.perf_counter() - start

    # every series has order N and equality is transitive, so comparing each
    # route with the first one that computed finds any disagreement
    names = list(series)
    for b in names[1:]:
        a = names[0]
        if series[a] != series[b]:
            n = first_mismatch(series[a], series[b])
            coefficients = [str(series[a].coefficient(n)), str(series[b].coefficient(n))]
            return series, errors, seconds, "fail", {"exponent": n, "routes": [a, b], "coefficients": coefficients}
    return series, errors, seconds, "fail" if errors else "pass", None


def build_report(params: GordonParams, order: int) -> tuple[dict, dict[str, float]]:
    """The report ``verify --format json`` prints, and each route's seconds.
    Each distinct series is digested once, and equal routes share it."""
    series, errors, seconds, verdict, mismatch = _compare_routes(params, order)
    routes, digests = {}, []
    for name in SERIES_ROUTES:
        if name in errors:
            routes[name] = {"fingerprint": "-", "leading": [], "error": errors[name]}
            continue
        s = series[name]
        digest = next((d for d in digests if d[0] == s), None)
        if digest is None:
            digest = (s, s.fingerprint(), [str(c) for c in s.coeffs[:8]])
            digests.append(digest)
        routes[name] = {"fingerprint": digest[1], "leading": digest[2], "error": None}
    report = {
        "params": {"r": params.r, "i": params.i, "J": params.J, "ell": params.ell, "index": params.product_index},
        "order": order,
        "routes": routes,
        "verdict": verdict,
        "mismatch": mismatch,
    }
    return report, seconds


def render_report_text(report: dict, seconds: dict[str, float]) -> str:
    p = report["params"]
    lines = [
        f"params     r={p['r']} i={p['i']} J={p['J']} (ell={p['ell']}, product index {p['index']}), order {report['order']}"
    ]
    for name, route in report["routes"].items():
        if route["error"]:
            lines.append(f"{name:<10} ERROR {route['error']}")
        else:
            head = ", ".join(route["leading"])
            lines.append(f"{name:<10} {route['fingerprint']} [{head}, ...] {seconds[name]:.3f}s")
    if m := report["mismatch"]:
        a, b = m["routes"]
        ca, cb = m["coefficients"]
        lines.append(f"first mismatch at exponent {m['exponent']}: {a}={ca} {b}={cb}")
    lines.append(f"verdict: {report['verdict'].upper()}")
    return "\n".join(lines)


def _parse_range(text: str, what: str) -> tuple[int, int]:
    try:
        lo, sep, hi = text.partition("..")
        return int(lo), int(hi if sep else lo)
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


def _plan(args, suites: tuple[str, ...] = (), d_max: int = 0, tower: bool = True) -> tuple[int, list[tuple[int, range, range, range, range, int | None]]]:
    """A command's order and rows (r, floors, levels, is, js, walk), one per
    r with cells, ``floors`` the Hilbert floors each r reads, top down,
    ``levels`` the product tower levels it reads, up to J, or J+3 with
    expansion, from the level J-1 that the product route of i = r reads,
    ``is`` and ``js`` the i's, clipped to r, and J's of its cells, and
    ``walk`` the stage bound of each (r, J)'s suite walk, which runs to stage
    max(walk, J+5) or J+N+2: ``d_max`` with family-match, 0 with valuation
    alone, and None, no walk, with neither. Raises UsageError on
    an r, i or J out of range, an empty grid, and with ``tower`` a tower
    padded above MAX_PADDED_ORDER at the deepest level read; r_hi admits the
    most i, so the ranges' ends decide both."""
    order = _order_from(args)
    r_lo, r_hi = _parse_range(str(args.r), "--r")
    j_lo, j_hi = _parse_range(str(args.J), "--J")
    i_lo, i_hi = (1, r_hi) if args.i == "all" else _parse_range(str(args.i), "--i")
    if r_lo < 2:
        raise UsageError("r must be at least 2")
    if r_hi > MAX_R:
        raise UsageError(f"r must be at most {MAX_R}, got {r_hi}")
    if i_lo < 1:
        raise UsageError("i must be at least 1")
    if j_lo < 0:
        raise UsageError("J must be non-negative")
    if r_lo > r_hi or j_lo > j_hi or i_lo > min(r_hi, i_hi):
        raise UsageError(f"the requested grid has no cells: r={r_lo}..{r_hi}, i={i_lo}..{i_hi} up to r, J={j_lo}..{j_hi}")
    level = j_hi + _EXPANSION_DEPTH * ("expansion" in suites)
    if tower and (padded := _padded_order(r_hi, level, order)) > MAX_PADDED_ORDER:
        raise UsageError(f"r={r_hi}, J={j_hi} at order {order} pads the product tower's level {level} to order {padded}, above {MAX_PADDED_ORDER}")
    floors = range(j_hi + max([1] + [_SUITE_FLOORS.get(s, 1) for s in suites]), j_lo, -1)
    levels = range(max(j_lo - 1, 0), level + 1)
    js = range(j_lo, j_hi + 1)
    walk = None
    if "family-match" in suites:
        walk = d_max
    elif "valuation" in suites:
        walk = 0
    rows = ((r, range(i_lo, min(r, i_hi) + 1)) for r in range(r_lo, r_hi + 1))
    return order, [(r, floors, levels, is_, js, walk) for r, is_ in rows if is_]


def cmd_verify(args) -> int:
    order, [(r, _, _, [i], [J], _)] = _plan(args)
    report, seconds = build_report(GordonParams(r, i, J), order)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report_text(report, seconds))
    return 0 if report["verdict"] == "pass" else 1


def _suite_passes(suite: str, params: GordonParams, order: int, d_max: int) -> bool:
    """A suite that raises counts as failed, like a mismatch."""
    try:
        return SUITE_CHECKS[suite](params, order, d_max)
    except Exception:
        return False


def _scan_row(row: tuple[int, range, range, range, range, int | None, int, tuple[str, ...], int]) -> list[dict]:
    """The reports of the row's cells, i first, then J. It first empties the
    memo and files r's ``floors`` from one scan, its ``levels`` from one
    climb, and the partition series and family limits of every i in ``is_``
    at each J in ``js`` from one lane scan per J, as ``_floor``,
    ``_family_at_level`` and ``_ascending`` return them. With a ``walk``, it
    walks every i at each J as lanes of one suite walk to stage max(walk,
    J+5), or J+N+2 if that comes first, and files the verdicts (``_match``,
    ``_ladder``) of each pass that kept all its lanes clean. A side that
    raises files nothing, so each reader fills it alone and fails its cell."""
    r, floors, levels, is_, js, walk, order, suites, d_max = row
    forget()  # a row holds all of its r's cells, so no cell reads an older r's entries
    try:
        for k, floor in zip(floors, _floors(r, floors, order)):
            keep(_floor, (r, k, order), floor)
    except Exception:  # it raises again in each route or suite that reads it
        pass
    try:
        for level, family in zip(levels, _tower(r, levels, order)):
            keep(_family_at_level, (r, level, order), family)
    except Exception:  # each level is then climbed alone, and raises again, where it is read
        pass
    for J in js:
        ells = [r - i + 1 for i in is_]
        try:
            for i, sides in zip(is_, _lane_scans(r, J, ells, order)):
                keep(_ascending, (GordonParams(r, i, J), order), sides)
        except Exception:  # each cell of this J then scans alone, and raises again
            pass
        if walk is None:
            continue
        for i, clean in zip(is_, _lane_walks(r, J, ells, order, max(walk, J + 5))):
            if clean:  # else the cell walks alone, and fails where it did
                params = GordonParams(r, i, J)
                keep(_match, (params, max(walk, J + 1), order), True)
                keep(_ladder, (params, order), True)
    return [_scan_cell(GordonParams(r, i, J), order, suites, d_max) for i in is_ for J in js]


def _scan_cell(params: GordonParams, order: int, suites: tuple[str, ...], d_max: int) -> dict:
    *_, identity, mismatch = _compare_routes(params, order)
    suite_results = {suite: _suite_passes(suite, params, order, d_max) for suite in suites}
    passed = identity == "pass" and all(suite_results.values())
    return {
        "r": params.r,
        "i": params.i,
        "J": params.J,
        "verdict": "pass" if passed else "fail",
        "identity": identity,
        "suites": {k: ("pass" if v else "fail") for k, v in sorted(suite_results.items())},
        "mismatch": mismatch,
    }


def cmd_scan(args) -> int:
    if args.d_max < 0:
        raise UsageError("--d-max must be non-negative")
    if args.jobs < 1:
        raise UsageError("jobs must be at least 1")
    # an empty name, as in "a,,b" or a trailing comma, is an unknown suite
    suites = tuple(args.suites.split(",")) if args.suites else ()
    for k, s in enumerate(suites):
        if s not in SUITES:
            raise UsageError(f"unknown suite {s!r}; choose from {', '.join(SUITES)}")
        if s in suites[:k]:
            raise UsageError(f"suite {s!r} is named twice")
    order, rows = _plan(args, suites, args.d_max)
    rows = [(*row, order, suites, args.d_max) for row in rows]

    # a fork pool starts every worker up front, so never ask for idle ones
    workers = min(args.jobs, len(rows), os.cpu_count() or 1)
    if workers > 1:
        # the pool stack (multiprocessing, pickle, socket, ...) loads only here
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_scan_row, row) for row in rows]
        # each cell of a row whose worker died fails every check; one error line says why
        unfinished = {"verdict": "fail", "identity": "fail", "suites": dict.fromkeys(sorted(suites), "fail"), "mismatch": None}
        results, lost = [], []
        for (r, _, _, is_, js, *_), f in zip(rows, futures):
            dead = [{"r": r, "i": i, "J": J, **unfinished} for i in is_ for J in js] if f.exception() else []
            results += dead or f.result()
            lost += [f.exception()] * len(dead)
        if lost:
            print(f"error: {len(lost)} cells did not finish: {lost[0]!r}", file=sys.stderr)
    else:
        results = [cell for row in rows for cell in _scan_row(row)]

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
    order, [(r, _, _, [i], [J], _)] = _plan(args, tower=args.kind == "product")  # only it builds a tower
    series, error = _run_route(TABLE_KINDS[args.kind], GordonParams(r, i, J), order)
    if error:
        # a failing route fails the table as it fails a verify cell, without a traceback
        print(f"error: {error}", file=sys.stderr)
        return 1

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
    p_scan.add_argument("--i", default="all", help="i range, e.g. 1..2, or 'all' (clipped to r)")
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
    # a range such as "-1..2" in a word of its own reads as an option, so a
    # range flag takes the next word as its value, as in "--J=-1..2"
    words: list[str] = []
    for word in sys.argv[1:] if argv is None else argv:
        if words and words[-1] in ("--r", "--i", "--J"):
            words[-1] += "=" + word
        else:
            words.append(word)
    args = build_parser().parse_args(words)
    forget()  # every command starts cold
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
