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
a one-cell grid for ``verify`` and ``table``, and lists one ``_Row`` per r,
which works out the Hilbert floors and tower levels its cells read. Each
route and suite is called as ``(row, params)`` and reads what it needs
from the row; the suite functions take the row's readers (``_Row.floor``,
``_Row.level``) as arguments and scan or climb nothing themselves. ``scan`` runs each row once (``_scan_row``), in-process or in
a worker, and ``verify`` and ``table`` read their one row's one cell. A
row computes each side on its first read, for all of its cells at once:
r's floors and levels, and one ascending lane scan and one suite walk per J
(``partitions._lane_scans``, ``families._lane_walks``). Nothing outlives
the command that computed it.

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

from .families import _lane_walks, verify_expansion, verify_family_match, verify_valuations
from .hilbert import _floors, verify_hp_identities, verify_hp_recursion
from .partitions import GordonParams, _lane_scans
from .products import ProductIndex, _padded_order, _tower
from .qseries import PackedSeries, first_mismatch

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


class _Row:
    """The cells (r, i, J), i in ``is_`` and J in ``js``, run with
    ``suites``, and what they read, each side computed on its first read,
    for every cell at once, and kept: the floors ``floors`` from one
    ``_floors`` scan, the levels ``levels`` from one ``_tower`` climb, from
    the one the product route reads at (i_hi, J_lo), J-1 for i = r, else J,
    to the one it reads at (i_lo, J_hi), or J_hi+3 with expansion, per J the
    partition series, family limit and clean-walk verdict of each i from one
    lane scan and one suite walk to stage ``walk``, or to the ladder's J+5
    if later (``families._lane_walks``), and per floor
    the hp-identities verdict. A side that raised keeps its exception, and
    every read raises it again. A command's rows die with it, so every
    command starts cold."""

    def __init__(self, r: int, is_: range, js: range, order: int, suites: tuple[str, ...] = (), d_max: int = 0):
        self.r, self.is_, self.js, self.order, self.suites, self.d_max = r, is_, js, order, suites, d_max
        self.floors = range(js[-1] + max([1] + [_SUITE_FLOORS.get(s, 1) for s in suites]), js[0], -1)
        lo, hi = (ProductIndex(r, GordonParams(r, i, J).product_index).level for i, J in ((is_[-1], js[0]), (is_[0], js[-1])))
        self.levels = range(lo, (js[-1] + _EXPANSION_DEPTH if "expansion" in suites else hi) + 1)
        self.walk = d_max if "family-match" in suites else 0
        self._ells = [r - i + 1 for i in is_]
        self._sides: dict = {}

    def cells(self) -> list[GordonParams]:
        """The row's cells, i first, then J."""
        return [GordonParams(self.r, i, J) for i in self.is_ for J in self.js]

    def _side(self, key, compute):
        """Side ``key``, from ``compute()`` on its first read."""
        if key not in self._sides:
            try:
                self._sides[key] = compute()
            except Exception as exc:
                self._sides[key] = exc
        if isinstance(side := self._sides[key], Exception):
            raise side.with_traceback(None)
        return side

    def floor(self, k: int) -> tuple:
        """The layout and caps 1..r of floor k."""
        return self._side("floors", lambda: dict(zip(self.floors, _floors(self.r, self.floors, self.order))))[k]

    def level(self, L: int) -> tuple:
        """The layout and r entries of tower level L."""
        return self._side("levels", lambda: dict(zip(self.levels, _tower(self.r, self.levels, self.order))))[L]

    def ascending(self, p: GordonParams) -> tuple[PackedSeries, PackedSeries]:
        """The partition series and family limit of cell p."""
        return self._side(("scan", p.J), lambda: dict(zip(self.is_, _lane_scans(self.r, p.J, self._ells, self.order))))[p.i]

    def walked(self, p: GordonParams) -> bool:
        """Whether cell p's lane of its J's suite walk stayed clean."""
        return self._side(("walk", p.J), lambda: dict(zip(self.is_, _lane_walks(self.r, p.J, self._ells, self.order, self.walk))))[p.i]

    def hp_identities(self, k: int) -> bool:
        """The hp-identities verdict at floor k, which no i changes."""
        return self._side(("hp-identities", k), lambda: verify_hp_identities(self.r, k, self.order, self.floor))


def _entry(side: tuple, n: int) -> PackedSeries:
    """Entry n of a level's, or cap n+1 of a floor's, (layout, packed series)."""
    return PackedSeries(side[0], side[1][n])


# the four independent routes to the same series, each called as
# route(row, params) and reading the row; tests may patch entries
SERIES_ROUTES = {
    "product": lambda row, p: _entry(row.level((idx := ProductIndex(p.r, p.product_index)).level), idx.slot - 1),
    "partition": lambda row, p: row.ascending(p)[0],
    "hilbert": lambda row, p: _entry(row.floor(p.J + 1), p.i - 1),
    "family": lambda row, p: row.ascending(p)[1],
}

# the expansion suite compares product levels J..J+_EXPANSION_DEPTH with the floors one above
_EXPANSION_DEPTH = 3


# each extra property suite, called as check(row, params) -> bool
SUITE_CHECKS = {
    "hp-identities": lambda row, p: row.hp_identities(p.J + 1),
    "hp-recursion": lambda row, p: verify_hp_recursion(p.r, p.J + 1, p.i, row.order, row.floor),
    "family-match": lambda row, p: row.walked(p) or verify_family_match(p, max(row.d_max, p.J + 1), row.order),
    "expansion": lambda row, p: verify_expansion(p, p.J + _EXPANSION_DEPTH, row.order, row.floor, row.level),
    "valuation": lambda row, p: verify_valuations(p, row.order, row.floor, row.walked(p)),
}
SUITES = tuple(SUITE_CHECKS)
# the top floor above J each suite reads (_Row.floor); the hilbert route reads J+1
_SUITE_FLOORS = {"hp-identities": 2, "hp-recursion": 2, "valuation": 2, "expansion": _EXPANSION_DEPTH + 1}


def _run_route(name: str, row: _Row, params: GordonParams) -> tuple[PackedSeries | None, str | None]:
    """The route's series, or None and ``"Type: message"`` when it raises or
    returns anything but a series of the row's order."""
    try:
        series = SERIES_ROUTES[name](row, params)
        got = getattr(series, "order", None)
        if got != row.order:
            raise ValueError(f"the route returned order {got}, not {row.order}")
        return series, None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _compare_routes(row: _Row, params: GordonParams) -> tuple[dict, dict, dict, str, dict | None]:
    """Each route's series or error, by name, each route's seconds, the
    verdict, and the first mismatch among the series, or None. The series
    are compared with ``==``, which for packed series in slots of one width
    compares two ints; a mismatch between two such series is read from
    their XOR (``first_mismatch``) and their slots, so nothing is unpacked."""
    series, errors, seconds = {}, {}, {}
    for name in SERIES_ROUTES:
        start = time.perf_counter()
        s, error = _run_route(name, row, params)
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


def build_report(row: _Row) -> tuple[dict, dict[str, float]]:
    """The report ``verify --format json`` prints of the row's one cell, and
    each route's seconds. Each distinct series is digested once, and equal
    routes share it."""
    [params] = row.cells()
    series, errors, seconds, verdict, mismatch = _compare_routes(row, params)
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
        "order": row.order,
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


def _plan(args, suites: tuple[str, ...] = (), d_max: int = 0, tower: bool = True) -> tuple[int, list[_Row]]:
    """A command's order and rows, one ``_Row`` per r with cells, of the i's,
    clipped to r, and the J's of the request, run with ``suites`` and
    ``d_max``. Raises UsageError on an r, i or J out of range, an empty
    grid, and with ``tower`` a tower padded above MAX_PADDED_ORDER at level
    J_hi, or J_hi+3 with expansion; r_hi admits the most i, so the ranges'
    ends decide both."""
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
    js = range(j_lo, j_hi + 1)
    return order, [_Row(r, is_, js, order, suites, d_max) for r in range(r_lo, r_hi + 1) if (is_ := range(i_lo, min(r, i_hi) + 1))]


def cmd_verify(args) -> int:
    _, [row] = _plan(args)
    report, seconds = build_report(row)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report_text(report, seconds))
    return 0 if report["verdict"] == "pass" else 1


def _suite_passes(suite: str, row: _Row, params: GordonParams) -> bool:
    """A suite that raises counts as failed, like a mismatch."""
    try:
        return SUITE_CHECKS[suite](row, params)
    except Exception:
        return False


def _scan_row(row: _Row) -> list[dict]:
    """The reports of the row's cells, i first, then J."""
    return [_scan_cell(row, params) for params in row.cells()]


def _scan_cell(row: _Row, params: GordonParams) -> dict:
    *_, identity, mismatch = _compare_routes(row, params)
    suite_results = {suite: _suite_passes(suite, row, params) for suite in row.suites}
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
        for row, f in zip(rows, futures):
            dead = [{"r": p.r, "i": p.i, "J": p.J, **unfinished} for p in row.cells()] if f.exception() else []
            results += dead or f.result()
            lost += [f.exception()] * len(dead)
        if lost:
            print(f"error: {len(lost)} cells did not finish: {lost[0]!r}", file=sys.stderr)
    else:
        # each row goes once its cells are reported, so a scan holds one r at a time
        results = []
        while rows:
            results += _scan_row(rows.pop(0))

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
    _, [row] = _plan(args, tower=args.kind == "product")  # only it builds a tower
    series, error = _run_route(TABLE_KINDS[args.kind], row, *row.cells())
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
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
