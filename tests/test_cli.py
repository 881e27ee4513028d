import argparse
import concurrent.futures
import gc
import hashlib
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from rrgordon import cli, families, hilbert, partitions, products
from rrgordon.cli import SERIES_ROUTES, SUITE_CHECKS, build_report, main
from rrgordon.families import family_limit, verify_valuations
from rrgordon.hilbert import gordon_quotient, hp_series
from rrgordon.partitions import GordonParams, gordon_series
from rrgordon.products import ProductIndex, product_series
from rrgordon.qseries import NonDivisibleError, PackedSeries, TruncatedSeries, _PackedLayout


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cell_row(params, N):
    """A row of one cell alone."""
    return cli._Row(params.r, range(params.i, params.i + 1), range(params.J, params.J + 1), N)


def route_series(name, params, N):
    """The route's series of one cell, read from a row of that cell alone."""
    return SERIES_ROUTES[name](cell_row(params, N), params)


def record_rows(monkeypatch) -> list:
    """Every ``cli._Row`` that a scan cell reads from here on, once each, in
    the order of their first cells."""
    rows, scan_cell = [], cli._scan_cell

    def recorded(row, params, *args):
        assert row.r == params.r
        if not any(row is seen for seen in rows):
            rows.append(row)
        return scan_cell(row, params, *args)

    monkeypatch.setattr(cli, "_scan_cell", recorded)
    return rows


@pytest.mark.parametrize(
    "r,i,J,order", [(2, 2, 0, 30), (3, 2, 2, 40)]
)
def test_verify_passes(capsys, r, i, J, order):
    code, out, _ = run(
        capsys, "verify", "--r", str(r), "--i", str(i), "--J", str(J),
        "--order", str(order),
    )
    assert code == 0
    assert "verdict: PASS" in out
    assert out.count("PASS") == 1


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--r", "3", "--i", "2", "--J", "1", "--order", "25",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["params"] == {"r": 3, "i": 2, "J": 1, "ell": 2, "index": 4}
    fps = {r["fingerprint"] for r in payload["routes"].values()}
    assert len(fps) == 1
    assert payload["mismatch"] is None


def test_verify_json_deterministic(capsys):
    args = ("verify", "--r", "2", "--i", "1", "--J", "0", "--order", "20", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--r", "1", "--i", "1", "--J", "0"),
        ("verify", "--r", "3", "--i", "4", "--J", "0"),
        ("verify", "--r", "3", "--i", "2", "--J", "-1"),
        ("verify", "--r", "2", "--i", "2", "--J", "0", "--order", "-5"),
    ],
)
def test_verify_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err


def test_verify_reports_first_mismatch(capsys, monkeypatch):
    def broken(row, params):
        coeffs = list(SERIES_ROUTES["partition"](row, params).coeffs)
        coeffs[7] += 1
        return TruncatedSeries(tuple(coeffs))

    monkeypatch.setitem(SERIES_ROUTES, "family", broken)
    code, out, _ = run(capsys, "verify", "--r", "2", "--i", "2", "--J", "0", "--order", "20")
    assert code == 1
    assert "verdict: FAIL" in out
    assert "exponent 7" in out


def test_verify_route_error_fails(capsys, monkeypatch):
    def exploding(row, params):
        raise NonDivisibleError("coefficient 1 at exponent 0 blocks division by q^2")

    monkeypatch.setitem(SERIES_ROUTES, "product", exploding)
    code, out, _ = run(capsys, "verify", "--r", "2", "--i", "2", "--J", "0", "--order", "10")
    assert code == 1
    assert "ERROR" in out


def test_mismatch_and_errors_with_two_bumped_routes_and_a_crash(capsys, monkeypatch):
    originals = dict(SERIES_ROUTES)

    def bumped(route, exponent):
        def series(row, params):
            coeffs = list(originals[route](row, params).coeffs)
            coeffs[exponent] += 1
            return TruncatedSeries(tuple(coeffs))
        return series

    def crashing(row, params):
        raise RuntimeError("tower fell over")

    monkeypatch.setitem(SERIES_ROUTES, "product", crashing)
    monkeypatch.setitem(SERIES_ROUTES, "hilbert", bumped("hilbert", 9))
    monkeypatch.setitem(SERIES_ROUTES, "family", bumped("family", 4))
    code, out, _ = run(
        capsys, "verify", "--r", "2", "--i", "2", "--J", "0", "--order", "20", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    # the first route that computed is compared with each later one in turn
    assert payload["mismatch"] == {
        "routes": ["partition", "hilbert"], "exponent": 9, "coefficients": ["5", "6"],
    }
    errors = {name: route["error"] for name, route in payload["routes"].items()}
    assert errors == {
        "product": "RuntimeError: tower fell over", "partition": None, "hilbert": None, "family": None,
    }


def test_route_crash_stays_in_report(capsys, monkeypatch):
    def crashing(row, params):
        raise RuntimeError("entry 1 failed to stabilize")

    monkeypatch.setitem(SERIES_ROUTES, "family", crashing)
    code, out, _ = run(
        capsys, "verify", "--r", "2", "--i", "2", "--J", "0", "--order", "10", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    assert payload["routes"]["family"]["error"] == "RuntimeError: entry 1 failed to stabilize"
    code, out, _ = run(capsys, "scan", "--r", "2", "--J", "0..1", "--order", "10")
    assert code == 1
    assert "0/4 cells passed" in out


def test_suite_crash_counts_as_fail(capsys, monkeypatch):
    def crashing(row, params):
        raise RuntimeError("suite blew up")

    monkeypatch.setitem(SUITE_CHECKS, "valuation", crashing)
    code, out, _ = run(
        capsys, "scan", "--r", "2", "--i", "1", "--J", "0", "--order", "10",
        "--suites", "valuation,hp-recursion",
    )
    assert code == 1
    assert "hp-recursion=pass valuation=fail" in out


def test_build_report_detects_divergence():
    report, _ = build_report(cell_row(GordonParams(2, 2, 0), 15))
    assert report["verdict"] == "pass"
    assert report["mismatch"] is None
    assert set(report["routes"]) == {"product", "partition", "hilbert", "family"}


def test_build_report_digests_each_distinct_series_once(monkeypatch):
    digest, digested = TruncatedSeries.fingerprint, []

    def counted(self):
        digested.append(self.coeffs)
        return digest(self)

    monkeypatch.setattr(TruncatedSeries, "fingerprint", counted)
    params = GordonParams(3, 2, 1)
    report, _ = build_report(cell_row(params, 30))
    assert report["verdict"] == "pass" and len(digested) == 1
    fingerprints = {route["fingerprint"] for route in report["routes"].values()}
    assert fingerprints == {digest(route_series("partition", params, 30))}

    # a bumped route gets its own digest, and only the bumped exponent differs
    def bumped(row, params):
        coeffs = list(SERIES_ROUTES["partition"](row, params).coeffs)
        coeffs[11] += 1
        return TruncatedSeries(tuple(coeffs))

    monkeypatch.setitem(SERIES_ROUTES, "hilbert", bumped)
    digested.clear()
    report, _ = build_report(cell_row(params, 30))
    assert len(digested) == 2 and report["mismatch"]["exponent"] == 11
    assert report["routes"]["hilbert"]["fingerprint"] == digest(bumped(cell_row(params, 30), params))
    assert report["routes"]["product"]["fingerprint"] == report["routes"]["family"]["fingerprint"]


def test_a_passing_scan_unpacks_and_digests_nothing(capsys, monkeypatch):
    # the routes hand over packed series, and a scan cell compares their ints;
    # only verify prints a fingerprint and leading coefficients
    unpack, digest = _PackedLayout.unpack, TruncatedSeries.fingerprint
    unpacked, digested = [], []
    monkeypatch.setattr(_PackedLayout, "unpack", lambda self, x: unpacked.append(x) or unpack(self, x))
    monkeypatch.setattr(TruncatedSeries, "fingerprint", lambda self: digested.append(self) or digest(self))
    code, out, _ = run(
        capsys, "scan", "--r", "2..5", "--i", "all", "--J", "0..3", "--order", "20",
        "--suites", ",".join(cli.SUITES), "--format", "json",
    )
    assert (code, json.loads(out)["passed"]) == (0, 56)
    assert (len(unpacked), len(digested)) == (0, 0)
    code, out, _ = run(capsys, "verify", "--r", "3", "--i", "2", "--J", "1", "--order", "20")
    assert code == 0 and "verdict: PASS" in out
    assert (len(unpacked), len(digested)) == (1, 1)


def packed_route(name, slot=None, extra_bits=0):
    """The route's packed series, with slot ``slot`` bumped by one, then
    moved into slots ``extra_bits`` wider."""
    original = SERIES_ROUTES[name]

    def series(row, params):
        s = original(row, params)
        layout, x = s.layout, s.packed
        if slot is not None:
            x += 1 << slot * layout.bits
        if extra_bits:
            wide = _PackedLayout(row.order, params.r, layout.bits + extra_bits)
            layout, x = wide, wide.reslot(x, layout)
        return PackedSeries(layout, x)

    return series


# slot 19 of order 30 holds q^11; routes that hand over coefficients gave this
BUMPED_AT_11 = {"exponent": 11, "routes": ["product", "hilbert"], "coefficients": ["8", "9"]}


@pytest.mark.parametrize(
    "slot,extra_bits,mismatch", [(19, 0, BUMPED_AT_11), (None, 8, None), (19, 8, BUMPED_AT_11)],
    ids=["bumped", "wider", "bumped-wider"],
)
def test_packed_routes_compare_by_coefficients(capsys, monkeypatch, slot, extra_bits, mismatch):
    # one width compares ints, two widths compare coefficients; either way a
    # mismatch names the exponent and coefficients that differ
    monkeypatch.setitem(SERIES_ROUTES, "hilbert", packed_route("hilbert", slot, extra_bits))
    cell = ["--r", "3", "--i", "2", "--J", "1", "--order", "30"]
    code, out, _ = run(capsys, "verify", *cell, "--format", "json")
    payload = json.loads(out)
    assert (code, payload["mismatch"]) == (int(mismatch is not None), mismatch)
    fingerprints = {route["fingerprint"] for route in payload["routes"].values()}
    assert len(fingerprints) == 1 + (mismatch is not None)
    code, out, _ = run(capsys, "scan", *cell, "--format", "json")
    [cell] = json.loads(out)["cells"]
    assert (code, cell["mismatch"]) == (int(mismatch is not None), mismatch)


@pytest.mark.parametrize("exponent", [0, 15, 30])
def test_a_packed_bump_is_read_from_the_xor_and_the_slots(capsys, monkeypatch, exponent):
    # slot 30-n of order 30 holds q^n; a scan cell finds the first mismatch
    # from the XOR of two ints and reads both coefficients from their slots,
    # unpacking nothing, and verify reports the same mismatch
    c = gordon_series(GordonParams(3, 2, 1), 30).coeffs[exponent]
    want = {"exponent": exponent, "routes": ["product", "hilbert"], "coefficients": [str(c), str(c + 1)]}
    monkeypatch.setitem(SERIES_ROUTES, "hilbert", packed_route("hilbert", 30 - exponent))
    unpack, unpacked = _PackedLayout.unpack, []
    monkeypatch.setattr(_PackedLayout, "unpack", lambda self, x: unpacked.append(x) or unpack(self, x))
    cell = ["--r", "3", "--i", "2", "--J", "1", "--order", "30", "--format", "json"]
    code, out, _ = run(capsys, "scan", *cell)
    [result] = json.loads(out)["cells"]
    assert (code, result["mismatch"], unpacked) == (1, want, [])
    code, out, _ = run(capsys, "verify", *cell)
    assert (code, json.loads(out)["mismatch"]) == (1, want)


@pytest.mark.parametrize("route,kind", [("product", "product"), ("partition", "counts"), ("hilbert", "hilbert")])
def test_a_series_one_order_short_fails_closed(capsys, monkeypatch, route, kind):
    # the short series is a true prefix, so no exponent they share differs:
    # slot 0, which holds q^N, is shifted off
    original = SERIES_ROUTES[route]

    def short(row, p):
        s = original(row, p)
        return PackedSeries(_PackedLayout(row.order - 1, p.r, s.layout.bits), s.packed >> s.layout.bits)

    monkeypatch.setitem(SERIES_ROUTES, route, short)
    cell = ["--r", "3", "--i", "2", "--J", "1", "--order", "20"]
    code, out, _ = run(capsys, "verify", *cell, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail" and payload["mismatch"] is None
    assert payload["routes"][route]["error"] == "ValueError: the route returned order 19, not 20"
    code, out, err = run(capsys, "table", "--kind", kind, *cell)
    assert code == 1
    assert out == ""
    assert err == "error: ValueError: the route returned order 19, not 20\n"


@pytest.mark.parametrize("route", ["product", "partition", "hilbert", "family"])
def test_a_route_that_returns_no_series_fails_its_cell(capsys, monkeypatch, route):
    monkeypatch.setitem(SERIES_ROUTES, route, lambda row, p: None)
    code, out, _ = run(capsys, "verify", "--r", "2", "--i", "2", "--J", "0", "--order", "10")
    assert code == 1
    assert f"{route:<10} ERROR ValueError: the route returned order None, not 10" in out
    assert out.endswith("verdict: FAIL\n")
    code, out, _ = run(capsys, "scan", "--r", "2", "--J", "0", "--order", "10")
    assert code == 1
    assert "0/2 cells passed" in out


def test_scan_counts_cells(capsys):
    code, out, _ = run(capsys, "scan", "--r", "2..4", "--J", "0..2", "--order", "15")
    assert code == 0
    assert "27/27 cells passed at order 15" in out


def test_scan_order_zero_trivially_passes(capsys):
    code, out, _ = run(capsys, "scan", "--r", "2..3", "--J", "0..1", "--order", "0")
    assert code == 0
    assert "10/10 cells passed" in out
    # at orders 0 and 1 the family walk ends at stage J+2 or J+3, before the
    # expansion suite's J+3 and the valuation suite's J+5; both walk on
    suites = "hp-identities,hp-recursion,family-match,expansion,valuation"
    for order in ("0", "1"):
        code, out, _ = run(capsys, "scan", "--r", "2..3", "--J", "0..1", "--order", order, "--suites", suites)
        assert code == 0
        assert "10/10 cells passed" in out, order


def test_scan_i_range_clipped(capsys):
    code, out, _ = run(capsys, "scan", "--r", "2..3", "--i", "2..5", "--J", "0", "--order", "10")
    assert code == 0
    # r=2 contributes i=2 only; r=3 contributes i=2,3
    assert "3/3 cells passed" in out


def test_scan_parallel_output_matches_serial(capsys):
    base = ("scan", "--r", "2..3", "--J", "0..1", "--order", "12", "--format", "json")
    _, serial, _ = run(capsys, *base, "--jobs", "1")
    _, parallel, _ = run(capsys, *base, "--jobs", "2")
    assert serial == parallel


def test_scan_with_suites(capsys):
    code, out, _ = run(
        capsys, "scan", "--r", "2", "--J", "0", "--order", "15",
        "--suites", "hp-identities,hp-recursion,family-match,expansion,valuation",
    )
    assert code == 0
    assert "family-match=pass" in out


def test_scan_rejects_unknown_suite(capsys):
    code, _, err = run(capsys, "scan", "--r", "2", "--suites", "nonsense")
    assert code == 2
    assert "unknown suite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--r", "5..2"),
        ("scan", "--J", "3..1"),
        ("scan", "--r", "2", "--i", "7..9"),
        ("scan", "--r", "2", "--d-max", "-1"),
        ("scan", "--r", "2", "--suites", "valuation,valuation"),
        ("scan", "--r", "2", "--suites", ","),
        ("scan", "--r", "2", "--suites", "expansion,"),
        ("scan", "--r", "2", "--suites", "valuation,,expansion"),
        ("scan", "--r", "2..x"),
        ("scan", "--r", "1..3"),
        ("scan", "--J=-1..2"),
        ("scan", "--r", "2", "--jobs", "0"),
        # a range flag takes the next word even when it starts with "-"
        ("scan", "--J", "-1..2"),
        ("scan", "--r", "-1..3"),
        ("scan", "--i", "0..1"),
        ("scan", "--i", "-1..2"),
    ],
)
def test_scan_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_scan_fails_nonzero(capsys, monkeypatch):
    monkeypatch.setitem(
        SERIES_ROUTES, "family", lambda row, p: TruncatedSeries((1,) + (0,) * row.order)
    )
    code, out, _ = run(capsys, "scan", "--r", "2", "--J", "0..1", "--order", "10")
    assert code == 1
    assert "FAIL" in out


def test_table_csv_golden(capsys):
    code, out, _ = run(
        capsys, "table", "--kind", "counts", "--r", "2", "--i", "2", "--J", "0", "--order", "5"
    )
    assert code == 0
    assert out == "n,value\n0,1\n1,1\n2,1\n3,1\n4,2\n5,2\n"


def test_table_kinds_agree(capsys):
    outs = []
    for kind in ("counts", "product", "hilbert"):
        _, out, _ = run(
            capsys, "table", "--kind", kind, "--r", "3", "--i", "2", "--J", "1",
            "--order", "12",
        )
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_table_json_is_series_format(capsys):
    code, out, _ = run(
        capsys, "table", "--kind", "hilbert", "--r", "2", "--i", "1", "--J", "0",
        "--order", "4", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"order": 4, "coeffs": ["1", "0", "1", "1", "1"]}


def test_table_out_file(tmp_path, capsys):
    target = tmp_path / "counts.csv"
    code, out, _ = run(
        capsys, "table", "--kind", "counts", "--r", "2", "--i", "2", "--J", "0",
        "--order", "3", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "n,value\n0,1\n1,1\n2,1\n3,1\n"


def test_table_out_unwritable_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(
        capsys, "table", "--kind", "counts", "--r", "2", "--i", "2", "--J", "0",
        "--order", "3", "--out", str(target),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert not target.exists()


@pytest.mark.parametrize("out", [False, True])
def test_table_route_crash_is_one_error_line(tmp_path, capsys, monkeypatch, out):
    def crashing(row, params):
        raise ArithmeticError("a 8-bit slot reached its guard bits")

    monkeypatch.setitem(SERIES_ROUTES, "partition", crashing)
    target = tmp_path / "counts.csv"
    argv = ["table", "--kind", "counts", "--r", "2", "--i", "2", "--J", "0", "--order", "3"]
    code, stdout, err = run(capsys, *argv, *(["--out", str(target)] if out else []))
    assert code == 1
    assert stdout == ""
    assert err == "error: ArithmeticError: a 8-bit slot reached its guard bits\n"
    assert not target.exists()


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    opened: list[int] = []

    def __init__(self, max_workers):
        RecordingExecutor.opened.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, item):
        future = concurrent.futures.Future()
        future.set_result(fn(item))
        return future


@pytest.mark.parametrize(
    "jobs,grid,cpus,opened",
    [
        ("64", ("--r", "2", "--J", "0"), 8, []),  # 1 r, 2 cells
        ("3", ("--r", "2..3", "--J", "0..1"), 8, [2]),  # 2 r's, 10 cells
        ("4", ("--r", "2..3", "--J", "0..1"), 2, [2]),
        ("4", ("--r", "2..3", "--J", "0..1"), 1, []),
        ("4", ("--r", "2", "--i", "1", "--J", "0"), 8, []),  # 1 cell
        ("8", ("--r", "2..5", "--J", "0"), 3, [3]),  # 4 r's
        ("2", ("--r", "2..5", "--J", "0"), 8, [2]),
    ],
)
def test_scan_jobs_clamped(capsys, monkeypatch, jobs, grid, cpus, opened):
    # the pool runs one task per r, so it opens no more workers than the grid has r's
    # cmd_scan imports the executor when it opens workers, so patch its source
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(RecordingExecutor, "opened", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    code, out, _ = run(capsys, "scan", *grid, "--order", "8", "--jobs", jobs)
    assert code == 0
    assert "cells passed" in out
    assert RecordingExecutor.opened == opened


_COLD_START = """
import contextlib, io, json, os, sys
from rrgordon.cli import main

def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()

scan = ("scan", "--r", "2..3", "--J", "0", "--order", "10", "--format", "json")
verify = run("verify", "--r", "3", "--i", "2", "--J", "1", "--order", "30", "--format", "json")
serial = run(*scan, "--jobs", "1")
pool_before = sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing"))
os.cpu_count = lambda: 2
parallel = run(*scan, "--jobs", "2")
opened = "concurrent.futures.process" in sys.modules
print(json.dumps([verify[0], serial, parallel, pool_before, opened]))
"""


def test_cold_start_loads_no_worker_pool():
    # a fresh interpreter, so nothing this test process imported counts
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", _COLD_START], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    verify_code, serial, parallel, pool_before, opened = json.loads(proc.stdout)
    assert verify_code == 0 and serial[0] == 0
    # verify and a one-worker scan leave concurrent.futures and multiprocessing unloaded
    assert pool_before == []
    # two workers load the pool and print the same bytes
    assert opened
    assert parallel == serial


_PACKAGE_ONLY = """
import json, sys
loaded = lambda: sorted(m for m in sys.modules if m.startswith("rrgordon."))
import rrgordon
package = loaded()
import rrgordon.cli
print(json.dumps([package, loaded()]))
"""


def test_importing_the_package_loads_no_module():
    # a fresh interpreter, so nothing this test process imported counts
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", _PACKAGE_ONLY], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    package, cli_modules = json.loads(proc.stdout)
    assert package == []
    # the CLI loads its modules itself
    names = ("cli", "families", "hilbert", "partitions", "products", "qseries")
    assert cli_modules == [f"rrgordon.{name}" for name in names]


def test_order_env_var_default(capsys, monkeypatch):
    monkeypatch.setenv("RRGORDON_ORDER", "6")
    _, out, _ = run(capsys, "table", "--kind", "counts", "--r", "2", "--i", "2", "--J", "0")
    assert out.strip().splitlines()[-1] == "6,3"
    # an explicit flag wins over the environment
    _, out, _ = run(
        capsys, "table", "--kind", "counts", "--r", "2", "--i", "2", "--J", "0",
        "--order", "2",
    )
    assert out == "n,value\n0,1\n1,1\n2,1\n"


def test_order_env_var_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("RRGORDON_ORDER", "soon")
    code, _, err = run(capsys, "verify", "--r", "2", "--i", "2", "--J", "0")
    assert code == 2
    assert "RRGORDON_ORDER" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--r", "2", "--i", "2", "--J", "0"),
        ("scan", "--r", "2", "--J", "0"),
        ("table", "--kind", "counts", "--r", "2", "--i", "2", "--J", "0"),
    ],
)
def test_order_above_max_is_usage_error(capsys, monkeypatch, argv):
    above = str(cli.MAX_ORDER + 1)
    code, out, err = run(capsys, *argv, "--order", above)
    assert (code, out) == (2, "")
    assert f"at most {cli.MAX_ORDER}" in err
    monkeypatch.setenv("RRGORDON_ORDER", above)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"at most {cli.MAX_ORDER}" in err


def test_max_order_is_accepted():
    # the order-2000 baselines must stay runnable
    assert cli.MAX_ORDER >= 2000
    assert cli._order_from(argparse.Namespace(order=cli.MAX_ORDER)) == cli.MAX_ORDER


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--r", "2", "--i", "1", "--J", "160", "--order", "50"),
        ("table", "--kind", "product", "--r", "2", "--i", "1", "--J", "160", "--order", "50"),
        ("scan", "--r", "2..3", "--J", "0..160", "--order", "50"),
    ],
)
def test_padded_order_above_max_is_usage_error(capsys, monkeypatch, argv):
    # J = 160 pads the r = 2 tower to order 50 + 160*161/2 = 12930
    ran = []
    for name in SERIES_ROUTES:
        monkeypatch.setitem(SERIES_ROUTES, name, lambda row, p, name=name: ran.append(name))
    code, out, err = run(capsys, *argv)
    assert (code, out, ran) == (2, "", [])
    assert err.startswith("error: ") and f"above {cli.MAX_PADDED_ORDER}" in err


@pytest.mark.parametrize("kind", ["counts", "hilbert"])
def test_table_of_a_towerless_kind_ignores_the_padded_order(capsys, kind):
    # r = 5, J = 60 would pad a product tower to order 200 + 4*60*61/2 = 7520
    code, out, err = run(capsys, "table", "--kind", kind, "--r", "5", "--i", "1", "--J", "60", "--order", "200")
    want = gordon_series(GordonParams(5, 1, 60), 200).coeffs
    assert (code, err) == (0, "")
    assert out == "n,value\n" + "".join(f"{n},{c}\n" for n, c in enumerate(want))


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--i", "1", "--J", "0", "--order", "10", "--r", "{}"),
        ("table", "--kind", "counts", "--i", "1", "--J", "0", "--order", "10", "--r", "{}"),
        ("scan", "--J", "0", "--order", "10", "--r", "{}"),
        ("scan", "--J", "0", "--order", "10", "--r", "2..{}"),
    ],
)
def test_r_above_max_is_usage_error(capsys, monkeypatch, argv):
    ran = []
    for name in SERIES_ROUTES:
        monkeypatch.setitem(SERIES_ROUTES, name, lambda row, p, name=name: ran.append(name))
    code, out, err = run(capsys, *(a.format(cli.MAX_R + 1) for a in argv))
    assert (code, out, ran) == (2, "", [])
    assert err.startswith("error: ") and f"at most {cli.MAX_R}" in err


def test_max_r_is_accepted(capsys):
    code, out, _ = run(capsys, "verify", "--r", str(cli.MAX_R), "--i", "1", "--J", "0", "--order", "10")
    assert code == 0 and "verdict: PASS" in out


def test_cell_at_max_padded_order_is_accepted(capsys):
    # the deepest r = 2 tower at the limit; only the product kind builds one
    J = max(j for j in range(200) if j * (j + 1) // 2 <= cli.MAX_PADDED_ORDER)
    order = cli.MAX_PADDED_ORDER - J * (J + 1) // 2
    argv = ("table", "--kind", "product", "--r", "2", "--i", "1", "--J", str(J))
    code, _, _ = run(capsys, *argv, "--order", str(order))
    assert code == 0
    code, out, _ = run(capsys, *argv, "--order", str(order + 1))
    assert (code, out) == (2, "")


def test_max_padded_order_admits_the_baselines():
    # verify at r=5, J=30, order 200 pads to 2060; the 56-cell grid
    # (r <= 5, J <= 3) at MAX_ORDER pads to 2024, and to 2084 at level J+3
    # with the expansion suite
    order, [row] = cli._plan(argparse.Namespace(r=5, i=1, J=30, order=200))
    assert (order, row.r, row.floors, row.levels, row.is_, row.js, row.walk, row.cells()) == (
        200, 5, range(31, 30, -1), range(30, 31), range(1, 2), range(30, 31), 0, [GordonParams(5, 1, 30)]
    )
    grid = argparse.Namespace(r="2..5", i="all", J="0..3", order=cli.MAX_ORDER)
    for suites in ((), cli.SUITES):
        order, rows = cli._plan(grid, suites)
        assert order == cli.MAX_ORDER and [row.r for row in rows] == [2, 3, 4, 5]
        assert sum(len(row.cells()) for row in rows) == 56


def test_huge_d_max_gives_the_same_bytes(capsys, step_values):
    # family-match stops at stage J+N+2, where the walks turn constant; a
    # walk past its step cap fails the suite instead of hanging it
    argv = ("scan", "--r", "2", "--i", "1", "--J", "0", "--order", "10", "--suites", "family-match")
    small = run(capsys, *argv, "--format", "json", "--d-max", "10")
    huge = run(capsys, *argv, "--format", "json", "--d-max", str(10**12))
    assert small[0] == 0 and huge == small


def test_expansion_suite_is_checked_at_its_deepest_level(capsys, monkeypatch):
    # J = 42 at order 388 pads the r = 5 tower to exactly 4000; the
    # expansion suite reads level J+3, which pads to 388 + 4*45*46/2 = 4528
    ran = []
    for name in SERIES_ROUTES:
        monkeypatch.setitem(SERIES_ROUTES, name, lambda row, p, name=name: ran.append(name))
    monkeypatch.setitem(SUITE_CHECKS, "expansion", lambda row, p: ran.append("expansion"))
    argv = ("scan", "--r", "5", "--i", "1", "--J", "42", "--order", "388")
    code, out, err = run(capsys, *argv, "--suites", "expansion")
    assert (code, out, ran) == (2, "", [])
    assert "order 4528" in err and f"above {cli.MAX_PADDED_ORDER}" in err


def test_cell_at_max_padded_order_without_expansion_passes(capsys):
    others = tuple(s for s in cli.SUITES if s != "expansion")
    assert len(cli._plan(argparse.Namespace(r=5, i=1, J=42, order=388), others)[1]) == 1
    code, out, _ = run(capsys, "scan", "--r", "5", "--i", "1", "--J", "42", "--order", "388")
    assert (code, out.splitlines()[-1]) == (0, "1/1 cells passed at order 388")


def test_valuation_suite_fails_on_a_step_one_slot_short(capsys, monkeypatch):
    step = _PackedLayout.step

    def short(self, state, u):
        # each entry after the first divided by q, its q^0 coefficient dropped
        new = step(self, state, u)
        return new[:1] + [self.pack(self.unpack(x)[1:] + (0,)) for x in new[1:]]

    # the suite is handed its hp tail, computed by the correct step, so only
    # the family ladder can fail it
    floor = hilbert._floor(3, 3, 20)
    monkeypatch.setattr(_PackedLayout, "step", short)
    assert not verify_valuations(GordonParams(3, 2, 1), 20, lambda k: floor)
    # a command computes its own, so there the short step computes the hp tail too
    argv = ("scan", "--r", "3", "--i", "2", "--J", "1", "--order", "20", "--suites", "valuation")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    assert json.loads(out)["cells"][0]["suites"] == {"valuation": "fail"}


@pytest.mark.parametrize(
    "order,want",
    [
        (0, "4f631e467c334f04402fc544769b32c3fbba079e0b9fe42775c6455596c39112"),
        (1, "e741ed51bf31f20f26bba789dde36803e17e32e4949ea77d078e1edfa4d238fd"),
        (2, "7c8451f98764996c02495f94ed12d711f462427683fef1a27399fae6453ad6a7"),
        (3, "c9954e78599875138e81e7cbec793b5d328ccaf215890c9db05f679e544bde44"),
    ],
)
def test_five_suite_scan_keeps_its_bytes_at_orders_0_to_3(capsys, order, want):
    # the family walk ends at stage J+N+2 <= J+5, no later than the valuation
    # suite's fifth stage; sha256 of the exit code and stdout, as in test_golden.py
    argv = ("scan", "--r", "2..5", "--i", "all", "--J", "0..3", "--order", str(order),
            "--suites", "hp-identities,hp-recursion,family-match,expansion,valuation", "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == want


def count_descending_scans(monkeypatch) -> list[tuple[int, int]]:
    """(r, floor) of every descending scan from here on: one per row whose
    cells read a floor, to the row's top floor."""
    scan, scans = partitions._growing_scan, []

    def counted(r, N, values, *args):
        if values.step < 0:
            scans.append((r, values.stop + 1))
        return scan(r, N, values, *args)

    monkeypatch.setattr(hilbert, "_growing_scan", counted)
    return scans


def test_five_suite_scan_runs_one_hilbert_scan_per_r(capsys, monkeypatch):
    # every cap at floor k is a prefix sum of one descending scan N..k, and
    # floor k is floor k+1 after one more step; the grid reads floors
    # J+1..J+4 for J = 0..3, and each r's row reads floors 7..1
    # from one scan to 7: 4 scans, where one per floor ran 28 and one DP per
    # quotient and order 118
    scans = count_descending_scans(monkeypatch)
    argv = ("scan", "--r", "2..5", "--i", "all", "--J", "0..3", "--order", "12",
            "--suites", ",".join(cli.SUITES))
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert scans == [(r, 7) for r in range(2, 6)]


def test_verify_runs_one_hilbert_scan(capsys, monkeypatch):
    scans = count_descending_scans(monkeypatch)
    code, _, _ = run(capsys, "verify", "--r", "3", "--i", "2", "--J", "1", "--order", "500")
    assert (code, scans) == (0, [(3, 2)])


def test_verify_steps_the_values_up_to_half_the_order(capsys, step_values):
    # a vector of weight at most N = 500 has at most one part above 250, so
    # both scans sum those values in closed form: the ascending scan steps
    # 2..250, the family walk goes on from its stage-500 states to 502, and
    # the descending scan steps 250..2; a widened value is stepped twice
    code, _, _ = run(capsys, "verify", "--r", "3", "--i", "2", "--J", "1", "--order", "500")
    stepped = [u for u, _ in itertools.groupby(step_values)]
    assert (code, stepped) == (0, [*range(2, 251), 501, 502, *range(250, 1, -1)])


def test_a_floor_fill_that_raises_fails_its_cells(capsys, monkeypatch):
    # each r's row scans its floors; a scan that raises leaves each route
    # and suite that reads a floor to raise and fail its cell, with no
    # traceback
    def failing(*args):
        raise ArithmeticError("a 8-bit slot reached its guard bits")

    monkeypatch.setattr(hilbert, "_growing_scan", failing)
    argv = ("scan", "--r", "2", "--J", "0", "--order", "10", "--suites", "valuation,family-match", "--format", "json")
    code, out, _ = run(capsys, *argv)
    cells = json.loads(out)["cells"]
    assert code == 1 and len(cells) == 2
    for cell in cells:
        assert (cell["identity"], cell["suites"]) == ("fail", {"family-match": "pass", "valuation": "fail"})


def test_a_floor_fill_that_raises_runs_once_per_r(capsys, monkeypatch, tower_climbs):
    # a row scans its floors once, for all of its cells, and keeps the
    # error, which every cell's hilbert route and expansion suite reads:
    # one climb and one scan, where a memo that kept no error ran 13 scans,
    # and a fill per cell ran 6 climbs and 18 scans. The digest is sha256 of
    # the exit code and stdout, as in test_golden.py
    scans = []

    def failing(*args):
        scans.append(args)
        raise ArithmeticError("a 8-bit slot reached its guard bits")

    monkeypatch.setattr(hilbert, "_growing_scan", failing)
    argv = ("scan", "--r", "3", "--i", "all", "--J", "0..1", "--order", "10", "--suites", "expansion", "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert (code, len(tower_climbs), len(scans)) == (1, 1, 1)
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == "cc559cc2398f1a33ae02672eae133fcfc3f359d24b75b90fa63ac094aae7235b"


@pytest.mark.parametrize(
    "grid,climbs",
    [
        # to level J+3 = 6 that the expansion suite reads: 4 climbs, where one per level ran 28
        (("--r", "2..5", "--J", "0..3", "--suites", ",".join(cli.SUITES)), [(r, range(0, 7)) for r in range(2, 6)]),
        # from level J-1 = 0 that the product route of i = r = 3 reads at J = 1
        (("--r", "3", "--J", "1..2"), [(3, range(0, 3))]),
    ],
    ids=["five-suites", "from-J-1"],
)
def test_a_scan_climbs_one_tower_per_r(capsys, tower_climbs, grid, climbs):
    # each r's row climbs its tower once, to the deepest level the grid
    # reads, and hands its cells every level they read
    code, _, _ = run(capsys, "scan", "--i", "all", "--order", "60", *grid)
    assert (code, tower_climbs) == (0, climbs)


def test_verify_climbs_one_level(capsys, tower_climbs):
    code, _, _ = run(capsys, "verify", "--r", "3", "--i", "2", "--J", "1", "--order", "60")
    assert (code, tower_climbs) == (0, [(3, range(1, 2))])


@pytest.mark.parametrize(
    "argv,climbs",
    [
        # no i = r: from level J_lo = 3, not J_lo - 1
        (("scan", "--r", "5", "--i", "1..2", "--J", "3..5"), [(5, range(3, 6))]),
        # r = 2 has i = r = 2 alone: levels J-1, up to J_hi - 1 = 4
        (("scan", "--r", "2..6", "--i", "2..6", "--J", "3..5"), [(2, range(2, 5))] + [(r, range(2, 6)) for r in range(3, 7)]),
        # one cell of i = r: its one level J-1
        (("verify", "--r", "5", "--i", "5", "--J", "3"), [(5, range(2, 3))]),
        (("table", "--kind", "product", "--r", "5", "--i", "5", "--J", "3"), [(5, range(2, 3))]),
    ],
    ids=["i-below-r", "i-r-alone", "verify", "table"],
)
def test_a_row_climbs_only_the_levels_its_cells_read(capsys, tower_climbs, argv, climbs):
    # a row's levels run from the one its product route reads at (i_hi,
    # J_lo) to the one it reads at (i_lo, J_hi)
    code, _, _ = run(capsys, *argv, "--order", "40")
    assert (code, tower_climbs) == (0, climbs)


def test_a_tower_fill_that_raises_fails_its_cells(capsys, monkeypatch):
    # each r's row climbs its tower; a climb that raises leaves each product
    # route and expansion suite that reads a level to raise its error and
    # fail its cell, with no traceback
    def failing(*args):
        raise ArithmeticError("a 8-bit slot reached its guard bits")

    monkeypatch.setattr(products, "_levels", failing)
    monkeypatch.setattr(products, "_theta_family", failing)
    argv = ("scan", "--r", "2", "--J", "0..1", "--order", "10", "--suites", "expansion,valuation", "--format", "json")
    code, out, _ = run(capsys, *argv)
    cells = json.loads(out)["cells"]
    assert code == 1 and len(cells) == 4
    for cell in cells:
        assert (cell["identity"], cell["mismatch"]) == ("fail", None)
        assert cell["suites"] == {"expansion": "fail", "valuation": "pass"}


def test_hp_identities_run_once_per_r_and_floor(capsys, monkeypatch):
    # the suite does not depend on i, so the 56 cells of an --i all scan
    # share 16 computations, one per (r, J), through their rows; each
    # computation expands the cap-1 ideal at its floor once, and nothing
    # else in the scan expands a capped ideal
    expand, computed = hilbert.expand_generators, []

    def counted(spec, N):
        if spec.cap == 1:
            computed.append((spec.r, spec.k))
        return expand(spec, N)

    monkeypatch.setattr(hilbert, "expand_generators", counted)
    code, out, _ = run(capsys, "scan", "--r", "2..5", "--i", "all", "--J", "0..3", "--order", "12",
                       "--suites", "hp-identities")
    assert (code, out.splitlines()[-1]) == (0, "56/56 cells passed at order 12")
    assert computed == [(r, J + 1) for r in range(2, 6) for J in range(4)]


def live_packed_series() -> int:
    gc.collect()
    return sum(isinstance(obj, PackedSeries) for obj in gc.get_objects())


def test_scan_keeps_only_the_current_r_in_its_row(capsys, monkeypatch):
    # each r's cells read one row of that r; of the lane scans a row keeps
    # only each cell's two series, not the r states they were summed and
    # stepped from, and no series the scan computed outlives its rows
    rows, before = record_rows(monkeypatch), live_packed_series()
    argv = ("scan", "--r", "2..4", "--i", "all", "--J", "0..1", "--order", "12", "--suites", ",".join(cli.SUITES))
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert [row.r for row in rows] == [2, 3, 4]
    scans = [(key, side) for key, side in rows[-1]._sides.items() if key[0] == "scan"]
    assert [(key, sorted(side)) for key, side in scans] == [(("scan", J), [1, 2, 3, 4]) for J in (0, 1)]
    assert {tuple(map(type, pair)) for _, side in scans for pair in side.values()} == {(PackedSeries, PackedSeries)}
    rows.clear(), scans.clear()
    assert live_packed_series() == before


def test_each_command_starts_cold(capsys, monkeypatch):
    # each command builds its own rows, so a second identical command in
    # the same process runs its own descending scans
    scans = count_descending_scans(monkeypatch)
    for argv in [
        ("scan", "--r", "3", "--i", "all", "--J", "0..1", "--order", "12", "--suites", "hp-identities"),
        ("verify", "--r", "3", "--i", "2", "--J", "1", "--order", "12"),
    ]:
        scans.clear()
        assert run(capsys, *argv)[0] == 0
        first = list(scans)
        assert first and run(capsys, *argv)[0] == 0
        assert scans == first + first


def test_library_calls_across_r_return_cold_series(monkeypatch):
    # the library keeps nothing between calls: r = 3, then 5, then 3 again
    # give the series that the routes read off a row of the cell, and the
    # second r = 3 scans its floor again
    def library(r):
        params, N = GordonParams(r, 2, 1), 15
        return [
            product_series(ProductIndex(r, params.product_index), N),
            gordon_series(params, N),
            hp_series(gordon_quotient(params), N),
            family_limit(None, params, N),
        ]

    cold = {r: [route_series(name, GordonParams(r, 2, 1), 15) for name in SERIES_ROUTES] for r in (3, 5)}
    scans = count_descending_scans(monkeypatch)
    assert [library(r) for r in (3, 5)] == [cold[3], cold[5]]
    before = len(scans)
    assert library(3) == cold[3]
    assert len(scans) == before + 1


def test_verify_runs_one_ascending_scan(capsys, monkeypatch):
    # the family route goes on from the partition route's states at stage
    # max(N, J+1) = 20 instead of scanning again from J+1 = 2; the partition
    # scan is a growing scan, the family walk partitions._stages, and no
    # family walk (families._walk) starts from e_ell
    scan, stages, walk, starts = partitions._growing_scan, partitions._stages, families._walk, []

    def counted_scan(r, N, values, *args):
        if values.step > 0:
            starts.append(values.start)
        return scan(r, N, values, *args)

    def counted_stages(layout, J, N, stage, *args):
        starts.append(stage + 1)
        return stages(layout, J, N, stage, *args)

    def counted_walk(*args):
        starts.append("walk")
        return walk(*args)

    for module in (partitions, hilbert, families):
        if getattr(module, "_growing_scan", None) is scan:
            monkeypatch.setattr(module, "_growing_scan", counted_scan)
    monkeypatch.setattr(partitions, "_stages", counted_stages)
    monkeypatch.setattr(families, "_walk", counted_walk)
    code, _, _ = run(capsys, "verify", "--r", "3", "--i", "2", "--J", "1", "--order", "20")
    assert code == 0
    assert starts == [2, 21]


def count_ascending_scans(monkeypatch) -> list[tuple[int, int, tuple[int, ...]]]:
    """(r, first value, lanes' ells) of every ascending scan from here on."""
    scan, scans = partitions._growing_scan, []

    def counted(r, N, values, *ells):
        if values.step > 0:
            scans.append((r, values.start, ells))
        return scan(r, N, values, *ells)

    monkeypatch.setattr(partitions, "_growing_scan", counted)
    return scans


def test_a_scan_runs_one_ascending_scan_per_r_and_J(capsys, monkeypatch):
    # the partition series and family limits of every i at one (r, J) come
    # from one scan of r lanes, one per start e_ell; one scan per cell ran 56
    scans = count_ascending_scans(monkeypatch)
    argv = ("scan", "--r", "2..5", "--i", "all", "--J", "0..3", "--order", "60",
            "--suites", ",".join(cli.SUITES), "--format", "json")
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert scans == [(r, J + 1, tuple(range(r, 0, -1))) for r in range(2, 6) for J in range(4)]


def test_a_scan_splits_its_lanes_by_the_lane_budget(capsys, monkeypatch):
    # a budget of two r = 5 lanes at order 60 scans the five i's of each J
    # in passes of 2, 2 and 1 lanes, and prints the same bytes
    argv = ("scan", "--r", "5", "--i", "all", "--J", "0..1", "--order", "60", "--format", "json")
    want = run(capsys, *argv)
    scans = count_ascending_scans(monkeypatch)
    monkeypatch.setattr(partitions, "_LANE_BYTES", 2 * 5 * 61 * _PackedLayout.for_counts(60, 5).bits // 8)
    assert run(capsys, *argv) == want
    assert scans == [(5, J + 1, ells) for J in (0, 1) for ells in ((5, 4), (3, 2), (1,))]


def test_a_lane_scan_that_raises_runs_once_per_J(capsys, monkeypatch):
    # a row keeps the error of an ascending lane scan that raises, and the
    # partition and family routes of every cell of its J read that error:
    # one scan per (r, J), where readers that scanned again ran 24
    scans, scan = [], partitions._growing_scan
    error = "ArithmeticError: a 8-bit slot reached its guard bits"

    def failing(r, N, values, *ells):
        if values.step > 0:
            scans.append((r, values.start, ells))
            raise ArithmeticError(error.partition(": ")[2])
        return scan(r, N, values, *ells)

    errors, compare = [], cli._compare_routes

    def recorded(row, params):
        result = compare(row, params)
        errors.append(result[1])
        return result

    monkeypatch.setattr(partitions, "_growing_scan", failing)
    monkeypatch.setattr(cli, "_compare_routes", recorded)
    argv = ("scan", "--r", "2..3", "--i", "all", "--J", "0..1", "--order", "20", "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert (code, json.loads(out)["failed"]) == (1, 10)
    assert scans == [(r, J + 1, tuple(range(r, 0, -1))) for r in (2, 3) for J in (0, 1)]
    assert errors == [{"partition": error, "family": error}] * 10


def test_table_computes_only_its_kind(capsys, monkeypatch, tower_climbs):
    # a table's row computes a side on its first read, so each kind runs
    # only the scan or the climb that its route reads
    descending, ascending = count_descending_scans(monkeypatch), count_ascending_scans(monkeypatch)
    cell = ("--r", "3", "--i", "2", "--J", "1", "--order", "30")
    for kind, want in [
        ("counts", ([], [], [(3, 2, (2,))])),
        ("product", ([(3, range(1, 2))], [], [])),
        ("hilbert", ([], [(3, 2)], [])),
    ]:
        tower_climbs.clear(), descending.clear(), ascending.clear()
        assert run(capsys, "table", "--kind", kind, *cell)[0] == 0
        assert (tower_climbs, descending, ascending) == want, kind


def count_suite_walks(monkeypatch) -> list[tuple[int, int, int, tuple[int, ...]]]:
    """(r, J, end, lanes' ells) of every family walk from here on."""
    walk, walks = families._walk, []

    def counted(r, J, N, end, *ells):
        walks.append((r, J, end, ells))
        return walk(r, J, N, end, *ells)

    monkeypatch.setattr(families, "_walk", counted)
    return walks


FIVE_SUITES = ("scan", "--r", "2..5", "--i", "all", "--J", "0..3", "--order", "60",
               "--suites", ",".join(cli.SUITES), "--format", "json")


def test_a_scan_runs_one_suite_walk_per_r_and_J(capsys, monkeypatch):
    # family-match and valuation read every i of one (r, J) off one walk of
    # r lanes, one per start e_ell, to stage max(d_max, J+5); a walk per
    # suite and cell ran 112
    want = run(capsys, *FIVE_SUITES, "--d-max", "12")
    walks = count_suite_walks(monkeypatch)
    assert run(capsys, *FIVE_SUITES, "--d-max", "12") == want
    assert want[0] == 0
    assert walks == [(r, J, 12, tuple(range(r, 0, -1))) for r in range(2, 6) for J in range(4)]
    walks.clear()
    run(capsys, *FIVE_SUITES, "--d-max", "1")
    assert walks == [(r, J, J + 5, tuple(range(r, 0, -1))) for r in range(2, 6) for J in range(4)]


@pytest.mark.parametrize("suites", ["", "hp-identities,hp-recursion,expansion"])
def test_a_scan_without_the_walking_suites_walks_nothing(capsys, monkeypatch, suites):
    walks = count_suite_walks(monkeypatch)
    argv = ("scan", "--r", "2..3", "--i", "all", "--J", "0..1", "--order", "20", "--format", "json")
    code, _, _ = run(capsys, *argv, *(("--suites", suites) if suites else ()))
    assert (code, walks) == (0, [])


def test_a_suite_walk_splits_its_lanes_by_the_lane_budget(capsys, monkeypatch):
    # a budget of two r = 5 lanes at order 60 walks the five i's of each J
    # in passes of 2, 2 and 1 lanes, and prints the same bytes
    argv = ("scan", "--r", "5", "--i", "all", "--J", "0..1", "--order", "60",
            "--suites", "family-match,valuation", "--format", "json")
    want = run(capsys, *argv)
    walks = count_suite_walks(monkeypatch)
    monkeypatch.setattr(partitions, "_LANE_BYTES", 2 * 5 * 61 * _PackedLayout.for_counts(60, 5).bits // 8)
    assert run(capsys, *argv) == want
    assert walks == [(5, J, 10, ells) for J in (0, 1) for ells in ((5, 4), (3, 2), (1,))]


def test_a_suite_walk_that_trips_in_one_lane_walks_each_cell_alone(capsys, monkeypatch):
    # a walk that starts from e_1 starts with 2^v at q^0 instead, so the
    # lane of i = r trips its guard bits at its first step; that pass files
    # nothing, each of its cells walks alone, and only i = r fails, as when
    # every cell walked alone
    v = _PackedLayout.for_counts(20, 3).bits - 2  # its value bits
    walks, stages = count_suite_walks(monkeypatch), families._stages

    def inflated(layout, J, N, stage, state, end=None):
        return stages(layout, J, N, stage, [state[0] << v, *state[1:]], end)

    monkeypatch.setattr(families, "_stages", inflated)
    argv = ("scan", "--r", "3", "--i", "all", "--J", "1", "--order", "20",
            "--suites", "family-match,valuation", "--format", "json")
    code, out, _ = run(capsys, *argv)
    cells = json.loads(out)["cells"]
    assert code == 1
    assert [(c["i"], c["identity"], c["suites"]) for c in cells] == [
        (i, "pass", dict.fromkeys(("family-match", "valuation"), "fail" if i == 3 else "pass")) for i in (1, 2, 3)
    ]
    # the lane walk, then each cell's valuation and family-match walk
    assert walks[0] == (3, 1, 10, (3, 2, 1))
    assert sorted(walks[1:]) == sorted((3, 1, end, (ell,)) for ell in (1, 2, 3) for end in (6, 10))


def test_a_suite_walk_off_the_ladder_files_nothing(capsys, monkeypatch):
    # a walk whose entries after the first come out one slot short, divided
    # by q, leaves the ladder in every lane but trips no guard bits: the
    # pass files nothing, and every cell's own walk fails valuation alone
    stages = families._stages

    def short(layout, J, N, stage, state, end=None):
        mask = (1 << (N + 1) * layout._slot) - 1
        for d, state in stages(layout, J, N, stage, state, end):
            yield d, state[:1] + [x << layout._slot & mask for x in state[1:]]

    monkeypatch.setattr(families, "_stages", short)
    argv = ("scan", "--r", "3", "--i", "all", "--J", "1", "--order", "20",
            "--suites", "family-match,valuation", "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert [(c["identity"], c["suites"]) for c in json.loads(out)["cells"]] == [
        ("pass", {"family-match": "pass", "valuation": "fail"})
    ] * 3


def test_a_passing_cell_files_one_series_for_both_sides(capsys, monkeypatch):
    # a passing cell's family limit equals its partition series int for
    # int, so the row keeps one series for both
    rows = record_rows(monkeypatch)
    argv = ("scan", "--r", "4", "--i", "all", "--J", "0..1", "--order", "30", "--format", "json")
    assert run(capsys, *argv)[0] == 0
    [row] = rows
    sides = [pair for key, side in row._sides.items() if key[0] == "scan" for pair in side.values()]
    assert len(sides) == 8
    assert all(partition is family for partition, family in sides)


def test_huge_grid_is_refused_before_its_cells_are_built(capsys):
    # emptiness is decided arithmetically and only the deepest cell's padded
    # order is checked, so neither error builds the 300 001-cell list
    for argv, message in [
        (("--i", "1", "--J", "0..300000"), f"above {cli.MAX_PADDED_ORDER}"),
        (("--i", "3..4", "--J", "0..300000"), "no cells"),
    ]:
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "scan", "--r", "2", *argv, "--order", "0")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert message in err
        assert peak < 2 * 2**20


_SCAN_CELL = cli._scan_cell


def _scan_cell_dying_at_3_2_0(row, params):
    # module level, as the worker's rows call it by name
    if (params.r, params.i, params.J) == (3, 2, 0):
        os._exit(3)
    return _SCAN_CELL(row, params)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patched cell reaches workers by fork")
def test_dead_scan_worker_fails_its_cells(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_scan_cell", _scan_cell_dying_at_3_2_0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ("scan", "--r", "2..4", "--J", "0", "--order", "8", "--suites", "valuation", "--format", "json")
    code, out, err = run(capsys, *argv, "--jobs", "2")
    report = json.loads(out)
    cells = {(c["r"], c["i"], c["J"]): c for c in report["cells"]}
    assert code == 1
    # one error line, which counts the cells that did not finish: every
    # cell of the dead worker's row and of each row unfinished when the pool broke
    assert err.startswith("error: ") and err.count("\n") == 1 and "BrokenProcessPool" in err
    assert report["failed"] == int(err.split()[1])
    # every cell is reported with the usual keys, and the results that arrived are kept
    assert sorted(cells) == [(r, i, 0) for r in range(2, 5) for i in range(1, r + 1)]
    assert cells[3, 2, 0] == {
        "r": 3, "i": 2, "J": 0, "verdict": "fail", "identity": "fail", "suites": {"valuation": "fail"}, "mismatch": None,
    }
    assert report["passed"] == sum(c["verdict"] == "pass" for c in report["cells"]) == 9 - report["failed"]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the wrapped fill reaches workers by fork")
@pytest.mark.parametrize(
    "jobs,grid,filled",
    [
        ("1", ("--i", "all"), [2, 3, 4]),
        ("2", ("--i", "all"), [2, 3, 4]),
        ("2", ("--i", "3..4"), [3, 4]),  # r = 2 has no cells
    ],
)
def test_a_scan_fills_each_r_once_whatever_its_jobs(capsys, monkeypatch, tmp_path, jobs, grid, filled):
    # each r's cells are one task, so one process fills the r once; each
    # floor fill, in a worker or not, appends (pid, r) to one file
    log, floors = tmp_path / "fills", cli._floors

    def logged(r, ks, N):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {r}\n")
        return floors(r, ks, N)

    monkeypatch.setattr(cli, "_floors", logged)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ("scan", "--r", "2..4", *grid, "--J", "0..1", "--order", "20", "--suites", "valuation")
    code, out, err = run(capsys, *argv, "--jobs", jobs)
    assert (code, err) == (0, "") and out.endswith(" cells passed at order 20\n")
    fills = [tuple(map(int, line.split())) for line in log.read_text(encoding="utf-8").splitlines()]
    assert sorted(r for _, r in fills) == filled
    # with two jobs every fill ran in a worker
    assert all((pid == os.getpid()) == (jobs == "1") for pid, _ in fills)
