import argparse
import hashlib
import json
import multiprocessing
import os
from concurrent.futures import Future

import pytest

from rrgordon import cli, products
from rrgordon.cli import SERIES_ROUTES, SUITE_CHECKS, build_report, main
from rrgordon.hilbert import QuotientSpec, hp_series
from rrgordon.partitions import GordonParams
from rrgordon.qseries import NonDivisibleError, TruncatedSeries, _PackedLayout


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    def broken(params, N):
        coeffs = list(SERIES_ROUTES["partition"](params, N).coeffs)
        coeffs[7] += 1
        return TruncatedSeries(tuple(coeffs))

    monkeypatch.setitem(SERIES_ROUTES, "family", broken)
    code, out, _ = run(capsys, "verify", "--r", "2", "--i", "2", "--J", "0", "--order", "20")
    assert code == 1
    assert "verdict: FAIL" in out
    assert "exponent 7" in out


def test_verify_route_error_fails(capsys, monkeypatch):
    def exploding(params, N):
        raise NonDivisibleError("coefficient 1 at exponent 0 blocks division by q^2")

    monkeypatch.setitem(SERIES_ROUTES, "product", exploding)
    code, out, _ = run(capsys, "verify", "--r", "2", "--i", "2", "--J", "0", "--order", "10")
    assert code == 1
    assert "ERROR" in out


def test_mismatch_and_errors_with_two_bumped_routes_and_a_crash(capsys, monkeypatch):
    originals = dict(SERIES_ROUTES)

    def bumped(route, exponent):
        def series(params, N):
            coeffs = list(originals[route](params, N).coeffs)
            coeffs[exponent] += 1
            return TruncatedSeries(tuple(coeffs))
        return series

    def crashing(params, N):
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
    def crashing(params, N):
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
    def crashing(params, N, d_max):
        raise RuntimeError("suite blew up")

    monkeypatch.setitem(SUITE_CHECKS, "valuation", crashing)
    code, out, _ = run(
        capsys, "scan", "--r", "2", "--i", "1", "--J", "0", "--order", "10",
        "--suites", "valuation,hp-recursion",
    )
    assert code == 1
    assert "hp-recursion=pass valuation=fail" in out


def test_build_report_detects_divergence():
    report = build_report(GordonParams(2, 2, 0), 15)
    assert report.verdict
    assert report.mismatch is None
    assert set(report.routes) == {"product", "partition", "hilbert", "family"}


def test_scan_counts_cells(capsys):
    code, out, _ = run(capsys, "scan", "--r", "2..4", "--J", "0..2", "--order", "15")
    assert code == 0
    assert "27/27 cells passed at order 15" in out


def test_scan_order_zero_trivially_passes(capsys):
    code, out, _ = run(capsys, "scan", "--r", "2..3", "--J", "0..1", "--order", "0")
    assert code == 0
    assert "10/10 cells passed" in out


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
    ],
)
def test_scan_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_scan_fails_nonzero(capsys, monkeypatch):
    monkeypatch.setitem(
        SERIES_ROUTES, "family", lambda p, N: TruncatedSeries.one(N)
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
    assert TruncatedSeries.from_json_dict(payload).coeffs == (1, 0, 1, 1, 1)


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
        future = Future()
        future.set_result(fn(item))
        return future


@pytest.mark.parametrize(
    "jobs,grid,cpus,opened",
    [
        ("64", ("--r", "2", "--J", "0"), 8, [2]),  # 2 cells
        ("3", ("--r", "2..3", "--J", "0..1"), 8, [3]),  # 10 cells
        ("4", ("--r", "2..3", "--J", "0..1"), 2, [2]),
        ("4", ("--r", "2..3", "--J", "0..1"), 1, []),
        ("4", ("--r", "2", "--i", "1", "--J", "0"), 8, []),  # 1 cell
    ],
)
def test_scan_jobs_clamped(capsys, monkeypatch, jobs, grid, cpus, opened):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(RecordingExecutor, "opened", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    code, out, _ = run(capsys, "scan", *grid, "--order", "8", "--jobs", jobs)
    assert code == 0
    assert "cells passed" in out
    assert RecordingExecutor.opened == opened


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
        ("table", "--kind", "counts", "--r", "2", "--i", "1", "--J", "160", "--order", "50"),
        ("scan", "--r", "2..3", "--J", "0..160", "--order", "50"),
    ],
)
def test_padded_order_above_max_is_usage_error(capsys, monkeypatch, argv):
    # J = 160 pads the r = 2 tower to order 50 + 160*161/2 = 12930
    ran = []
    for name in SERIES_ROUTES:
        monkeypatch.setitem(SERIES_ROUTES, name, lambda p, N, name=name: ran.append(name))
    code, out, err = run(capsys, *argv)
    assert (code, out, ran) == (2, "", [])
    assert err.startswith("error: ") and f"above {cli.MAX_PADDED_ORDER}" in err


def test_cell_at_max_padded_order_is_accepted(capsys):
    # the deepest r = 2 tower at the limit, read through the cheap partition route
    J = max(j for j in range(200) if j * (j + 1) // 2 <= cli.MAX_PADDED_ORDER)
    order = cli.MAX_PADDED_ORDER - J * (J + 1) // 2
    argv = ("table", "--kind", "counts", "--r", "2", "--i", "1", "--J", str(J))
    code, _, _ = run(capsys, *argv, "--order", str(order))
    assert code == 0
    code, out, _ = run(capsys, *argv, "--order", str(order + 1))
    assert (code, out) == (2, "")


def test_max_padded_order_admits_the_baselines():
    # verify at r=5, J=30, order 200 pads to 2060; the 56-cell grid
    # (r <= 5, J <= 3) at MAX_ORDER pads to 2024
    cli._check_padded_order(5, 30, 200)
    cli._check_padded_order(5, 3, cli.MAX_ORDER)


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
        monkeypatch.setitem(SERIES_ROUTES, name, lambda p, N, name=name: ran.append(name))
    monkeypatch.setitem(SUITE_CHECKS, "expansion", lambda p, N, d_max: ran.append("expansion"))
    argv = ("scan", "--r", "5", "--i", "1", "--J", "42", "--order", "388")
    code, out, err = run(capsys, *argv, "--suites", "expansion")
    assert (code, out, ran) == (2, "", [])
    assert "order 4528" in err and f"above {cli.MAX_PADDED_ORDER}" in err


def test_cell_at_max_padded_order_without_expansion_passes(capsys):
    others = ",".join(s for s in cli.SUITES if s != "expansion")
    cli._check_padded_order(5, 42, 388, tuple(others.split(",")))
    code, out, _ = run(capsys, "scan", "--r", "5", "--i", "1", "--J", "42", "--order", "388")
    assert (code, out.splitlines()[-1]) == (0, "1/1 cells passed at order 388")


def test_valuation_suite_fails_on_a_step_one_slot_short(capsys, monkeypatch):
    step = _PackedLayout.step

    def short(self, state, u, kept):
        new = step(self, state, u, kept)
        return new[:1] + [x >> self.bits for x in new[1:]]

    # the suite's hp tail is read from the cache, filled by the correct step,
    # so only the family ladder can fail it; the mutant's results must not
    # reach later tests
    caches = (hp_series, products._family_at_level)
    for cache in caches:
        cache.cache_clear()
    hp_series(QuotientSpec(3, 3), 20)
    monkeypatch.setattr(_PackedLayout, "step", short)
    try:
        argv = ("scan", "--r", "3", "--i", "2", "--J", "1", "--order", "20", "--suites", "valuation")
        code, out, _ = run(capsys, *argv, "--format", "json")
    finally:
        for cache in caches:
            cache.cache_clear()
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


_SCAN_CELL = cli._scan_cell


def _scan_cell_dying_at_3_2_0(cell):
    # module level, so the pool can pickle it by name
    if cell[:3] == (3, 2, 0):
        os._exit(3)
    return _SCAN_CELL(cell)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patched cell reaches workers by fork")
def test_dead_scan_worker_fails_its_cells(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_scan_cell", _scan_cell_dying_at_3_2_0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ("scan", "--r", "2..4", "--J", "0", "--order", "8", "--suites", "valuation", "--format", "json")
    code, out, err = run(capsys, *argv, "--jobs", "2")
    report = json.loads(out)
    cells = {(c["r"], c["i"], c["J"]): c for c in report["cells"]}
    assert code == 1
    # one error line, which counts the cells that did not finish
    assert err.startswith("error: ") and err.count("\n") == 1 and "BrokenProcessPool" in err
    assert report["failed"] == int(err.split()[1])
    # every cell is reported with the usual keys, and the results that arrived are kept
    assert sorted(cells) == [(r, i, 0) for r in range(2, 5) for i in range(1, r + 1)]
    assert cells[3, 2, 0] == {
        "r": 3, "i": 2, "J": 0, "verdict": "fail", "identity": "fail", "suites": {"valuation": "fail"}, "mismatch": None,
    }
    assert report["passed"] == sum(c["verdict"] == "pass" for c in report["cells"]) == 9 - report["failed"]
