"""Byte-identity of the command line over the acceptance grid at order 50.

``tests/golden/cli_order50.json`` maps each argv (joined by spaces) to the
sha256 of its exit code and stdout. Any change to the bytes a command prints
or to its exit code fails here and names the argv. To rewrite the golden
after an intended output change, run ``python tests/test_golden.py``.

The golden pins passing commands only, so ``FAILURES`` pins the same digest
of failing ones: a verify cell with one route bumped at one exponent, one
with a route that raises, and a two-cell scan with a bumped route.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from rrgordon.cli import SERIES_ROUTES, main
from rrgordon.qseries import NonDivisibleError, PackedSeries, TruncatedSeries

GOLDEN = Path(__file__).parent / "golden" / "cli_order50.json"
ORDER = "50"


def golden_argvs() -> list[tuple[str, ...]]:
    argvs = []
    for r in range(2, 6):
        for i in range(1, r + 1):
            for J in range(0, 4):
                cell = ("--r", str(r), "--i", str(i), "--J", str(J), "--order", ORDER)
                argvs.append(("verify", *cell, "--format", "json"))
                for kind in ("counts", "product", "hilbert"):
                    argvs.append(("table", "--kind", kind, *cell))
    argvs.append(
        ("scan", "--r", "2..5", "--i", "all", "--J", "0..3", "--order", ORDER,
         "--suites", "hp-identities,hp-recursion,family-match,expansion,valuation",
         "--format", "json")
    )
    return argvs


def digest(argv: tuple[str, ...]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def test_cli_output_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    argvs = golden_argvs()
    assert sorted(golden) == sorted(" ".join(a) for a in argvs)
    differing = [" ".join(a) for a in argvs if digest(a) != golden[" ".join(a)]]
    assert not differing, f"output differs from golden for: {differing}"


def bumped(route: str, exponent: int, packed: bool = False):
    """The route with its q^exponent coefficient one larger, handed over as
    coefficients, or with ``packed`` in the route's own packed slots."""
    original = SERIES_ROUTES[route]

    def series(row, params):
        s = original(row, params)
        if packed:
            return PackedSeries(s.layout, s.packed + (1 << (row.order - exponent) * s.layout.bits))
        coeffs = list(s.coeffs)
        coeffs[exponent] += 1
        return TruncatedSeries(tuple(coeffs))

    return series


def raising(row, params):
    raise NonDivisibleError("coefficient 1 at exponent 0 blocks division by q^2")


VERIFY = ("verify", "--r", "3", "--i", "2", "--J", "1", "--order", "30", "--format", "json")
SCAN = ("scan", "--r", "2", "--i", "1..2", "--J", "0", "--order", "20", "--format", "json")
# digests taken when every route handed over coefficients; a bump in the
# packed slots must print the same bytes as the same bump in coefficients
VERIFY_BUMPED = "07b79896b0ddf7ed1d09d5a358af70f044c113cea2a5af4171734259e400f2cf"
SCAN_BUMPED = "5710058bf8f9fa0b5cbd1c899965c5ad4b8ef8205c1d0ba8f001c31b9a684021"
# (argv, route, its replacement, sha256 of the exit code and stdout)
FAILURES = {
    "verify-bumped": (VERIFY, "hilbert", bumped("hilbert", 11), VERIFY_BUMPED),
    "verify-bumped-packed": (VERIFY, "hilbert", bumped("hilbert", 11, packed=True), VERIFY_BUMPED),
    "verify-raising": (
        VERIFY, "product", raising, "1c81bf0258d1ff473dd4ad2672ce2b4783ef02a5c26f3cc47826622799ef20ec"
    ),
    "scan-bumped": (SCAN, "family", bumped("family", 7), SCAN_BUMPED),
    "scan-bumped-packed": (SCAN, "family", bumped("family", 7, packed=True), SCAN_BUMPED),
}


@pytest.mark.parametrize("case", FAILURES)
def test_failing_commands_match_their_digests(monkeypatch, case):
    argv, route, replacement, want = FAILURES[case]
    monkeypatch.setitem(SERIES_ROUTES, route, replacement)
    assert digest(argv) == want


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {" ".join(a): digest(a) for a in golden_argvs()}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
