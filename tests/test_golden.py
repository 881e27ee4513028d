"""Byte-identity of the command line over the acceptance grid at order 50.

``tests/golden/cli_order50.json`` maps each argv (joined by spaces) to the
sha256 of its exit code and stdout. Any change to the bytes a command prints
or to its exit code fails here and names the argv. To rewrite the golden
after an intended output change, run ``python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from rrgordon.cli import main

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


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {" ".join(a): digest(a) for a in golden_argvs()}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
