"""Run rrgordon command lines once in this fresh process; print peak RSS in KiB.

    PYTHONPATH=src python3 perfbench/peak_rss.py '[["verify", "--r", "2", "--i", "2", "--J", "0"]]'

The argument is a JSON list of argv lists for ``rrgordon.cli.main``. Exits 1
if any call exits non-zero.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys

from rrgordon.cli import main


def run(calls: list[list[str]]) -> int:
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            if main(argv) != 0:
                return 1
    return 0


if __name__ == "__main__":
    status = run(json.loads(sys.argv[1]))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    sys.exit(status)
