"""Benchmark of the rrgordon command line.

    python3 perfbench/run.py --workload verify-deep --seed 0 --seconds 24 --trace 0

Each workload is a list of ``rrgordon.cli.main(argv)`` calls made in this
process; one repetition makes all of them, after clearing every cache in the
package, because a user pays the cache fill on every CLI invocation. Every
repetition is checked, and a repetition that fails reports no time.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it times some repetitions untraced, then traces the rest (see spans.py) and
prints the per-layer metrics. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import pkgutil
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
OUT = ROOT / ".perfbench"

DEFAULT_SEED = 0
# Sizes are scaled down from the workload design (order 1500; J = 40 at
# order 400; scan order 100) so that one repetition takes about a second and
# a run collects enough repetitions for a steady median; each workload's
# dominant layer is unchanged (see README.md).
DEEP_ORDER = 500
SHIFT_ORDER = 200
SHIFT_J = 30
SUITES_ORDER = 60
SUITES = "hp-identities,hp-recursion,family-match,expansion,valuation"
WORKLOADS = ("verify-deep", "verify-shift", "scan-suites")
SETUP_LAUNCHES = 11
ROUTES = {"product", "partition", "hilbert", "family"}
LAYERS = ("qseries", "partitions", "hilbert", "products", "families", "cli")

END_TO_END = {
    "wall_s": "s",
    "coeffs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "partitions.gordon_series.calls": "count",
    "partitions.gordon_series.self_s": "s",
    "hilbert.hp_series.calls": "count",
    "hilbert.hp_series.self_s": "s",
    "hilbert.hp_series.repeat_share": "ratio",
    "hilbert.hp_series.repeat_s": "s",
    "products.base_product.calls": "count",
    "products.base_product.self_s": "s",
    "products.product_series.calls": "count",
    "products.product_series.self_s": "s",
    "products.product_series.repeat_share": "ratio",
    "products.product_series.repeat_s": "s",
    "products.padded_order_max": "order",
    "families.family_step.calls": "count",
    "families.family_step.self_s": "s",
    "families.family_limit.self_s": "s",
    "families.stage_use_ratio": "ratio",
    "qseries.add.calls": "count",
    "qseries.add.self_s": "s",
    "qseries.mul.calls": "count",
    "qseries.mul.self_s": "s",
    "qseries.mul_qpow.calls": "count",
    "qseries.shift_div.calls": "count",
    "qseries.series_built": "count",
    "qseries.coeff_bits_max": "bit",
    "cli.scan_cell.s.p50": "s",
    "cli.scan_cell.s.p80": "s",
    "cli.build_report.self_s": "s",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace_overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- scaled time -------------------------------------------------------------


def mixed_kernel() -> None:
    """Fixed pure-Python work with the instruction mix of the DP and scan
    workloads: a small coin DP, an allocating multiplicity DP (as in the
    partition and Hilbert DPs) and tuple rebuilding (as in TruncatedSeries)."""
    c = [0] * 451
    c[0] = 1
    for m in range(1, 451, 2):
        for n in range(m, 451):
            c[n] += c[n - m]
    dp = [[0] * 181 for _ in range(3)]
    dp[0][0] = 1
    for a in range(1, 181):
        new = [[0] * 181 for _ in range(3)]
        for prev in range(3):
            row = dp[prev]
            for w in range(181):
                ways = row[w]
                if ways:
                    for f in range(min(2 - prev, (180 - w) // a) + 1):
                        new[f][w + a * f] += ways
        dp = new
    t = tuple(range(150))
    for _ in range(150):
        t = tuple(x + 1 for x in t)


def tower_kernel() -> None:
    """The loop of ``base_product``: an in-place coin DP over the parts
    allowed mod 11, to order 1200, where the counts grow past 100 bits."""
    c = [0] * 1201
    c[0] = 1
    for m in range(1, 1201):
        if m % 11 not in (0, 3, 8):
            for n in range(m, 1201):
                c[n] += c[n - m]


# A reference is a kernel and the time its runs are scaled to, about its
# time on a 2-core Xeon VM at full speed. Slowdowns of the host hit kernels
# unequally: over 9-second windows, scaling by the mixed kernel left a spread
# of 3.6% on verify-deep and 6.5% on scan-suites but 9.9% on verify-shift; the
# tower kernel left 3.2% on verify-shift but 8-10% on the other two.
MIXED = (mixed_kernel, 0.04)
TOWER = (tower_kernel, 0.06)


class Gauge:
    """Scales intervals to a machine of fixed speed.

    On a shared host the same work runs up to 2x slower for minutes at a
    time. The reference kernel is timed before and after each interval, and
    the interval is multiplied by the reference's seconds over the mean of
    the two, which turns it into seconds on a machine where the kernel takes
    exactly that long. The kernel is the benchmark's own code, so a change to
    rrgordon moves the scaled figure in full.
    """

    def __init__(self, reference=MIXED):
        self.kernel, self.seconds = reference
        self.last = self._kernel_seconds()
        self.factors: list[float] = []

    def _kernel_seconds(self) -> float:
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start

    def scale(self, elapsed: float) -> float:
        now = self._kernel_seconds()
        self.factors.append(2 * self.seconds / (self.last + now))
        self.last = now
        return elapsed * self.factors[-1]


# -- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Plan:
    """The calls one repetition makes, and what they certify."""

    calls: tuple[tuple[str, ...], ...]
    cells: int
    order: int
    cell: tuple[int, int, int] | None = None  # (r, i, J) of a verify workload
    reference: tuple = MIXED  # the Gauge reference that tracks its slowdowns


def _verify(r: int, i: int, J: int, order: int, reference=MIXED) -> Plan:
    argv = ("verify", "--r", str(r), "--i", str(i), "--J", str(J), "--order", str(order), "--format", "json")
    return Plan((argv,), cells=1, order=order, cell=(r, i, J), reference=reference)


def _scan(js: list[str]) -> Plan:
    """One suite scan over r = 2..5 and all i per J range in ``js``."""
    calls = tuple(
        ("scan", "--r", "2..5", "--i", "all", "--J", j, "--order", str(SUITES_ORDER), "--jobs", "1",
         "--suites", SUITES, "--format", "json")
        for j in js
    )
    return Plan(calls, cells=56, order=SUITES_ORDER)


def make_plan(workload: str, seed: int) -> Plan:
    """The default seed gives the designed cells. Any other seed draws a
    verify cell of equal cost from the same family, or splits the scan by J
    and makes the parts in a drawn order."""
    default = seed == DEFAULT_SEED
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify-deep":
        i, J = (2, 1) if default else (rng.randint(1, 3), rng.randint(0, 2))
        return _verify(3, i, J, DEEP_ORDER)
    if workload == "verify-shift":
        # i = 5 would drop the tower one level; i in 1..4 keeps its padded order
        i = 2 if default else rng.randint(1, 4)
        return _verify(5, i, SHIFT_J, SHIFT_ORDER, TOWER)
    return _scan(["0..3"] if default else [str(j) for j in rng.sample(range(4), 4)])


# -- correctness -------------------------------------------------------------


def _cell_key(cell: dict) -> tuple[int, int, int]:
    return cell["r"], cell["i"], cell["J"]


def _verify_ok(plan: Plan, rc, text: str) -> bool:
    """Exit 0 and all four routes present, error-free and in agreement."""
    try:
        report = json.loads(text)
        r, i, J = plan.cell
        routes = report["routes"]
        return (
            rc == 0
            and report["verdict"] == "pass"
            and report["mismatch"] is None
            and report["order"] == plan.order
            and (report["params"]["r"], report["params"]["i"], report["params"]["J"]) == (r, i, J)
            and set(routes) == ROUTES
            and all(route["error"] is None for route in routes.values())
            and len({route["fingerprint"] for route in routes.values()}) == 1
        )
    except (ValueError, KeyError, TypeError):
        return False


def _scan_failed(plan: Plan, outputs, golden: dict) -> int:
    """Cells of a split scan that are missing or differ from the golden's."""
    expected = {_cell_key(c): c for c in golden["cells"]}
    failed = 0
    for argv, (rc, text) in zip(plan.calls, outputs):
        J = int(argv[argv.index("--J") + 1])
        want = {k: c for k, c in expected.items() if k[2] == J}
        try:
            report = json.loads(text)
            got = {_cell_key(c): c for c in report["cells"]}
            whole = (
                rc == 0
                and report["failed"] == 0
                and report["order"] == golden["order"]
                and report["suites"] == golden["suites"]
                and set(got) == set(want)
            )
        except (ValueError, KeyError, TypeError):
            whole, got = False, {}
        failed += sum(1 for k, c in want.items() if not whole or got.get(k) != c)
    return failed


class Checker:
    """Counts attempted and failed cells over every repetition of a run."""

    def __init__(self, workload: str, plan: Plan, default: bool):
        self.plan = plan
        self.default = default
        self.golden_text = (GOLDEN / f"{workload}.json").read_text(encoding="utf-8")
        self.golden = json.loads(self.golden_text)
        self.attempted = 0
        self.failed = 0

    def failed_cells(self, outputs) -> int:
        plan = self.plan
        if self.default:
            # byte for byte against the output captured when the benchmark was made
            same = len(outputs) == 1 and outputs[0] == (0, self.golden_text)
            return 0 if same else plan.cells
        if plan.cell is not None:
            return 0 if _verify_ok(plan, *outputs[0]) else plan.cells
        return _scan_failed(plan, outputs, self.golden)

    def check(self, outputs) -> bool:
        bad = self.failed_cells(outputs)
        self.attempted += self.plan.cells
        self.failed += bad
        return bad == 0


def oracle_ok(plan: Plan, verify_text: str, main) -> bool:
    """The certified series has the route fingerprint and, in its first 20
    coefficients, the brute-force partition counts."""
    from rrgordon.partitions import GordonParams, enumerate_gordon

    r, i, J = plan.cell
    argv = ["table", "--kind", "counts", "--r", str(r), "--i", str(i), "--J", str(J),
            "--order", str(plan.order), "--format", "json"]
    rc, text = _call(main, argv)
    try:
        coeffs = [int(c) for c in json.loads(text)["coeffs"]]
        fingerprint = json.loads(verify_text)["routes"]["partition"]["fingerprint"]
    except (ValueError, KeyError, TypeError):
        return False
    payload = f"{len(coeffs) - 1}:" + ",".join(str(c) for c in coeffs)
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    params = GordonParams(r, i, J)
    oracle = [len(enumerate_gordon(params, n)) for n in range(20)]
    return rc == 0 and digest == fingerprint and coeffs[:20] == oracle


# -- running -----------------------------------------------------------------


def import_package():
    if not (SRC / "rrgordon" / "cli.py").is_file():
        raise BenchError(f"no rrgordon package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rrgordon

    if Path(rrgordon.__file__).resolve().parent != SRC / "rrgordon":
        raise BenchError(f"rrgordon imported from {rrgordon.__file__}, not from {SRC}")
    for info in pkgutil.iter_modules(rrgordon.__path__):
        if info.name != "__main__":
            importlib.import_module(f"rrgordon.{info.name}")


def cache_clearers() -> list:
    """Every object with a ``cache_clear`` in the rrgordon modules, including
    class attributes, whatever caches the package uses."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name != "rrgordon" and not name.startswith("rrgordon."):
            continue
        for value in list(vars(mod).values()):
            candidates = [value]
            if isinstance(value, type) and value.__module__.startswith("rrgordon"):
                candidates += list(vars(value).values())
            for obj in candidates:
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def _call(main, argv) -> tuple[object, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            print(traceback.format_exc())
    return rc, buf.getvalue()


class Runner:
    def __init__(self, plan: Plan, checker: Checker):
        from rrgordon import cli

        self.plan = plan
        self.checker = checker
        self.main = cli.main
        self.clearers = cache_clearers()
        self.last_outputs = None
        self.raw: list[float] = []  # unscaled walls, for the printout

    def repetition(self, main) -> tuple[float, bool]:
        for fn in self.clearers:
            fn.cache_clear()
        gc.collect()
        start = time.perf_counter()
        outputs = [_call(main, argv) for argv in self.plan.calls]
        wall = time.perf_counter() - start
        self.last_outputs = outputs
        return wall, self.checker.check(outputs)

    def timed(self, seconds: float, min_reps: int, main=None, after=None) -> list[float]:
        """Scaled walls (see ``Gauge``) of the passing repetitions made in
        ``seconds``, at least ``min_reps`` repetitions in all.
        ``after(wall, factor)`` runs after each passing one."""
        main = main or self.main
        gauge = Gauge(self.plan.reference)
        walls = []
        deadline = time.perf_counter() + seconds
        reps = 0
        while reps < min_reps or time.perf_counter() < deadline:
            wall, ok = self.repetition(main)
            scaled = gauge.scale(wall)
            reps += 1
            if ok:
                walls.append(scaled)
                self.raw.append(wall)
                if after is not None:
                    after(scaled, gauge.factors[-1])
        return walls


def decile(values: list[float], k: int) -> float:
    """The k-th decile (5 is the median); 0 if empty."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def setup_seconds() -> float:
    """Median scaled time from a fresh interpreter to ``import rrgordon.cli`` done."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import rrgordon.cli"]
    if subprocess.run(argv, env=env, cwd=ROOT).returncode != 0:  # also writes bytecode
        raise BenchError("a fresh interpreter could not import rrgordon.cli")
    gauge = Gauge()
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        times.append(gauge.scale(time.perf_counter() - start))
    return statistics.median(times)


def peak_rss_mib(plan: Plan) -> float | None:
    """Peak RSS of a fresh process running one repetition; None if it failed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, str(HERE / "peak_rss.py"), json.dumps([list(c) for c in plan.calls])]
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return None
    return int(proc.stdout.split()[-1]) / 1024


def machine_facts() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()}"


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(spans: list[list], built: int, wall: float) -> dict[str, float]:
    """Per-layer figures of one traced repetition that took ``wall``."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _attr in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    steps_under: Counter = Counter()
    repeats = {"hilbert.hp_series": [0, 0.0], "products.product_series": [0, 0.0]}
    padded, bits, stage_use, cells = 0, 0, 0.0, []
    for k, (name, start, end, parent, attr) in enumerate(spans):
        own = end - start - child[k]
        calls[name] += 1
        self_s[name] += own
        layer_self[name.split(".", 1)[0]] += own
        if name == "families.family_step" and parent >= 0:
            steps_under[parent] += 1
        elif name == "hilbert.hp_series" and attr:
            repeats[name][0] += 1
            repeats[name][1] += end - start
        elif name == "products.product_series":
            repeated, padded_order = attr
            padded = max(padded, padded_order)
            if repeated:
                repeats[name][0] += 1
                repeats[name][1] += end - start
        elif name.startswith("cli.route."):
            bits = max(bits, attr)
        elif name == "cli.scan_cell":
            cells.append(end - start)
    for k, (name, _start, _end, _parent, attr) in enumerate(spans):
        if name == "families.family_limit":
            stage_use = max(stage_use, steps_under[k] / attr)

    out = {}
    for name in ("partitions.gordon_series", "hilbert.hp_series", "products.base_product",
                 "products.product_series", "families.family_step", "qseries.add", "qseries.mul"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name, (count, seconds) in repeats.items():
        out[f"{name}.repeat_share"] = count / calls[name] if calls[name] else 0.0
        out[f"{name}.repeat_s"] = seconds
    out["products.padded_order_max"] = padded
    out["families.family_limit.self_s"] = self_s["families.family_limit"]
    out["families.stage_use_ratio"] = stage_use
    out["qseries.mul_qpow.calls"] = calls["qseries.mul_qpow"]
    out["qseries.shift_div.calls"] = calls["qseries.shift_div"]
    out["qseries.series_built"] = built
    out["qseries.coeff_bits_max"] = bits
    out["cli.scan_cell.s.p50"] = decile(cells, 5)
    out["cli.scan_cell.s.p80"] = decile(cells, 8)
    out["cli.build_report.self_s"] = self_s["cli.build_report"]
    for layer in LAYERS:
        out[f"{layer}.self_share"] = layer_self[layer] / wall
    return out


def write_spans(path: Path, spans: list[list]):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for k, (name, start, end, parent, attr) in enumerate(spans):
            fh.write(json.dumps({"id": k, "name": name, "start": start, "end": end,
                                 "parent": parent, "attr": attr}) + "\n")


# -- entry point -------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, plan: Plan, seconds: float, default: bool) -> dict:
    runner.repetition(runner.main)  # warm-up: bytecode, imports, first-call costs
    setup = setup_seconds()
    walls = runner.timed(seconds, min_reps=10)
    rss = peak_rss_mib(plan)
    if rss is None:
        runner.checker.failed += 1
        runner.checker.attempted += 1
    if plan.cell is not None and not default and runner.last_outputs is not None:
        if not oracle_ok(plan, runner.last_outputs[0][1], runner.main):
            # the cell's certified series is wrong in every repetition
            runner.checker.failed = runner.checker.attempted
            walls = []
    wall = decile(walls, 5)
    print(f"wall_s over n={len(walls)} repetitions: median={wall:.4f} p80={decile(walls, 8):.4f} "
          f"max={max(walls, default=0.0):.4f}; unscaled median={decile(runner.raw, 5):.4f}")
    values = {
        "wall_s": wall,
        "coeffs_per_s": plan.cells * (plan.order + 1) / wall if wall else 0.0,
        "setup_s": setup,
        "peak_rss_mib": rss or 0.0,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(runner: Runner, plan: Plan, seconds: float, workload: str, seed: int) -> dict:
    from spans import Tracer

    runner.repetition(runner.main)  # warm-up
    plain = runner.timed(seconds / 3, min_reps=5)
    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", runner.main)
    reps: list[dict] = []
    traced_walls: list[float] = []
    last: list[list] = []

    def collect(wall, factor):
        nonlocal last
        spans, built = tracer.take()
        figures = layer_metrics(spans, built, wall / factor)
        reps.append({name: value * factor if PER_LAYER[name] == "s" else value
                     for name, value in figures.items()})
        traced_walls.append(wall)
        last = spans

    tracer.install()
    try:
        runner.timed(seconds * 2 / 3, min_reps=5, main=traced_main, after=collect)
    finally:
        tracer.uninstall()
    write_spans(OUT / f"trace-{workload}-seed{seed}.jsonl", last)

    plain_wall = decile(plain, 5)
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace_overhead_ratio":
            value = decile(traced_walls, 5) / plain_wall if plain_wall else 0.0
        else:
            value = statistics.median(r[name] for r in reps) if reps else 0.0
        metrics[name] = _metric(value, unit)
    print(f"wall_s median untraced={plain_wall:.4f} (n={len(plain)}) traced={decile(traced_walls, 5):.4f} (n={len(reps)})")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="capture the default seed's stdout as the workload's golden and exit")
    args = parser.parse_args(argv)

    try:
        import_package()
        plan = make_plan(args.workload, args.seed)
        if args.write_golden:
            return write_golden(args.workload)
        default = plan == make_plan(args.workload, DEFAULT_SEED)
        runner = Runner(plan, Checker(args.workload, plan, default))
        print(f"workload {args.workload} seed {args.seed}: {len(plan.calls)} call(s) per repetition, "
              f"{plan.cells} cell(s) at order {plan.order}")
        print(f"machine {machine_facts()}")
        if args.trace:
            metrics = per_layer(runner, plan, args.seconds, args.workload, args.seed)
        else:
            metrics = end_to_end(runner, plan, args.seconds, default)
    except (BenchError, OSError, subprocess.SubprocessError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    checker = runner.checker
    print(f"failed_ratio {checker.failed / checker.attempted:.4f} ({checker.failed}/{checker.attempted} cells)")
    for name, metric in metrics.items():
        print(f"{name:<40} {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def write_golden(workload: str) -> int:
    plan = make_plan(workload, DEFAULT_SEED)
    from rrgordon import cli

    for fn in cache_clearers():
        fn.cache_clear()
    (rc, text), = [_call(cli.main, argv) for argv in plan.calls]
    if rc != 0:
        print(f"perfbench: {workload} exited {rc}; golden not written", file=sys.stderr)
        return 1
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / f"{workload}.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
