"""Mutant gate: the tests must fail on each known fault.

Each entry of ``MUTANTS`` names a fault and gives the file under
``src/rrgordon``, the exact old text, the new text, and the ids of the tests
that must catch it. The gate copies ``src/`` into one temporary directory
per CPU, checks that the unpatched first copy passes every test file those
ids name, then runs the mutants one per copy at a time from a thread pool:
each replaces its old text, runs ``pytest -x`` on its tests alone against
the copy and puts the text back. A mutant is killed when a test fails. The
lines are printed in ``MUTANTS`` order. The old text must occur exactly
once, so a refactor that moves it updates the mutant instead of dropping it.

Run it from any directory with ``python tests/mutants.py``; it exits 0 when
every mutant is killed. pytest does not collect this file.
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (fault, file, old text, new text, ids of the tests that kill it)
MUTANTS = [
    ("step without its guard check", "qseries.py",
     "total = self._check(prefix[-1])", "total = prefix[-1]",
     ("tests/test_packed.py::test_step_raises_when_a_slot_reaches_its_guard_bits",)),
    ("a narrowing that skips the dropped-byte check", "qseries.py",
     "if any(data[k + b :: stride].count(0) < n for b in range(w, sw)):", "if False:",
     ("tests/test_packed.py::test_reslot_refuses_a_wider_source",)),
    ("a tower that never takes the theta kernel", "products.py",
     "_padded_order(r, levels[-1], N) > 2 * N", "False",
     ("tests/test_products.py::test_dropped_theta_term_blocks_a_division",)),
    ("an Euler pass that adds the even pentagonal terms", "products.py",
     "x -= y[n - g]", "x += y[n - g]",
     ("tests/test_products.py::test_base_product_frozen_values",)),
    ("a ladder one slot short", "families.py",
     "layout._has_valuation(x, stage * j)", "layout._has_valuation(x, stage * j - 1)",
     ("tests/test_packed.py::test_lane_walks_equal_one_lane_walks_and_their_ladder",)),
    ("a base level that adds the odd-n theta sum", "products.py",
     "layout._check(plus - minus)", "layout._check(plus + minus)",
     ("tests/test_products.py::test_base_product_frozen_values",)),
    ("base_product reading slot r-ell+1", "products.py",
     "product_series(ProductIndex(r, ell), N)", "product_series(ProductIndex(r, r - ell + 1), N)",
     ("tests/test_products.py::test_base_product_frozen_values",)),
    ("expansion compares level s with floor s", "families.py",
     "floor(s + 1)", "floor(s)",
     ("tests/test_families.py::test_expansion_identities",)),
    ("expansion compares entry j with cap j", "families.py",
     "floor(s + 1)[1][::-1]", "floor(s + 1)[1]",
     ("tests/test_families.py::test_expansion_identities",)),
    ("an expansion that skips the left sides", "families.py",
     "for s in range(d, params.J - 1, -1)", "for s in range(d, params.J, -1)",
     ("tests/test_families.py::test_expansion_fails_on_a_bumped_left_side[hp_series]",)),
    ("a _levels hand-off left in the climb's slots", "products.py",
     "family.append((out, tuple(out.reslot(x >> drop, cut) for x in entries)))",
     "family.append((layout, tuple(entries)))",
     ("tests/test_products.py::test_every_level_leaves_in_for_counts_slots[2-3-30]",)),
    ("a climb that files level g's entries under level g+1", "cli.py",
     "zip(self.levels, _tower(", "zip([g + 1 for g in self.levels], _tower(",
     ("tests/test_cli.py::test_a_scan_climbs_one_tower_per_r[five-suites]",)),
    ("a theta pass whose lanes are split one level off", "products.py",
     "for j in range(0, lanes, r)]", "for j in range(r, lanes + r, r)]",
     ("tests/test_products.py::test_packed_tower_equals_list_climb",)),
    ("a theta climb order that pads every level by top(top+1)/2 alone", "products.py",
     " + (r - 2) * ((top + 1) ** 2 // 4)", "",
     ("tests/test_products.py::test_padded_order_is_enough",)),
    ("a theta climb order one short", "products.py",
     "return N + top * (top + 1) // 2", "return N - 1 + top * (top + 1) // 2",
     ("tests/test_products.py::test_climb_order_is_the_heaviest_division_path",)),
    ("theta series that write the odd-n terms with a plus sign", "products.py",
     '- int.from_bytes(minus, "little")', '+ int.from_bytes(minus, "little")',
     ("tests/test_products.py::test_every_level_leaves_in_for_counts_slots[5-4-20]",)),
    ("a row whose levels stop at its cells' top level without the expansion suite's J+3", "cli.py",
     'js[-1] + _EXPANSION_DEPTH if "expansion" in suites else hi', "hi",
     ("tests/test_cli.py::test_a_scan_climbs_one_tower_per_r[five-suites]",)),
    ("a row whose levels start at the level of its lowest i, above the level i = r reads", "cli.py",
     "for i, J in ((is_[-1], js[0]),", "for i, J in ((is_[0], js[0]),",
     ("tests/test_cli.py::test_a_scan_climbs_one_tower_per_r[from-J-1]",)),
    ("a row whose levels start at J even for i = r", "cli.py",
     "self.levels = range(lo,", "self.levels = range(js[0],",
     ("tests/test_cli.py::test_a_row_climbs_only_the_levels_its_cells_read[verify]",)),
    ("a row whose levels start one level low", "cli.py",
     "self.levels = range(lo,", "self.levels = range(max(lo - 1, 0),",
     ("tests/test_cli.py::test_a_row_climbs_only_the_levels_its_cells_read[i-below-r]",)),
    ("a tower fill whose error escapes its cell", "cli.py",
     "return series, None\n    except Exception as exc:", "return series, None\n    except ZeroDivisionError as exc:",
     ("tests/test_cli.py::test_a_tower_fill_that_raises_fails_its_cells",)),
    ("an XOR first mismatch one slot off", "qseries.py",
     "return a.order - (x.bit_length() - 1) // a.layout.bits if x else None",
     "return a.order - (x.bit_length() - 1) // a.layout.bits + 1 if x else None",
     ("tests/test_cli.py::test_a_packed_bump_is_read_from_the_xor_and_the_slots[0]",)),
    ("a packed coefficient read one slot off", "qseries.py",
     "(self.packed >> (self.order - n) * bits)", "(self.packed >> (self.order - n - 1) * bits)",
     ("tests/test_cli.py::test_a_packed_bump_is_read_from_the_xor_and_the_slots[15]",)),
    ("a partition number one too large", "products.py",
     "return _over_euler([1] + [0] * N)", "return [p + (n == 10) for n, p in enumerate(_over_euler([1] + [0] * N))]",
     ("tests/test_families.py::test_expansion_identities",)),
    ("a top floor bumped at one exponent", "hilbert.py",
     "layout, state = _growing_scan(r, N, range(N, floors[0] - 1, -1))",
     "layout, state = _growing_scan(r, N, range(N, floors[0] - 1, -1))\n"
     "    state[0] += layout._times_q(layout.one, min(N, 10))",
     ("tests/test_families.py::test_expansion_identities",)),
    ("hp-identities without the cap-r generator check", "hilbert.py",
     "expand_generators(QuotientSpec(r, k, cap=r), N) != expand_generators(QuotientSpec(r, k), N)", "False",
     ("tests/test_hilbert.py::test_hp_identities_fail_when_the_full_cap_drops_a_generator",)),
    ("hp-identities without the floor check", "hilbert.py",
     "floor(k)[1][0] != floor(k + 1)[1][-1]", "False",
     ("tests/test_hilbert.py::test_hp_identities_fail_when_the_floor_above_moves",)),
    ("hp-identities without the block check", "hilbert.py",
     "if expand_generators(QuotientSpec(r, k, cap=i), N).generators != block + tail:", "if False:",
     ("tests/test_hilbert.py::test_hp_identities_fail_when_a_middle_cap_drops_a_generator",)),
    ("family-match that skips the one walk", "families.py",
     "for _ in _walk(params.r, params.J, N, d_max, params.ell)[1]:", "for _ in ():",
     ("tests/test_families.py::test_match_fails_when_the_walk_trips_its_guard_bits",)),
    ("a walk that ignores its J+N+2 end", "partitions.py",
     "last = J + N + 2 if end is None else min(end, J + N + 2)", "last = J + N + 2 if end is None else end",
     ("tests/test_families.py::test_match_stops_where_the_walks_are_constant",
      "tests/test_families.py::test_valuations_stop_at_the_walks_end")),
    ("expansion reads stage s's product factors from level s-1", "families.py",
     "level(s)[1] == floor", "level(s - 1)[1] == floor",
     ("tests/test_families.py::test_expansion_identities",)),
    ("left sides read at slot i instead of ell", "partitions.py",
     "return (self.r - 1) * self.J + self.ell", "return (self.r - 1) * self.J + self.i",
     ("tests/test_products.py::test_identity_spot_instances[2-1-2-40]",)),
    ("a growing scan that starts from e_(ell+1)", "partitions.py",
     "start = [0] * max(ells)\n    for k, ell in enumerate(ells):\n        start[ell - 1]",
     "start = [0] * (max(ells) + 1)\n    for k, ell in enumerate(ells):\n        start[ell]",
     ("tests/test_partitions.py::test_gordon_series_frozen_values",)),
    ("a family walk that starts from e_(ell+1)", "families.py",
     "state = [0] * max(ells)\n    for k, ell in enumerate(ells):\n        state[ell - 1]",
     "state = [0] * (max(ells) + 1)\n    for k, ell in enumerate(ells):\n        state[ell]",
     ("tests/test_packed.py::test_family_init_equals_list_monomials",)),
    ("a closed-form run started at q^(h+1)", "partitions.py",
     "run, terms = layout._times_q(total, lo), 1", "run, terms = layout._times_q(total, lo - 1), 1",
     ("tests/test_packed.py::test_growing_scan_equals_fixed_scan_at_every_edge[32]",)),
    ("a closed form that reads P as T", "partitions.py",
     "capped = prefix[min(layout.r - 2, len(prefix) - 1)]", "capped = total",
     ("tests/test_packed.py::test_growing_scan_equals_fixed_scan_at_every_edge[32]",)),
    ("a closed form whose second state is always from T", "partitions.py",
     "last = layout._times_q(total if rest else capped, values[-1])", "last = layout._times_q(total, values[-1])",
     ("tests/test_packed.py::test_growing_scan_equals_fixed_scan_at_every_edge[32]",)),
    ("a descending head that drops the e_r cap", "partitions.py",
     "state = _above_half(layout, state, head)", "state = _above_half(layout, [sum(state)], head)",
     ("tests/test_packed.py::test_growing_scan_equals_fixed_scan_at_every_edge[32]",)),
    ("a descending head whose run goes on to N", "partitions.py",
     "run -= layout._times_q(run, hi + 1 - lo)", "pass",
     ("tests/test_packed.py::test_growing_scan_equals_fixed_scan_at_every_edge[32]",)),
    ("a closed form with an unchecked doubling", "partitions.py",
     "run = layout._check(run + layout._times_q(run, terms))", "run = run + layout._times_q(run, terms)",
     ("tests/test_packed.py::test_closed_form_sums_raise_at_the_guard_bits[doubling]",)),
    ("a closed form with an unchecked tail sum", "partitions.py",
     "out = layout._check(out + run)", "out = out + run",
     ("tests/test_packed.py::test_closed_form_sums_raise_at_the_guard_bits[tail-sum]",)),
    ("a widening that relabels the states without reslot", "partitions.py",
     "state = [wider.reslot(x, layout) for x in state]", "state = list(state)",
     ("tests/test_packed.py::test_growing_scan_equals_list_dp_and_fixed_slots",)),
    ("a widening that skips the retried value", "partitions.py",
     "layout = wider\n", "layout = wider\n                break\n",
     ("tests/test_packed.py::test_growing_scan_equals_list_dp_and_fixed_slots",)),
    ("a hand-off left in the grown slots", "partitions.py",
     "return top, state", "return layout, state",
     ("tests/test_packed.py::test_growing_scan_equals_list_dp_and_fixed_slots",)),
    ("growth not capped at for_counts", "partitions.py",
     "wider = top if bits >= top.bits else _PackedLayout(N, r, bits, len(ells))",
     "wider = _PackedLayout(N, r, bits, len(ells))",
     ("tests/test_packed.py::test_growing_scans_stop_at_for_counts",)),
    ("a route of another order passes", "cli.py",
     "if got != row.order:", "if False:",
     ("tests/test_cli.py::test_a_series_one_order_short_fails_closed",)),
    ("a padded-order check on every table kind", "cli.py",
     'tower=args.kind == "product"', "tower=True",
     ("tests/test_cli.py::test_table_of_a_towerless_kind_ignores_the_padded_order[counts]",)),
    ("a scan that admits i below 1", "cli.py",
     "if i_lo < 1:", "if False:",
     ("tests/test_cli.py::test_scan_usage_errors[argv14]",)),
    ("pentagonal numbers that keep the exponent 0", "products.py",
     "return sorted(odd), sorted(even)[1:]", "return sorted(odd), sorted(even)",
     ("tests/test_products.py::test_base_product_frozen_values",)),
    ("a scan that keeps its first row across r", "cli.py",
     "return [_scan_cell(row, params) for params in row.cells()]",
     'first = _scan_row.__dict__.setdefault("row", row)\n'
     "    return [_scan_cell(first, params) for params in row.cells()]",
     ("tests/test_cli.py::test_scan_keeps_only_the_current_r_in_its_row",)),
    ("a main() that does not start cold: a cell's row kept across commands", "cli.py",
     "[_Row(r, is_, js, order, suites, d_max) for r in",
     "[_plan.__dict__.setdefault((r, is_, js, order, suites, d_max), _Row(r, is_, js, order, suites, d_max)) for r in",
     ("tests/test_cli.py::test_each_command_starts_cold",)),
    ("a one-cell row that computes every route's side up front", "cli.py",
     "        self._sides: dict = {}\n",
     "        self._sides: dict = {}\n"
     "        if len(is_) * len(js) == 1:\n"
     "            self.floor(self.floors[0]), self.level(self.levels[0]), self.ascending(*self.cells())\n",
     ("tests/test_cli.py::test_table_computes_only_its_kind",)),
    ("a lane scan read for another J", "cli.py",
     '("scan", p.J)', '"scan"',
     ("tests/test_cli.py::test_a_scan_runs_one_ascending_scan_per_r_and_J",)),
    ("an hp-identities verdict kept without its floor", "cli.py",
     '("hp-identities", k)', '"hp-identities"',
     ("tests/test_cli.py::test_hp_identities_run_once_per_r_and_floor",)),
    ("a partition scan kept for every cell", "partitions.py",
     "out += zip(series, limits)",
     "out += [(x, y, state) for x, y in zip(series, limits)]",
     ("tests/test_cli.py::test_scan_keeps_only_the_current_r_in_its_row",)),
    ("a step that shifts state j by (u+1)(j-1)", "qseries.py",
     "s = u * (j - 1)", "s = (u + 1) * (j - 1)",
     ("tests/test_partitions.py::test_gordon_series_frozen_values",)),
    ("a step whose state j sums states 1..r-j+2", "qseries.py",
     "prefix[min(self.r - j, last)]", "prefix[min(self.r - j + 1, last)]",
     ("tests/test_partitions.py::test_gordon_series_frozen_values",)),
    ("a lane step that shifts by s B bits, mixing lanes", "qseries.py",
     "prefix[min(self.r - j, last)] >> s * self._slot", "prefix[min(self.r - j, last)] >> s * self.bits",
     ("tests/test_cli.py::test_a_scan_runs_one_ascending_scan_per_r_and_J",)),
    ("a hand-off that reads lane k+1", "qseries.py",
     "lane[b::w] = data[k + b :: stride]", "lane[b::w] = data[k + sw + b :: stride]",
     ("tests/test_packed.py::test_lane_scans_equal_one_lane_scans_and_list_dp[default]",)),
    ("a scan that ignores the lane budget", "partitions.py",
     "per = max(1, _LANE_BYTES // (r * (N + 1) * _PackedLayout.for_counts(N, r)._width))", "per = len(ells)",
     ("tests/test_cli.py::test_a_scan_splits_its_lanes_by_the_lane_budget",
      "tests/test_cli.py::test_a_suite_walk_splits_its_lanes_by_the_lane_budget")),
    ("a scan that fills its floors from the bottom up", "hilbert.py",
     "range(N, floors[0] - 1, -1)", "range(N, floors[-1] - 1, -1)",
     ("tests/test_cli.py::test_five_suite_scan_runs_one_hilbert_scan_per_r",)),
    ("a floor stepped from the one above at value k+1", "hilbert.py",
     "layout.step(state, k)", "layout.step(state, k + 1)",
     ("tests/test_hilbert.py::test_floors_filled_from_the_top_equal_cold_floors",)),
    ("a scan that fills its r before every cell, one row per cell", "cli.py",
     "[_Row(r, is_, js, order, suites, d_max) for r in range(r_lo, r_hi + 1) if (is_ := range(i_lo, min(r, i_hi) + 1))]",
     "[_Row(r, range(i, i + 1), range(J, J + 1), order, suites, d_max) for r in range(r_lo, r_hi + 1)"
     " for i in range(i_lo, min(r, i_hi) + 1) for J in js]",
     ("tests/test_cli.py::test_a_floor_fill_that_raises_runs_once_per_r",
      "tests/test_cli.py::test_a_scan_fills_each_r_once_whatever_its_jobs")),
    ("a pool sized by cells", "cli.py",
     "min(args.jobs, len(rows), os.cpu_count() or 1)",
     "min(args.jobs, sum(len(row.cells()) for row in rows), os.cpu_count() or 1)",
     ("tests/test_cli.py::test_scan_jobs_clamped",)),
    ("a dead row reported as one cell", "cli.py",
     "for p in row.cells()] if f.exception()", "for p in row.cells()[:1]] if f.exception()",
     ("tests/test_cli.py::test_dead_scan_worker_fails_its_cells",)),
    ("a floor fill whose error escapes its cell", "cli.py",
     "except Exception:\n        return False", "except ZeroDivisionError:\n        return False",
     ("tests/test_cli.py::test_a_floor_fill_that_raises_fails_its_cells",)),
    ("a raised side computed again by each reader", "cli.py",
     "                self._sides[key] = exc", "                raise",
     ("tests/test_cli.py::test_a_floor_fill_that_raises_runs_once_per_r",
      "tests/test_cli.py::test_a_lane_scan_that_raises_runs_once_per_J")),
    ("hp-identities computed once per cell", "cli.py",
     "row.hp_identities(p.J + 1)", "verify_hp_identities(p.r, p.J + 1, row.order, row.floor)",
     ("tests/test_cli.py::test_hp_identities_run_once_per_r_and_floor",)),
    ("a plan that checks the padded order at (r_lo, J_lo)", "cli.py",
     "_padded_order(r_hi, level, order)", "_padded_order(r_lo, level - j_hi + j_lo, order)",
     ("tests/test_cli.py::test_padded_order_above_max_is_usage_error[argv2]",)),
    ("packed equality that ignores the int", "qseries.py",
     "return other.order == self.order and other.packed == self.packed", "return other.order == self.order",
     ("tests/test_cli.py::test_packed_routes_compare_by_coefficients[bumped]",)),
    ("packed equality that skips the width test", "qseries.py",
     "isinstance(other, PackedSeries) and other.layout.bits == self.layout.bits",
     "isinstance(other, PackedSeries)",
     ("tests/test_cli.py::test_packed_routes_compare_by_coefficients[wider]",)),
    ("a suite walk lane started one sub-slot off", "families.py",
     "state[ell - 1] += layout.one << k * layout.bits", "state[ell - 1] += layout.one << (k + 1) * layout.bits",
     ("tests/test_packed.py::test_lane_walks_equal_one_lane_walks_and_their_ladder",)),
    ("a suite walk pass that files verdicts after a lane left the ladder", "families.py",
     "d > J + 5 or _on_ladder(layout, d, state) for", "True for",
     ("tests/test_cli.py::test_a_suite_walk_off_the_ladder_files_nothing",)),
    ("a suite walk that ends at J+5 when d_max is larger", "families.py",
     "max(end, J + 5)", "J + 5",
     ("tests/test_cli.py::test_a_scan_runs_one_suite_walk_per_r_and_J",)),
    ("a scan that walks without either walking suite: a lane scan walks too", "cli.py",
     'return self._side(("scan", p.J)', 'self.walked(p)\n        return self._side(("scan", p.J)',
     ("tests/test_cli.py::test_a_scan_without_the_walking_suites_walks_nothing[]",)),
    ("an expansion that emits each pure power before its block", "hilbert.py",
     "for e in range(max(1, (b + 1) * r - N), r + 1)", "for e in (r, *range(max(1, (b + 1) * r - N), r))",
     ("tests/test_hilbert.py::test_expanded_generators_are_the_sorted_reference_set",)),
    ("qseries importing dataclasses again, and with it inspect, ast and dis", "qseries.py",
     "from itertools import accumulate\n", "from dataclasses import dataclass\nfrom itertools import accumulate\n",
     ("tests/test_cli.py::test_cold_start_loads_no_worker_pool",)),
    ("a value __eq__ that ignores the class", "qseries.py",
     "if type(other) is type(self):", "if isinstance(other, _Value):",
     ("tests/test_qseries.py::test_value_classes_keep_their_contract[GordonParams]",)),
    ("a value hash that drops the last field", "qseries.py",
     "return hash(self._astuple())", "return hash(self._astuple()[:-1])",
     ("tests/test_qseries.py::test_value_classes_keep_their_contract[GordonParams]",)),
    ("a TruncatedSeries that validates inline, past the __post_init__ the spans count", "qseries.py",
     "        self.__post_init__()\n",
     "        if not coeffs:\n            raise ValueError(\"a truncated series retains at least exponent 0\")\n",
     ("tests/test_benchmark_hooks.py::test_the_benchmark_spans_wrap_every_kernel_they_name",)),
    ("a scan cell that digests its routes", "cli.py",
     "*_, identity, mismatch = _compare_routes(row, params)",
     "series, *_, identity, mismatch = _compare_routes(row, params)\n"
     "    [s.fingerprint() for s in series.values()]",
     ("tests/test_cli.py::test_a_passing_scan_unpacks_and_digests_nothing",)),
]


def _env(src: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(src))


def _pytest(src: Path, tests) -> subprocess.CompletedProcess:
    # the copy's bytecode goes before each run: a mutant of the same length,
    # written within the second, would leave a .pyc that the next run takes
    # for its source; the tests keep theirs, so pytest need not rewrite them
    shutil.rmtree(src / "rrgordon" / "__pycache__", ignore_errors=True)
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=_env(src), capture_output=True, text=True)


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return "no failing test named"


def _run_mutant(copies: queue.Queue, mutant) -> tuple[str, bool]:
    """The report line of one mutant, and whether it fails the gate. It runs
    in a pristine copy of ``src/`` taken from ``copies`` and given back."""
    fault, file, old, new, tests = mutant
    src = copies.get()
    try:
        path = src / "rrgordon" / file
        text = path.read_text(encoding="utf-8")
        if (count := text.count(old)) != 1:
            return f"STALE     {fault}: old text found {count} times in {file}", True
        path.write_text(text.replace(old, new), encoding="utf-8")
        try:
            result = _pytest(src, tests)
        finally:
            path.write_text(text, encoding="utf-8")
        if result.returncode == 1:
            return f"killed    {fault}: {_first_failure(result.stdout)}", False
        return f"SURVIVED  {fault}: pytest exited {result.returncode}", True
    finally:
        copies.put(src)


def main() -> int:
    jobs = min(os.cpu_count() or 1, len(MUTANTS))
    with tempfile.TemporaryDirectory() as tmp:
        copies: queue.Queue = queue.Queue()
        for src in [Path(tmp) / f"src{n}" for n in range(jobs)]:
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            copies.put(src)
        src = Path(tmp) / "src0"  # the probe and the unpatched run use the first copy
        probe = [sys.executable, "-c", "import rrgordon; print(rrgordon.__file__)"]
        found = subprocess.run(probe, cwd=ROOT, env=_env(src), capture_output=True, text=True).stdout.strip()
        if not found or not Path(found).resolve().is_relative_to(src.resolve()):
            print(f"mutants: rrgordon imports from {found or 'nowhere'}, not from the copy")
            return 1
        files = sorted({t.split("::")[0] for *_, tests in MUTANTS for t in tests})
        base = _pytest(src, files)
        if base.returncode != 0:
            print(f"mutants: the unpatched copy fails: {_first_failure(base.stdout)}")
            return 1

        bad = 0
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for line, failed in pool.map(partial(_run_mutant, copies), MUTANTS):
                print(line, flush=True)
                bad += failed
        print(f"{len(MUTANTS) - bad}/{len(MUTANTS)} mutants killed")
        return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
