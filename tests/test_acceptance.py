"""Acceptance checklist: every numbered check runs at its stated order with
exact (zero-tolerance) coefficient comparison, and reports one summary line.

The main grid is 2 <= r <= 5, 1 <= i <= r, 0 <= J <= 3 (56 cells).
"""

from modular import allowed_residues, count_modular
from rrgordon.families import (
    family_at_stage,
    family_limit,
    family_step,
    verify_expansion,
    verify_family_match,
)
from rrgordon.hilbert import (
    QuotientSpec,
    expand_generators,
    gordon_quotient,
    hp_series,
    standard_monomial_count,
    verify_hp_recursion,
)
from rrgordon.partitions import (
    GordonParams,
    enumerate_gordon,
    gordon_series,
    iter_partitions,
)
from rrgordon.products import ProductIndex, product_series
from rrgordon.qseries import NonDivisibleError, TruncatedSeries, first_mismatch

GRID = [
    GordonParams(r, i, J)
    for r in range(2, 6)
    for i in range(1, r + 1)
    for J in range(0, 4)
]

ORACLE_GRID = [
    GordonParams(r, i, J)
    for r in range(2, 5)
    for i in range(1, r + 1)
    for J in range(0, 3)
]


def test_product_equals_partition_series_on_grid(criterion):
    """[1] product recursion agrees with the partition DP at order 50."""
    failures = []
    for params in GRID:
        lhs = product_series(ProductIndex(params.r, params.product_index), 50)
        rhs = gordon_series(params, 50)
        n = first_mismatch(lhs, rhs)
        if n is not None:
            failures.append((params, n, lhs.coeffs[n], rhs.coeffs[n]))
    ok = not failures
    criterion(1, "product series = partition series (56 cells, N=50)", ok)
    assert ok, failures


def test_modular_counts_equal_gap_counts(criterion):
    """[2] congruence-class counts agree with gap-condition counts, n <= 50."""
    failures = []
    for r in range(2, 6):
        for i in range(1, r + 1):
            gap = gordon_series(GordonParams(r, i, 0), 50).coeffs
            for n in range(51):
                if count_modular(r, i, n) != gap[n]:
                    failures.append((r, i, n))
    ok = not failures
    criterion(2, "modular counts = gap-condition counts (J=0, n<=50)", ok)
    assert ok, failures


def test_hilbert_series_equals_partition_series_on_grid(criterion):
    """[3] graded-quotient dimensions agree with the partition DP at order 50."""
    failures = []
    for params in GRID:
        lhs = hp_series(gordon_quotient(params), 50)
        rhs = gordon_series(params, 50)
        n = first_mismatch(lhs, rhs)
        if n is not None:
            failures.append((params, n))
    ok = not failures
    criterion(3, "Hilbert series = partition series (56 cells, N=50)", ok)
    assert ok, failures


def test_family_limits_and_stabilization(criterion):
    """[4] family limits hit their targets at order 40, stabilizing in bound."""
    N = 40
    failures = []
    for params in GRID:
        bound = params.J + N + 2
        targets = {
            "hilbert": hp_series(gordon_quotient(params), N),
            "product": product_series(ProductIndex(params.r, params.product_index), N),
        }
        limit = family_limit(None, params, N)
        for side, target in targets.items():
            if first_mismatch(limit, target) is not None:
                failures.append((params, side, "limit != target"))
        # independent walk to the stage bound must land on the same entry
        fam = family_at_stage(params, params.J + 1, N)
        prev = None
        while fam.stage < bound:
            prev = fam.entries[0]
            fam = family_step(fam)
        if prev is None or first_mismatch(fam.entries[0], prev) is not None:
            failures.append((params, "not stabilized by bound"))
        if first_mismatch(fam.entries[0], limit) is not None:
            failures.append((params, "walk disagrees with limit"))
    ok = not failures
    criterion(4, "family limits match both sides, stable by J+N+2 (N=40)", ok)
    assert ok, failures


def test_hp_recursion_grid(criterion):
    """[5] the variable-peeling recursion holds for r<=5, k<=6, ell<=r at N=40."""
    failures = [
        (r, k, ell)
        for r in range(2, 6)
        for k in range(1, 7)
        for ell in range(1, r + 1)
        if not verify_hp_recursion(r, k, ell, 40)
    ]
    ok = not failures
    criterion(5, "Hilbert peel recursion (r<=5, k<=6, ell<=r, N=40)", ok)
    assert ok, failures


def test_families_match_on_grid(criterion):
    """[6] the two coefficient families agree entrywise up to stage 20 at N=40."""
    failures = [
        params for params in GRID if not verify_family_match(params, 20, 40)
    ]
    ok = not failures
    criterion(6, "product/hilbert families match (d<=20, N=40)", ok)
    assert ok, failures


def test_expansion_identities_on_grid(criterion):
    """[7] both stage-d expansion identities hold for J+1 <= d <= 8 at N=30."""
    failures = [
        (params, d)
        for params in GRID
        for d in range(params.J + 1, 9)
        if not verify_expansion(params, d, 30)
    ]
    ok = not failures
    criterion(7, "stage-d expansion identities (d<=8, N=30)", ok)
    assert ok, failures


def test_oracle_equivalence(criterion):
    """[8] DP counts equal brute-force enumeration for n <= 20."""
    failures = []
    for params in ORACLE_GRID:
        counts = gordon_series(params, 20).coeffs
        spec = gordon_quotient(params)
        hp = hp_series(spec, 20).coeffs
        ideal = expand_generators(spec, 20)
        for n in range(21):
            if counts[n] != len(enumerate_gordon(params, n)):
                failures.append(("partition", params, n))
            if hp[n] != standard_monomial_count(ideal, n):
                failures.append(("monomial", params, n))
    ok = not failures
    criterion(8, "DPs = brute-force oracles (r<=4, J<=2, n<=20)", ok)
    assert ok, failures


def test_valuation_properties(criterion):
    """[9] tail valuations, exact divisibility, and the family ladder."""
    failures = []
    # a first mismatch with 1 (or 0) is the valuation of the difference; None
    # means the series agree
    one = TruncatedSeries((1,) + (0,) * 22)
    for r in range(2, 6):
        for d in range(0, 21):
            val = first_mismatch(hp_series(QuotientSpec(r, d + 2), 22), one)
            if not (val is None or val >= d + 2):
                failures.append(("hp tail", r, d, val))
    # every tower behind the order-50 grid divides exactly or raises
    for params in GRID:
        try:
            product_series(ProductIndex(params.r, params.product_index), 50)
        except NonDivisibleError as exc:
            failures.append(("divisibility", params, str(exc)))
    # valuation ladder at every inspected stage
    zero = TruncatedSeries((0,) * 41)
    for params in GRID:
        fam = family_at_stage(params, params.J + 1, 40)
        for _ in range(12):
            for j, entry in enumerate(fam.entries, start=1):
                val = first_mismatch(entry, zero)
                if not (val is None or val >= fam.stage * (j - 1)):
                    failures.append(("ladder", params, fam.stage, j, val))
            fam = family_step(fam)
    ok = not failures
    criterion(9, "valuation bounds: hp tails, exact division, family ladder", ok)
    assert ok, failures


def test_classical_rogers_ramanujan(criterion):
    """[10] the two classical identities drop out at r=2, J=0."""
    failures = []

    first = GordonParams(2, 2, 0)
    second = GordonParams(2, 1, 0)

    # first identity: counts at n=4 are 2 on every route
    routes_at_4 = {
        "product": product_series(ProductIndex(2, first.product_index), 4).coeffs[4],
        "partition": gordon_series(first, 4).coeffs[4],
        "hilbert": hp_series(gordon_quotient(first), 4).coeffs[4],
        "family": family_limit(None, first, 4).coeffs[4],
    }
    if set(routes_at_4.values()) != {2}:
        failures.append(("n=4 coefficients", routes_at_4))
    if len(enumerate_gordon(first, 4)) != 2:
        failures.append(("enumeration oracle at n=4",))

    # second identity: allowed parts are 2 and 3 mod 5
    if allowed_residues(2, 1) != {2, 3}:
        failures.append(("allowed residues", allowed_residues(2, 1)))
    gap = gordon_series(second, 30).coeffs
    for n in range(31):
        if count_modular(2, 1, n) != gap[n]:
            failures.append(("second identity", n))
    # cross-check both sides against direct enumeration at small n
    for n in range(13):
        brute_modular = sum(
            1
            for parts in iter_partitions(n)
            if all(x % 5 in (2, 3) for x in parts)
        )
        if brute_modular != gap[n] or len(enumerate_gordon(second, n)) != gap[n]:
            failures.append(("brute force", n))

    ok = not failures
    criterion(10, "classical Rogers-Ramanujan instances (r=2)", ok)
    assert ok, failures
