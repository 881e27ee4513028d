"""Hilbert-Poincare series of graded quotients by the gap monomial ideals.

The ambient ring has one variable per integer index k, k+1, ..., graded by
weight (index times exponent, summed). The ideal is generated by the
products x_a^(r-t) * x_(a+1)^t, optionally preceded by a capped block in the
lowest variable. All generators are monomials, so each graded dimension is a
count of standard monomials: monomials divisible by no generator.

Two routes compute those counts: ``standard_monomial_count`` enumerates
monomials and tests divisibility literally (the oracle), while ``hp_series``
counts multiplicity vectors with bounded adjacent sums, which is the same
set by the divisor-avoidance characterization (f_a + f_(a+1) <= r-1 for all
a >= k, and f_k <= cap-1 when capped).

One descending scan serves every cap at a floor and every floor below it,
since floor k is floor k+1 after one more step, the peel of x_k:
``_floors`` hands off the checked caps 1..r of each floor of a range, and
its readers only index them: a ``cli`` row of each r of a command, whose
floors the hilbert route and the suites read, and ``hp_series``, from a
scan to its one floor. The scan runs in slots that grow with its counts
(``partitions._growing_scan``), which stay small for most of it, and it
steps only the variables from N/2 down: a standard monomial of weight at
most N has at most one variable above N/2, to the first power, so the
states after variables N..N/2+1 are read off in closed form.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from itertools import accumulate

from .partitions import GordonParams, _growing_scan, iter_partitions
from .qseries import PackedSeries, _PackedLayout, _Value, _set

# a generator is a tuple of (variable_index, exponent) pairs, sorted by index
Generator = tuple[tuple[int, int], ...]


class QuotientSpec(_Value):
    """Graded quotient S_k / ideal, for the gap ideal with optional cap, an
    immutable value (``qseries._Value``).

    Without ``cap`` the generators run over all variables from index k.
    With ``cap`` = ell, the lowest variable gets the shorter leading block
    x_k^ell, x_k^(ell-1) x_(k+1)^(r-ell+1), ..., x_k x_(k+1)^(r-1) and the
    unrestricted generators start one variable higher.
    """

    __slots__ = ("r", "k", "cap")

    def __init__(self, r: int, k: int, cap: int | None = None):
        if r < 2:
            raise ValueError(f"r must be at least 2, got {r}")
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if cap is not None and not 1 <= cap <= r:
            raise ValueError(f"cap must lie in 1..{r}, got {cap}")
        _set(self, "r", r)
        _set(self, "k", k)
        _set(self, "cap", cap)


class MonomialIdealSpec(_Value):
    """Generators of weight <= weight_bound, in variables >= first_var, an
    immutable value (``qseries._Value``)."""

    __slots__ = ("generators", "first_var", "weight_bound")

    def __init__(self, generators: tuple[Generator, ...], first_var: int, weight_bound: int):
        _set(self, "generators", generators)
        _set(self, "first_var", first_var)
        _set(self, "weight_bound", weight_bound)


def gordon_quotient(params: GordonParams) -> QuotientSpec:
    """The quotient whose graded dimensions are the Gordon-condition counts."""
    return QuotientSpec(r=params.r, k=params.J + 1, cap=params.i)


def _generator_weight(gen: Generator) -> int:
    return sum(v * e for v, e in gen)


def expand_generators(spec: QuotientSpec, N: int) -> MonomialIdealSpec:
    """All ideal generators of weight at most N, canonically ordered: the
    tuples' sorted order, which they are built in, by variable, then by its
    exponent, so each variable's pure power comes last.

    x_a^e x_(a+1)^(r-e) weighs (a+1)r - e, so it is kept from e = (a+1)r - N
    on. The uncapped generators run over the variables a with a r <= N, so
    each keeps its pure power x_a^r."""
    if N < 0:
        raise ValueError("weight bound must be non-negative")
    r, k, cap = spec.r, spec.k, spec.cap
    gens: list[Generator] = []
    a = k
    if cap is not None:
        gens += [((k, e), (k + 1, r - e)) for e in range(max(1, (k + 1) * r - N), cap)]
        if k * cap <= N:
            gens.append(((k, cap),))
        a = k + 1
    gens += [
        ((b, e), (b + 1, r - e)) if e < r else ((b, r),)
        for b in range(a, N // r + 1)
        for e in range(max(1, (b + 1) * r - N), r + 1)
    ]
    return MonomialIdealSpec(tuple(gens), first_var=k, weight_bound=N)


def standard_monomial_count(ideal: MonomialIdealSpec, n: int) -> int:
    """Oracle: weight-n monomials on x_k, x_(k+1), ... divisible by no generator.

    Monomials of weight n correspond to partitions of n into parts >= k
    (part value = variable index, multiplicity = exponent); enumeration is
    exhaustive and meant for small n.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > ideal.weight_bound:
        raise ValueError("n exceeds the weight bound the ideal was expanded to")
    relevant = [g for g in ideal.generators if _generator_weight(g) <= n]
    count = 0
    for parts in iter_partitions(n, min_part=ideal.first_var):
        freq = Counter(parts)
        if not any(all(freq[v] >= e for v, e in g) for g in relevant):
            count += 1
    return count


def _floors(r: int, floors: range, N: int) -> list[tuple[_PackedLayout, tuple[int, ...]]]:
    """The layout, ``for_counts(N, r)``, and the packed caps 1..r (cap r is
    uncapped) of each floor in ``floors``, top down: one scan of variables N
    down to the first floor, which steps only those up to N/2 and starts
    from the closed-form states after the ones above it, then one ``step``
    per lower floor. A floor above N keeps the series 1.

    State j of the scan holds the multiplicity vectors with f_k = j-1, and
    the states past the returned ones are zero. So the quotient capped at c
    in x_k (f_k <= c-1) is the sum of states 1..c: the caps are the prefix
    sums of the states, each checked once here in the ``for_counts`` slots
    the scan hands off, and a cap past the nonzero states repeats the total.
    """
    layout, state = _growing_scan(r, N, range(N, floors[0] - 1, -1))
    out = []
    for k in floors:
        if out:
            state = layout.step(state, k)
        caps = tuple(layout._check(x) for x in accumulate(state))
        out.append((layout, caps + caps[-1:] * (r - len(caps))))
    return out


def hp_series(spec: QuotientSpec, N: int) -> PackedSeries:
    """Hilbert-Poincare series of the quotient, to order N.

    Graded dimensions come from the multiplicity DP, scanning variables from
    index N down to k (``_floors``); a cap c keeps the vectors with f_k <= c-1,
    the first c states of that scan. The series is the floor's packed cap c,
    in its ``for_counts(N, r)`` slots.
    """
    [(layout, caps)] = _floors(spec.r, range(spec.k, spec.k - 1, -1), N)
    return PackedSeries(layout, caps[(spec.cap or spec.r) - 1])


def verify_hp_identities(r: int, k: int, N: int, floor: Callable[[int], tuple]) -> bool:
    """The three structural identities tying capped and uncapped quotients.

    cap 1 at k equals uncapped at k+1, compared packed; cap r at k equals
    uncapped at k, compared as generator lists, since a floor keeps both
    series in one slot; and for every i, the capped expansion at k is the
    leading block followed by the uncapped expansion at k+1, compared as
    generator tuples in their canonical order. ``floor(j)`` reads floor j
    at (r, N), as a ``cli`` row does. The result does not depend on i,
    so ``cli`` checks it once per (r, k) of a scan, for all of its cells.
    """
    if floor(k)[1][0] != floor(k + 1)[1][-1]:
        return False
    if expand_generators(QuotientSpec(r, k, cap=r), N) != expand_generators(QuotientSpec(r, k), N):
        return False
    tail = expand_generators(QuotientSpec(r, k + 1), N).generators
    for i in range(1, r + 1):
        # the block in canonical order: x_k^e x_(k+1)^(r-e) for e < i, then x_k^i
        mixed = [((k, e), (k + 1, r - e)) for e in range(1, i)]
        block = tuple(g for g in [*mixed, ((k, i),)] if _generator_weight(g) <= N)
        if expand_generators(QuotientSpec(r, k, cap=i), N).generators != block + tail:
            return False
    return True


def verify_hp_recursion(r: int, k: int, cap: int, N: int, floor: Callable[[int], tuple]) -> bool:
    """Peel the lowest variable: the series at k capped at ``cap`` as a
    q-power combination of capped series at k+1, compared packed, with
    ``floor`` as in ``verify_hp_identities``."""
    if not 1 <= cap <= r:
        raise ValueError(f"cap must lie in 1..{r}, got {cap}")
    layout, above = floor(k + 1)
    rhs = sum(layout._times_q(above[r - j], k * (j - 1)) for j in range(1, cap + 1))
    return floor(k)[1][cap - 1] == layout._check(rhs)
