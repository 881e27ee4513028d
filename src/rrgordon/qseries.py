"""Truncated formal power series in q with exact integer coefficients.

A series is carried to an explicit truncation order N: exponents 0..N are
retained, everything above is unknown. Coefficients are plain Python ints,
so they never overflow and never round. All operations are pure; instances
are immutable and safe to share between threads or processes.

Mixed-order operations truncate to the smaller order: callers build
high-order intermediates and compare at the target order.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable

#: q-adic valuation of the zero series. Compares above every integer.
INFINITE = math.inf


class NonDivisibleError(ArithmeticError):
    """Exact division by a power of q hit a nonzero low-order coefficient."""


@dataclass(frozen=True)
class TruncatedSeries:
    """Formal power series mod q^(order+1); ``coeffs[n]`` is the q^n coefficient."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a truncated series retains at least exponent 0")
        if not all(isinstance(c, int) for c in self.coeffs):
            raise TypeError("coefficients must be exact integers")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> TruncatedSeries:
        return cls(tuple(int(c) for c in coeffs))

    @classmethod
    def zero(cls, order: int) -> TruncatedSeries:
        return cls((0,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> TruncatedSeries:
        """The multiplicative identity, 1, at the given order."""
        return cls((1,) + (0,) * order)

    @classmethod
    def monomial(cls, exponent: int, order: int, coeff: int = 1) -> TruncatedSeries:
        """c * q^exponent, truncated to ``order`` (zero if exponent > order)."""
        c = [0] * (order + 1)
        if 0 <= exponent <= order:
            c[exponent] = coeff
        return cls(tuple(c))

    @classmethod
    def geometric_series(cls, m: int, order: int) -> TruncatedSeries:
        """Expansion of 1/(1 - q^m): coefficient 1 at every multiple of m."""
        if m < 1:
            raise ValueError("m must be a positive integer")
        c = [0] * (order + 1)
        for n in range(0, order + 1, m):
            c[n] = 1
        return cls(tuple(c))

    # -- arithmetic (result order = min of operand orders) ---------------

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        n = min(self.order, other.order)
        return TruncatedSeries(
            tuple(a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1]))
        )

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        n = min(self.order, other.order)
        return TruncatedSeries(
            tuple(a - b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1]))
        )

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        """Cauchy product, truncated to the smaller operand order."""
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = [0] * (n + 1)
        for j in range(n + 1):
            aj = a[j]
            if aj == 0:
                continue
            for k in range(n + 1 - j):
                bk = b[k]
                if bk:
                    out[j + k] += aj * bk
        return TruncatedSeries(tuple(out))

    def mul_qpow(self, s: int) -> TruncatedSeries:
        """Multiply by q^s, keeping the same truncation order."""
        if s < 0:
            raise ValueError("s must be non-negative")
        n = self.order
        return TruncatedSeries((0,) * min(s, n + 1) + self.coeffs[: max(0, n + 1 - s)])

    def shift_div(self, k: int) -> TruncatedSeries:
        """Exact division by q^k; the result has order ``order - k``.

        Raises NonDivisibleError if any coefficient below q^k is nonzero:
        on valid inputs of the recursions built on top of this, that would
        mean an identity actually failed.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        if k > self.order:
            raise ValueError("cannot shift past the truncation order")
        if any(self.coeffs[:k]):
            bad = next(n for n in range(k) if self.coeffs[n])
            raise NonDivisibleError(
                f"coefficient {self.coeffs[bad]} at exponent {bad} blocks division by q^{k}"
            )
        return TruncatedSeries(self.coeffs[k:])

    def truncate(self, order: int) -> TruncatedSeries:
        """Restrict to a smaller (or equal) order."""
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: order + 1])

    # -- queries ----------------------------------------------------------

    def valuation(self) -> int | float:
        """Smallest exponent with a nonzero coefficient, INFINITE if none retained."""
        for n, c in enumerate(self.coeffs):
            if c:
                return n
        return INFINITE

    def eq(self, other: TruncatedSeries) -> bool:
        """Coefficientwise equality up to the smaller of the two orders."""
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    def fingerprint(self) -> str:
        """Short stable digest of the exact coefficient vector."""
        payload = f"{self.order}:" + ",".join(str(c) for c in self.coeffs)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    # -- serialization ----------------------------------------------------

    def as_json_dict(self) -> dict:
        """JSON form: coefficients as decimal strings (they may exceed 64 bits)."""
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> TruncatedSeries:
        coeffs = tuple(int(c) for c in obj["coeffs"])
        if len(coeffs) != obj["order"] + 1:
            raise ValueError("coeffs length does not match order")
        return cls(coeffs)

    def __str__(self) -> str:
        terms = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if n == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append(f"q^{n}" if n > 1 else "q")
            else:
                terms.append(f"{c}*q^{n}" if n > 1 else f"{c}*q")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(q^{self.order + 1})"


def first_mismatch(a: TruncatedSeries, b: TruncatedSeries) -> int | None:
    """Smallest exponent where the two series differ, None if they agree."""
    n = min(a.order, b.order)
    for t in range(n + 1):
        if a.coeffs[t] != b.coeffs[t]:
            return t
    return None


# -- packed non-negative series (private step kernel) -------------------------


class _PackedLayout:
    """One non-negative series of order N packed into one int.

    Slot w, ``bits`` = B bits wide, holds the q^w coefficient, so a whole
    series is added, shifted by whole slots (multiplication by a power of q)
    or compared in one C operation: Kronecker substitution. ``pack`` and
    ``unpack`` convert through ``to_bytes``/``from_bytes``, so B is a whole
    number of bytes.

    The top g = ceil(log2 r) bits of every slot are guard bits. While every
    slot of every state stays below 2^(B-g), a sum of at most r states stays
    below 2^B in every slot and never carries into the next one. ``step``
    checks the guard bits of the total of its input. Every state it returns
    is a partial sum of the same states shifted by whole slots, so none of
    its slots exceeds a slot of that total: the check covers them all, and
    by induction a result returned without ArithmeticError is exact whatever
    B is. ``for_counts`` chooses B so that the check never fires on counts
    of partitions.

    A difference of two checked series needs no more room: a slot that
    would go negative borrows from the slot above and is left at 2^B minus
    less than 2^(B-g), so with g >= 1 its guard bits are set and the check
    fires instead of returning wrapped slots. ``shift_div`` divides such a
    difference by a power of q under the same check.
    """

    def __init__(self, order: int, r: int, bits: int, value_bits: int | None = None):
        value_bits = bits - (r - 1).bit_length() if value_bits is None else value_bits
        if bits % 8 or not 0 < value_bits < bits:
            raise ValueError(f"slots need whole bytes above {value_bits} value bits, got {bits}")
        self.order, self.r, self.bits = order, r, bits
        self._width = bits // 8
        self._mask = (1 << (order + 1) * bits) - 1
        slot_bytes = ((1 << bits) - (1 << value_bits)).to_bytes(self._width, "little")
        self._guard = int.from_bytes(slot_bytes * (order + 1), "little")

    @classmethod
    def for_counts(cls, order: int, r: int) -> _PackedLayout:
        """Slots for series whose q^w coefficient counts a subset of the
        partitions of w, plus the guard bits of sums of r such series.

        p(w) < e^(pi sqrt(2w/3)) for w >= 1 (and p(0) = 1), so every count
        up to the order fits in b = floor(pi sqrt(2N/3) / ln 2) + 1 bits;
        B is b + ceil(log2 r) rounded up to a whole byte.
        """
        if order < 0:
            raise ValueError("order must be non-negative")
        value_bits = int(math.pi * math.sqrt(2 * order / 3) / math.log(2)) + 1
        guard_bits = (r - 1).bit_length()
        return cls(order, r, -(-(value_bits + guard_bits) // 8) * 8)

    @classmethod
    def for_products(cls, order: int, r: int) -> _PackedLayout:
        """Slots for sums of r products of two series of partition counts.

        Every bit at or above v = ``for_counts(order, r).bits - ceil(log2 r)``
        is a guard bit, so each operand that passes the check is below 2^v.
        A slot of the sum adds at most r(N+1) products below 2^(2v), so B =
        2v + bitlen(N+1) + ceil(log2 r), rounded up to whole bytes, never carries.
        """
        g = (r - 1).bit_length()
        v = cls.for_counts(order, r).bits - g
        return cls(order, r, -(-(2 * v + (order + 1).bit_length() + g) // 8) * 8, v)

    def _check(self, x: int) -> int:
        if x < 0 or x & self._guard:
            raise ArithmeticError(f"a {self.bits}-bit slot reached its guard bits")
        return x

    def pack(self, coeffs: tuple[int, ...]) -> int:
        """Packs N+1 coefficients. Raises ArithmeticError on a negative
        coefficient or one that does not fit below the guard bits."""
        if len(coeffs) != self.order + 1:
            raise ValueError(f"expected {self.order + 1} coefficients, got {len(coeffs)}")
        w = self._width
        try:
            data = b"".join(c.to_bytes(w, "little") for c in coeffs)
        except OverflowError:
            raise ArithmeticError(f"a coefficient does not fit a {self.bits}-bit slot") from None
        return self._check(int.from_bytes(data, "little"))

    def unpack(self, x: int) -> tuple[int, ...]:
        """The N+1 coefficients of a packed series (a state or a sum of at
        most r of them)."""
        w = self._width
        data = self._check(x).to_bytes((self.order + 1) * w, "little")
        return tuple(int.from_bytes(data[k : k + w], "little") for k in range(0, len(data), w))

    def _times_q(self, x: int, s: int) -> int:
        return (x << s * self.bits) & self._mask

    def shift_div(self, x: int, k: int) -> int:
        """x / q^k, kept to this layout's order, for a packed difference x
        of two checked series of this slot width and any order.

        Raises NonDivisibleError if a slot below q^k is nonzero, and
        ArithmeticError if a kept slot reached its guard bits, which is
        where a negative kept slot ends up.
        """
        bits = self.bits
        low = x & ((1 << k * bits) - 1)
        if low:
            # the lowest nonzero slot takes no borrow; read it as signed
            n = ((low & -low).bit_length() - 1) // bits
            c = (x >> n * bits) & ((1 << bits) - 1)
            if c >> (bits - 1):
                c -= 1 << bits
            raise NonDivisibleError(f"coefficient {c} at exponent {n} blocks division by q^{k}")
        return self._check((x >> k * bits) & self._mask)

    def step(self, state: list[int], u: int, kept: int) -> list[int]:
        """Advance states e_1, e_2, ... (missing trailing states are zero).

        With prefix sums P_k = e_1 + ... + e_k, new state j is
        q^(u(j-1)) P_(r-j+1), for j = 1..``kept`` (at most r). States
        shifted past the order are dropped, so the result may be shorter.
        """
        prefix = list(accumulate(state))
        total = self._check(prefix[-1])
        new = [total]
        last = len(prefix) - 1
        for j in range(2, kept + 1):
            s = u * (j - 1)
            if s > self.order:
                break
            new.append(self._times_q(prefix[min(self.r - j, last)], s))
        return new
