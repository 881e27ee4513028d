"""Truncated formal power series in q with exact integer coefficients.

A series is carried to an explicit truncation order N: exponents 0..N are
retained, everything above is unknown. Coefficients are plain Python ints,
so they never overflow and never round. Two types hold one:

- ``PackedSeries``, what the four routes hand over: a non-negative series as
  one int in ``_PackedLayout`` slots, checked below its guard bits when it is
  built. Two of them in slots of one width compare as ints; the coefficients
  are unpacked on their first read and kept.
- ``TruncatedSeries``, the oracle and output type: a frozen tuple of
  coefficients, type-checked when it is built, with list arithmetic.
  ``PackedSeries`` digests and serializes through it.

``TruncatedSeries`` and the other modules' parameter and result types
(``GordonParams``, ``Partition``, ``QuotientSpec``, ``MonomialIdealSpec``,
``ProductIndex``, ``CoefficientFamily``) are ``_Value`` classes: immutable
tuples of named fields, each class with its own ``__init__`` that validates
them. The base derives equality, hashing, ``repr``, pickling and copying
from the field names alone, so no module imports the standard library's
class generator, which would load ``inspect``, ``ast`` and ``dis`` at
every start-up.

All operations are pure, and neither type changes a series after it is
built, so both are safe to share between threads or processes. No module
keeps a series between calls: a command keeps what it computed in the row
it hands its cells (``cli``). Mixed-order operations truncate to the
smaller order: callers build high-order intermediates and compare at the
target order.
"""

from __future__ import annotations

import hashlib
import math
from itertools import accumulate

_set = object.__setattr__


class _Value:
    """An immutable tuple of the fields named in a subclass's ``__slots__``.

    Two values are equal when they are of one class and their field tuples
    are equal, and a value hashes as its field tuple. ``repr`` reads
    ``GordonParams(r=3, i=2, J=1)``. Pickling and copying rebuild a value
    from its fields through its ``__init__``, which sets them with ``_set``,
    since assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is type(self):
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class NonDivisibleError(ArithmeticError):
    """Exact division by a power of q hit a nonzero low-order coefficient."""


class TruncatedSeries(_Value):
    """Formal power series mod q^(order+1); ``coeffs[n]`` is the q^n coefficient.

    ``__init__`` validates through ``__post_init__``, looked up on the class,
    so a caller can count the series built by replacing it."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        _set(self, "coeffs", coeffs)
        self.__post_init__()

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a truncated series retains at least exponent 0")
        if not all(isinstance(c, int) for c in self.coeffs):
            raise TypeError("coefficients must be exact integers")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    # -- arithmetic (result order = min of operand orders) ---------------

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        n = min(self.order, other.order)
        return TruncatedSeries(
            tuple(a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1]))
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

    # -- queries ----------------------------------------------------------

    def coefficient(self, n: int) -> int:
        """The q^n coefficient."""
        return self.coeffs[n]

    def fingerprint(self) -> str:
        """Short stable digest of the exact coefficient vector."""
        payload = f"{self.order}:" + ",".join(str(c) for c in self.coeffs)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    # -- serialization ----------------------------------------------------

    def as_json_dict(self) -> dict:
        """JSON form: coefficients as decimal strings (they may exceed 64 bits)."""
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}


def first_mismatch(a: TruncatedSeries | PackedSeries, b: TruncatedSeries | PackedSeries) -> int | None:
    """Smallest exponent where the two series differ, None if they agree.

    Two ``PackedSeries`` of one order in slots of one width are read from
    a ^ b, which has no borrow: its top set bit lies in the top slot where
    they differ, and slot s holds q^(N-s). Any other pair is compared
    coefficient by coefficient, to the smaller order."""
    if isinstance(a, PackedSeries) and isinstance(b, PackedSeries) and (a.order, a.layout.bits) == (b.order, b.layout.bits):
        x = a.packed ^ b.packed
        return a.order - (x.bit_length() - 1) // a.layout.bits if x else None
    n = min(a.order, b.order)
    for t in range(n + 1):
        if a.coeffs[t] != b.coeffs[t]:
            return t
    return None


# -- packed non-negative series (private step kernel) -------------------------


class _PackedLayout:
    """One non-negative series of order N packed into one int, in reverse.

    Slot i, ``bits`` = B bits wide, holds the q^(N-i) coefficient: q^0 sits
    in the top slot N and q^N in slot 0 (Kronecker substitution). A whole
    series is added or compared in one C operation, and multiplying it by
    q^s is one right shift by s slots: each exponent w moves to w + s, and
    those past N fall off the bottom, so the shift also truncates, and no
    mask and no longer temporary are needed. A right shift of a checked
    series cannot carry a dropped slot into a kept one, since no slot ever
    carried. ``one`` is the series 1, 2^(N B). ``pack`` and ``unpack``
    convert through big-endian ``to_bytes``/``from_bytes``, which write the
    top slot first, so B is a whole number of bytes.

    The top g = ceil(log2 r) bits of every slot are guard bits. While every
    slot of every state stays below 2^(B-g), a sum of at most r states stays
    below 2^B in every slot and never carries into the next one. ``step``
    checks the guard bits of the total of its input. Every state it returns
    is a partial sum of the same states shifted by whole slots, so none of
    its slots exceeds a slot of that total: the check covers them all, and
    by induction a result returned without ArithmeticError is exact whatever
    B is. ``for_counts`` chooses B so that the check never fires on counts
    of partitions. That B is the ceiling of the long partition and Hilbert
    scans (``partitions._growing_scan``), not the width they step in: they
    start narrower and, when the check fires, ``reslot`` the input states of
    that step into wider slots and step again, then hand their states off in
    ``for_counts`` slots, the layout every reader sees; a product tower
    hands every level of its range off in them too (``products._tower``).

    A difference of two checked series needs no more room: a slot that
    would go negative borrows from the slot above and is left at 2^B minus
    less than 2^(B-g), so with g >= 1 its guard bits are set and the check
    fires instead of returning wrapped slots. The slot above holds a lower
    exponent, so ``shift_div``, which divides such a difference by a power
    of q under the same check, rounds where it cuts instead of letting a
    borrow from a dropped slot into a kept one.

    With L ``lanes``, one int holds L series interleaved: slot n of lane k
    sits at bits (n L + k) B, so ``one`` is lane 0's series 1 and lane k's
    is ``one << k B``. Multiplying by q^s is a right shift by s L B bits,
    which moves whole groups of L sub-slots, so lanes never mix, and the
    guard check covers every B-bit sub-slot. ``step``, ``reslot``,
    ``_times_q`` and ``_has_valuation`` act on every lane at once, and
    ``unlace`` hands each lane off into a one-lane layout; the other methods
    read one-lane layouts only.
    """

    def __init__(self, order: int, r: int, bits: int, lanes: int = 1):
        v = bits - (r - 1).bit_length()
        if bits % 8 or not 0 < v < bits:
            raise ValueError(f"slots need whole bytes above {v} value bits, got {bits}")
        self.order, self.r, self.bits, self.lanes = order, r, bits, lanes
        self._width, self._slot = bits // 8, bits * lanes
        self.one = 1 << order * self._slot
        slot_bytes = ((1 << bits) - (1 << v)).to_bytes(self._width, "little")
        self._guard = int.from_bytes(slot_bytes * ((order + 1) * lanes), "little")

    @classmethod
    def for_counts(cls, order: int, r: int) -> _PackedLayout:
        """Slots for series whose q^w coefficient counts a subset of the
        partitions of w, plus the guard bits of sums of r such series.

        p(w) < e^(pi sqrt(2w/3)) for w >= 1 (and p(0) = 1), so every count
        up to the order fits in b = floor(pi sqrt(2N/3) / ln 2) + 1 bits;
        B is b + ceil(log2 r) rounded up to a whole byte. The bound is
        a priori and loose (88 bits at r = 3 and order 500, where no count
        needs more than 54), so the long scans only grow up to these slots
        and hand their states off in them, and a tower hands every level of
        its range off in them; the short walks and the readers of what those
        hand off use them throughout.
        """
        if order < 0:
            raise ValueError("order must be non-negative")
        b = int(math.pi * math.sqrt(2 * order / 3) / math.log(2)) + 1
        return cls(order, r, -(-(b + (r - 1).bit_length()) // 8) * 8)

    def _check(self, x: int) -> int:
        if x < 0 or x & self._guard:
            raise ArithmeticError(f"a {self.bits}-bit slot reached its guard bits")
        return x

    def pack(self, coeffs: tuple[int, ...]) -> int:
        """Packs N+1 coefficients, q^0 first. Raises ArithmeticError on a
        negative coefficient or one that does not fit below the guard bits."""
        if len(coeffs) != self.order + 1:
            raise ValueError(f"expected {self.order + 1} coefficients, got {len(coeffs)}")
        w = self._width
        try:
            data = b"".join(c.to_bytes(w, "big") for c in coeffs)
        except OverflowError:
            raise ArithmeticError(f"a coefficient does not fit a {self.bits}-bit slot") from None
        return self._check(int.from_bytes(data, "big"))

    def unpack(self, x: int) -> tuple[int, ...]:
        """The N+1 coefficients, q^0 first, of a packed series (a state or a
        sum of at most r of them)."""
        w = self._width
        data = self._check(x).to_bytes((self.order + 1) * w, "big")
        return tuple(int.from_bytes(data[k : k + w], "big") for k in range(0, len(data), w))

    def reslot(self, x: int, src: _PackedLayout) -> int:
        """x, packed in ``src``'s slots at this order and with as many
        lanes, moved into this layout's slots, wider or narrower: one strided
        byte-slice copy per byte both slots hold, none if they are equally
        wide. Slot i holds q^(N-i) in both.

        Raises ValueError if ``src`` has another order or other lanes, and
        ArithmeticError if x does not fit ``src``'s slots, a narrowing would
        drop a nonzero byte, or a slot reaches this layout's guard bits.
        """
        if src.lanes != self.lanes:
            raise ValueError(f"cannot reslot {src.lanes} lanes into {self.lanes}")
        [y] = self.unlace(x, src)
        return y

    def unlace(self, x: int, src: _PackedLayout) -> list[int]:
        """x, packed in ``src``'s slots at this order, moved into this
        layout's slots as ``reslot`` moves it: as one int if both have as
        many lanes, else, for a one-lane layout, as one int per lane of
        ``src``, lane k read from every L-th sub-slot from sub-slot k."""
        n, w, sw = (self.order + 1) * self.lanes, self._width, src._width
        if src.order != self.order or self.lanes not in (1, src.lanes):
            raise ValueError(f"cannot reslot order {src.order} in {src.lanes} lanes into order {self.order} in {self.lanes}")
        if x < 0 or x >> (self.order + 1) * src._slot:
            raise ArithmeticError(f"a value does not fit {n} slots of {src.bits} bits")
        if w == sw and self.lanes == src.lanes:
            return [self._check(x)]
        data = x.to_bytes((self.order + 1) * src._slot // 8, "little")
        stride, out = src.lanes // self.lanes * sw, []
        for k in range(0, stride, sw):
            if any(data[k + b :: stride].count(0) < n for b in range(w, sw)):
                raise ArithmeticError(f"a value does not fit {n} slots of {self.bits} bits")
            lane = bytearray(n * w)
            for b in range(min(w, sw)):
                lane[b::w] = data[k + b :: stride]
            out.append(self._check(int.from_bytes(lane, "little")))
        return out

    def _times_q(self, x: int, s: int) -> int:
        return x >> s * self._slot

    def _has_valuation(self, x: int, v: int) -> bool:
        """Whether x has valuation at least v, in every lane: its top v
        slots, which hold q^0..q^(v-1) (all of its slots if v > N), are
        zero. No slot below them may be negative, or its borrow would reach
        them."""
        return not x >> max(self.order + 1 - v, 0) * self._slot

    def shift_div(self, x: int, k: int, src: _PackedLayout) -> int:
        """x / q^k at this layout's order, for x a packed difference of two
        checked series in ``src``'s slots, which are as wide as these and
        reach at least this order + k.

        The top k slots of x hold q^0..q^(k-1) and must be zero. Below them,
        x is the quotient at order ``src.order - k``, so a right shift by the
        order it drops to this one leaves this layout's slots. Raises
        NonDivisibleError, naming the lowest nonzero coefficient, if a top
        slot is not zero, and ArithmeticError if a kept slot reached its
        guard bits, which is where a negative kept slot ends up.
        """
        bits = self.bits
        if src.bits != bits or src.order < self.order + k:
            raise ValueError(f"cannot divide order {src.order} by q^{k} into order {self.order}")
        low = (src.order + 1 - k) * bits
        # a valid difference, zero in its top k slots and not negative below
        # them, is below 2^(low-1): the top bit of every slot is a guard bit.
        # Any other x has its top k slots read exactly by rounding off the
        # slots below, which lie within 2^(B-1) of zero and may have
        # borrowed from them
        if x >> low - 1 and (top := (x + (1 << low - 1)) >> low):
            n = abs(top).bit_length() // bits  # top's slots below its leading one
            c = (top + (1 << n * bits >> 1)) >> n * bits
            raise NonDivisibleError(f"coefficient {c} at exponent {k - 1 - n} blocks division by q^{k}")
        drop = (src.order - k - self.order) * bits
        if drop:
            # rounding keeps a borrow from a negative dropped slot out of the kept ones
            x = (x + (1 << drop - 1)) >> drop
        return self._check(x)

    def step(self, state: list[int], u: int) -> list[int]:
        """Advance states e_1, e_2, ... (missing trailing states are zero).

        With prefix sums P_k = e_1 + ... + e_k, new state j is
        q^(u(j-1)) P_(r-j+1), for j = 1..r. States shifted past the order
        are dropped, so the result may be shorter. If states 1..ell-1 are
        zero, as in the unit vector e_ell, so are new states r-ell+2..r.
        """
        prefix = list(accumulate(state))
        total = self._check(prefix[-1])
        new = [total]
        last = len(prefix) - 1
        for j in range(2, self.r + 1):
            s = u * (j - 1)
            if s > self.order:
                break
            new.append(prefix[min(self.r - j, last)] >> s * self._slot)
        return new


class PackedSeries:
    """A non-negative series of order N as a route hands it over: its
    ``layout`` and the int ``packed`` in the layout's slots, checked below
    the guard bits once, here.

    Equal coefficients in slots of one width pack to one int, so two series
    in equally wide slots compare as ints, and any other pair, or a
    ``TruncatedSeries``, by coefficients. ``coeffs`` unpacks on its first
    read and keeps the tuple; ``fingerprint`` and ``as_json_dict`` go through
    ``TruncatedSeries``, so they print what it prints.
    """

    __slots__ = ("layout", "packed", "_coeffs")

    def __init__(self, layout: _PackedLayout, packed: int):
        self.layout, self.packed = layout, layout._check(packed)
        self._coeffs: tuple[int, ...] | None = None

    @property
    def order(self) -> int:
        return self.layout.order

    @property
    def coeffs(self) -> tuple[int, ...]:
        if self._coeffs is None:
            self._coeffs = self.layout.unpack(self.packed)
        return self._coeffs

    def coefficient(self, n: int) -> int:
        """The q^n coefficient, read from its slot N-n without unpacking."""
        if not 0 <= n <= self.order:
            raise IndexError(f"exponent {n} lies outside 0..{self.order}")
        bits = self.layout.bits
        return (self.packed >> (self.order - n) * bits) & ((1 << bits) - 1)

    def __eq__(self, other) -> bool:
        if isinstance(other, PackedSeries) and other.layout.bits == self.layout.bits:
            return other.order == self.order and other.packed == self.packed
        if isinstance(other, (PackedSeries, TruncatedSeries)):
            return other.coeffs == self.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs,))  # TruncatedSeries' hash: equal series hash alike

    def __repr__(self) -> str:
        return f"PackedSeries({self.coeffs})"

    def fingerprint(self) -> str:
        return TruncatedSeries(self.coeffs).fingerprint()

    def as_json_dict(self) -> dict:
        return TruncatedSeries(self.coeffs).as_json_dict()
