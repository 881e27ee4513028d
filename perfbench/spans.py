"""Spans around the rrgordon functions whose time the benchmark attributes.

The wrappers are installed from outside the package, by replacing module
attributes (including the names other modules imported), the
``cli.SERIES_ROUTES`` entries and ``TruncatedSeries`` methods, and are
removed again when tracing ends. Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent, attr]``: ``parent`` is the index of
the enclosing span in the same process (-1 for a root) and ``attr`` holds one
per-call fact some metric needs (a repeat flag, a padded order, a bound or a
bit length). The layer of a span is the first component of its name.

Spans are recorded in this process only: the workers of ``scan --jobs N``
would need their own collection, which no workload uses.
"""

from __future__ import annotations

import functools
import sys
import time

from rrgordon import cli, families, hilbert, partitions, products
from rrgordon.qseries import TruncatedSeries


def _call_key(args, kwargs):
    return args, tuple(sorted(kwargs.items()))


class Tracer:
    """Records spans while installed; one instance per benchmark process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.seen: set = set()
        self.built = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` recorded as span ``name``.

        ``before(tracer, args, kwargs)`` and ``after(result)`` may set the
        span's attr; ``before`` runs outside the timed interval.
        """
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            stack = self.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(self.spans))
            self.spans.append(span)
            if before is not None:
                span[4] = before(self, args, kwargs)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                span[4] = after(result)
            return result

        return functools.update_wrapper(traced, fn)

    def take(self) -> tuple[list[list], int]:
        """Spans and construction count recorded since the last call; the
        next call starts a new repetition with no arguments seen."""
        spans, built = self.spans, self.built
        self.spans, self.built, self.seen = [], 0, set()
        return spans, built

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        """Rebind every rrgordon module attribute that is ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "rrgordon" and not mod_name.startswith("rrgordon."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        for name, module, attr, before, after in _FUNCTIONS:
            original = getattr(module, attr)
            self._replace_everywhere(original, self.wrap(name, original, before, after))
        for name, attr in _METHODS:
            self._set(TruncatedSeries, attr, self.wrap(name, getattr(TruncatedSeries, attr)))
        post_init = TruncatedSeries.__post_init__

        def counted(series):
            self.built += 1
            return post_init(series)

        self._set(TruncatedSeries, "__post_init__", counted)
        for route, fn in list(cli.SERIES_ROUTES.items()):
            self._undo.append((cli.SERIES_ROUTES, route, fn))
            cli.SERIES_ROUTES[route] = self.wrap(f"cli.route.{route}", fn, after=_coeff_bits)
        self.spans, self.stack, self.seen, self.built = [], [], set(), 0

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if owner is cli.SERIES_ROUTES:
                owner[attr] = value
            else:
                setattr(owner, attr, value)


# -- per-call facts ----------------------------------------------------------


def _repeat_flag(tracer, args, kwargs):
    key = _call_key(args, kwargs)
    if key in tracer.seen:
        return 1
    tracer.seen.add(key)
    return 0


def _product_call(tracer, args, kwargs):
    """(repeat flag, padded order of the tower's base level)."""
    idx, N = args
    level = idx.level
    return _repeat_flag(tracer, args, kwargs), N + (idx.r - 1) * level * (level + 1) // 2


def _stage_bound(tracer, args, kwargs):
    _side, params, N = args
    return params.J + N + 2


def _coeff_bits(series):
    return max(abs(c).bit_length() for c in series.coeffs)


# (span name, module, attribute, before, after); every rrgordon module
# attribute bound to the same function object gets the same wrapper
_FUNCTIONS = (
    ("partitions.gordon_series", partitions, "gordon_series", None, None),
    ("hilbert.hp_series", hilbert, "hp_series", _repeat_flag, None),
    ("hilbert.verify_hp_identities", hilbert, "verify_hp_identities", None, None),
    ("hilbert.verify_hp_recursion", hilbert, "verify_hp_recursion", None, None),
    ("products.base_product", products, "base_product", None, None),
    ("products.product_series", products, "product_series", _product_call, None),
    ("families.family_step", families, "family_step", None, None),
    ("families.family_limit", families, "family_limit", _stage_bound, None),
    ("families.family_at_stage", families, "family_at_stage", None, None),
    ("families.verify_family_match", families, "verify_family_match", None, None),
    ("families.verify_expansion", families, "verify_expansion", None, None),
    ("cli.build_report", cli, "build_report", None, None),
    ("cli.scan_cell", cli, "_scan_cell", None, None),
)

_METHODS = (
    ("qseries.add", "__add__"),
    ("qseries.mul", "__mul__"),
    ("qseries.mul_qpow", "mul_qpow"),
    ("qseries.shift_div", "shift_div"),
)
