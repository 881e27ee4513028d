"""Exact-arithmetic verification of the shifted Rogers-Ramanujan-Gordon
partition identities.

Four independent computations of the same formal power series are provided:
the congruence-product recursion, a partition-counting dynamic program, a
standard-monomial count for a graded monomial quotient, and the limit of a
stage-indexed coefficient family. Verifying an identity instance means
computing all four to a truncation order and certifying coefficientwise
equality in exact integer arithmetic.

The modules are the API (``from rrgordon.partitions import gordon_series``):
``products``, ``partitions``, ``hilbert`` and ``families`` on ``qseries``,
and ``cli``. Importing the package loads none of them.
"""

__version__ = "0.1.0"
