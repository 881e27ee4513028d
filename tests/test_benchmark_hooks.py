"""The benchmark's spans (``perfbench/spans.py``) wrap package functions by
name, so a rename or a removal there breaks the traced benchmark. This test
installs them and calls each wrapped kernel once, reading ``perfbench/``
and writing nothing there.
"""

import importlib
import sys
from pathlib import Path

from rrgordon import families, hilbert, partitions, products
from rrgordon.partitions import GordonParams
from rrgordon.products import ProductIndex

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_the_benchmark_spans_wrap_every_kernel_they_name(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.modules.pop("spans", None)
    originals = [products.product_series, families.family_limit, hilbert.hp_series]
    tracer = spans.Tracer()
    tracer.install()
    try:
        params, N = GordonParams(3, 2, 1), 10
        products.product_series(ProductIndex(3, params.product_index), N)
        families.family_limit(None, params, N)
        hilbert.hp_series(hilbert.gordon_quotient(params), N)
        partitions.gordon_series(params, N)
        products.base_product(3, params.ell, N)
        families.family_step(families.family_at_stage(params, params.J + 1, N))
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    # the spans count each TruncatedSeries built through the __post_init__
    # its __init__ calls, as qseries.series_built
    assert tracer.built > 0
    assert names >= {
        "products.product_series",
        "families.family_limit",
        "hilbert.hp_series",
        "partitions.gordon_series",
        "products.base_product",
        "families.family_at_stage",
        "families.family_step",
    }
    assert [products.product_series, families.family_limit, hilbert.hp_series] == originals
