"""Names the benchmark under perfbench/ reads from fedagg.

The tracer wraps every (module, function) pair of its SPANNED table, and the
workloads call a few more names. The table is read from the tracer's source
without importing it, so this runs in Tier-1, before any traced smoke run.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

from fedagg import flharness, transform
from fedagg.model import RateBudget
from fedagg.simulate import mbtc_aggregate, synthetic_sources
from fedagg.transform import DeviceUpdateBatch

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def spanned_pairs():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANNED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no SPANNED table in perfbench/tracing.py")


def test_every_spanned_function_exists():
    pairs = spanned_pairs()
    assert pairs
    for module, func in pairs:
        assert callable(getattr(importlib.import_module(f"fedagg.{module}"), func, None)), (module, func)


def test_names_the_workloads_read():
    assert isinstance(transform.DEFAULT_SEGMENT_LEN, int)
    assert callable(flharness.mbtc_aggregator) and callable(flharness.qsgd_aggregator)
    # The sweep workload captures mbtc_aggregate(batch, c, budget, seed) and
    # reads batch.updates and res.q.q.
    x = synthetic_sources(0.5, 3, 256, seed=2)
    batch = DeviceUpdateBatch(x)
    res = mbtc_aggregate(batch, np.full(3, 1 / 3), RateBudget(np.full(3, 2.0)), 4)
    assert batch.updates is x
    assert res.q.q.shape == (3,)
