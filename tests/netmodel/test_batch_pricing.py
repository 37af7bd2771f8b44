"""Batch pricing equals the scalar methods bit for bit.

The fast engine prices whole batches through the ``*_ms_batch`` methods
and the reference engine prices one request at a time through the scalar
ones; the parity contract needs the two to agree to the last bit.  Each
check compares the float64 results as int64 views, so even a one-ulp
difference (or a signed zero) fails.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.load_sensitivity import LOAD_FACTORS
from repro.netmodel import LoadAwareCostModel, RousskovCostModel, TestbedCostModel
from repro.netmodel.model import AccessPoint, CostModel

SIZES = np.array(
    [0, 1, 2, 512, 1023, 1024, 1025, 4096, 65_537, 10**6, 10**9], dtype=np.int64
)
METHODS = ("hierarchical_ms", "direct_ms", "via_l1_ms")


def scalar_loop(model: CostModel, method: str, point, sizes) -> np.ndarray:
    """The base class's batch method: the scalar method once per size."""
    return getattr(CostModel, f"{method}_batch")(model, point, sizes)


def assert_bit_identical(batch: np.ndarray, loop: np.ndarray) -> None:
    assert batch.dtype == np.float64
    assert batch.shape == loop.shape
    assert np.array_equal(batch.view(np.int64), loop.view(np.int64))


MODELS = {
    "min": lambda: RousskovCostModel("min"),
    "max": lambda: RousskovCostModel("max"),
    **{
        f"{base}+load{load:g}": (
            lambda base=base, load=load: LoadAwareCostModel(
                TestbedCostModel() if base == "testbed" else RousskovCostModel(base),
                load=load,
            )
        )
        for base in ("testbed", "min", "max")
        for load in LOAD_FACTORS
    },
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_batch_methods_equal_the_scalar_loop(name):
    """Every access point, every path shape, sizes across the KB edges."""
    model = MODELS[name]()
    assert type(model).hierarchical_ms_batch is not CostModel.hierarchical_ms_batch
    for method in METHODS:
        batch_method = getattr(model, f"{method}_batch")
        for point in AccessPoint:
            assert_bit_identical(
                batch_method(point, SIZES), scalar_loop(model, method, point, SIZES)
            )
            empty = SIZES[:0]
            assert_bit_identical(
                batch_method(point, empty), scalar_loop(model, method, point, empty)
            )


class HalvedTestbed(CostModel):
    """A model without batch overrides: it prices through the base loop."""

    name = "halved"

    def __init__(self) -> None:
        self.inner = TestbedCostModel()

    def hierarchical_ms(self, point, size):
        return self.inner.hierarchical_ms(point, size) / 2

    def direct_ms(self, point, size):
        return self.inner.direct_ms(point, size) / 2

    def via_l1_ms(self, point, size):
        return self.inner.via_l1_ms(point, size) / 2

    def probe_ms(self, point):
        return self.inner.probe_ms(point) / 2


def test_base_class_loop_prices_models_without_overrides():
    """The base class keeps pricing any other model, one scalar per size."""
    model = HalvedTestbed()
    for method in METHODS:
        scalar = getattr(model, method)
        for point in AccessPoint:
            batch = getattr(model, f"{method}_batch")(point, SIZES)
            expected = np.array([scalar(point, int(s)) for s in SIZES], dtype=np.float64)
            assert_bit_identical(batch, expected)
            assert len(getattr(model, f"{method}_batch")(point, SIZES[:0])) == 0
