"""Byte pins on the synthetic generator's output columns.

A trace is a pure function of ``(profile, seed)``, and the on-disk trace
store, every golden snapshot and every ``--all`` export rest on that.
These digests were recorded from the row-building generator; any change
to the generator's draws, their order, or the column dtypes fails here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.sim.config import ExperimentConfig
from repro.traces.columns import COLUMN_DTYPES
from repro.traces.synthetic import SyntheticTraceGenerator

#: sha256 prefix over (name, dtype.str, bytes) of every column, in
#: ``COLUMN_DTYPES`` order, at ``with_scale(0.0005)`` and seed 42.
PINS = {
    "dec": "5fc5b52ff55b5a92",
    "berkeley": "257f06d831c85269",
    "prodigy": "c7ebf845b1884173",
}


def column_digest(columns) -> str:
    digest = hashlib.sha256()
    for name in COLUMN_DTYPES:
        array = getattr(columns, name)
        digest.update(name.encode())
        digest.update(array.dtype.str.encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("profile_name", sorted(PINS))
def test_generated_columns_are_pinned(profile_name):
    profile = ExperimentConfig().with_scale(0.0005).profile(profile_name)
    columns = SyntheticTraceGenerator(profile, seed=42).generate().columns()
    for name, dtype in COLUMN_DTYPES.items():
        assert getattr(columns, name).dtype == np.dtype(dtype), name
    assert column_digest(columns).startswith(PINS[profile_name])
