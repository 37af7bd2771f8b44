"""Tests for the columnar trace layout and its lazy row view."""

from __future__ import annotations

import numpy as np
import pytest

from repro.traces.columns import COLUMN_DTYPES, LazyRequestList, TraceColumns
from repro.traces.io import read_trace, write_trace
from repro.traces.records import Request, Trace


@pytest.fixture()
def requests():
    return [
        Request(time=0.5, client_id=1, object_id=10, size=2048, version=0),
        Request(time=1.25, client_id=2, object_id=11, size=4096, version=1,
                cacheable=False),
        Request(time=2.0, client_id=1, object_id=10, size=2048, version=0,
                error=True),
    ]


class TestTraceColumns:
    def test_round_trip_through_requests(self, requests):
        columns = TraceColumns.from_requests(requests)
        assert len(columns) == 3
        assert columns.to_requests() == requests
        for name, dtype in COLUMN_DTYPES.items():
            assert getattr(columns, name).dtype == np.dtype(dtype)

    def test_native_scalar_types(self, requests):
        row = TraceColumns.from_requests(requests).to_requests()[0]
        assert type(row.time) is float
        assert type(row.client_id) is int
        assert type(row.cacheable) is bool

    def test_from_arrays_casts_to_column_dtypes(self, requests):
        columns = TraceColumns.from_arrays(
            dict(time=[0, 1], client=[1, 2], object=[3, 4], size=[5, 6],
                 version=[0, 0], cacheable=[1, 0], error=[0, 2])
        )
        for name, dtype in COLUMN_DTYPES.items():
            assert getattr(columns, name).dtype == np.dtype(dtype)
        assert columns.error.tolist() == [False, True]
        empty = TraceColumns.from_requests([])
        assert len(empty) == 0 and empty.time.dtype == np.float64

    def test_fields_are_native_and_masked(self, requests):
        columns = TraceColumns.from_requests(requests)
        assert list(columns.fields("object", "size")) == [
            (10, 2048), (11, 4096), (10, 2048)
        ]
        (row,) = columns.fields("time", "client", where=columns.error)
        assert row == (2.0, 1) and type(row[0]) is float and type(row[1]) is int

    def test_mismatched_lengths_rejected(self, requests):
        columns = TraceColumns.from_requests(requests)
        with pytest.raises(ValueError, match="mismatched lengths"):
            TraceColumns(
                time=columns.time[:2],
                client=columns.client,
                object=columns.object,
                size=columns.size,
                version=columns.version,
                cacheable=columns.cacheable,
                error=columns.error,
            )

    def test_time_sortedness(self, requests):
        assert TraceColumns.from_requests(requests).is_time_sorted()
        assert TraceColumns.from_requests([]).is_time_sorted()
        shuffled = TraceColumns.from_requests(requests[::-1])
        assert not shuffled.is_time_sorted()


class TestLazyRequestList:
    def test_len_and_equality_stay_columnar(self, requests):
        lazy = LazyRequestList(TraceColumns.from_requests(requests))
        assert len(lazy) == 3
        assert not lazy.materialized
        # Identity-based equality on shared columns stays lazy too.
        assert lazy == LazyRequestList(lazy.columns)
        assert not lazy.materialized

    def test_access_materializes_once(self, requests):
        lazy = LazyRequestList(TraceColumns.from_requests(requests))
        assert lazy[0] == requests[0]
        assert lazy.materialized
        assert list(lazy) == requests
        assert lazy == requests

    def test_trace_from_columns_validates_sortedness(self, requests):
        columns = TraceColumns.from_requests(requests[::-1])
        with pytest.raises(ValueError, match="sorted by time"):
            Trace.from_columns("unit", columns, 12, 3, 100.0)

    def test_trace_from_columns_memoizes(self, requests):
        columns = TraceColumns.from_requests(requests)
        trace = Trace.from_columns("unit", columns, 12, 3, 100.0, warmup=1.0)
        assert trace.columns() is columns
        assert not trace.requests.materialized


class TestNpzStaysColumnar:
    def test_npz_round_trip_is_lazy_and_equal(self, requests, tmp_path):
        trace = Trace(
            profile_name="unit",
            requests=requests,
            n_objects=12,
            n_clients=3,
            duration=100.0,
            warmup=1.0,
        )
        path = tmp_path / "trace.npz"
        write_trace(trace, path)
        loaded = read_trace(path)
        # The warm-load path hands back columns without building rows.
        assert isinstance(loaded.requests, LazyRequestList)
        assert not loaded.requests.materialized
        assert loaded.columns() is loaded.requests.columns
        # Equality (and any row access) materializes and matches exactly.
        assert loaded.requests == trace.requests
        assert loaded == trace
