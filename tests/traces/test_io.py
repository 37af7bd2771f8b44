"""Tests for trace serialization round trips."""

from __future__ import annotations

import io

import pytest

from repro.common.errors import TraceFormatError
from repro.traces.io import read_trace, read_trace_text, write_trace, write_trace_text
from repro.traces.records import Request, Trace


@pytest.fixture()
def trace():
    requests = [
        Request(time=0.5, client_id=1, object_id=10, size=2048, version=0),
        Request(time=1.25, client_id=2, object_id=11, size=4096, version=1,
                cacheable=False),
        Request(time=2.0, client_id=1, object_id=10, size=2048, version=0,
                error=True),
    ]
    return Trace(
        profile_name="unit",
        requests=requests,
        n_objects=12,
        n_clients=3,
        duration=100.0,
        warmup=1.0,
    )


class TestTextFormat:
    def test_round_trip(self, trace):
        buffer = io.StringIO()
        write_trace_text(trace, buffer)
        buffer.seek(0)
        loaded = read_trace_text(buffer)
        assert loaded.requests == trace.requests
        assert loaded.profile_name == "unit"
        assert loaded.n_objects == 12
        assert loaded.n_clients == 3
        assert loaded.duration == 100.0
        assert loaded.warmup == 1.0

    def test_rejects_bad_header(self):
        with pytest.raises(TraceFormatError, match="header"):
            read_trace_text(io.StringIO("not a trace\n"))

    def test_rejects_wrong_field_count(self, trace):
        buffer = io.StringIO()
        write_trace_text(trace, buffer)
        text = buffer.getvalue() + "1.0\t2\t3\n"
        with pytest.raises(TraceFormatError, match="fields"):
            read_trace_text(io.StringIO(text))

    def test_rejects_non_numeric_field(self, trace):
        buffer = io.StringIO()
        write_trace_text(trace, buffer)
        text = buffer.getvalue() + "x\t1\t1\t1\t0\t1\t0\n"
        with pytest.raises(TraceFormatError):
            read_trace_text(io.StringIO(text))

    def test_exact_bytes(self, trace):
        buffer = io.StringIO()
        write_trace_text(trace, buffer)
        assert buffer.getvalue() == (
            "# repro-trace v1 profile=unit\n"
            "# n_objects=12 n_clients=3 duration=100.0 warmup=1.0\n"
            "# time\tclient\tobject\tsize\tversion\tcacheable\terror\n"
            "0.500\t1\t10\t2048\t0\t1\t0\n"
            "1.250\t2\t11\t4096\t1\t0\t0\n"
            "2.000\t1\t10\t2048\t0\t1\t1\n"
        )

    def test_reads_into_columns(self, trace):
        buffer = io.StringIO()
        write_trace_text(trace, buffer)
        loaded = read_trace_text(io.StringIO(buffer.getvalue()))
        assert not loaded.requests.materialized
        assert loaded.columns().cacheable.tolist() == [True, False, True]

    def test_errors_name_their_line(self, trace):
        buffer = io.StringIO()
        write_trace_text(trace, buffer)
        text = buffer.getvalue()
        with pytest.raises(TraceFormatError, match="^line 7: expected 7 fields, got 3$"):
            read_trace_text(io.StringIO(text + "1.0\t2\t3\n"))
        with pytest.raises(TraceFormatError, match="^line 7: invalid literal for int"):
            read_trace_text(io.StringIO(text + "3.0\t1\t1\t1\t0\tyes\t0\n"))
        with pytest.raises(ValueError, match="sorted by time"):
            read_trace_text(io.StringIO(text + "1.0\t1\t1\t1\t0\t1\t0\n"))

    def test_skips_comments_and_blanks(self, trace):
        buffer = io.StringIO()
        write_trace_text(trace, buffer)
        text = buffer.getvalue() + "\n# trailing comment\n"
        loaded = read_trace_text(io.StringIO(text))
        assert len(loaded) == 3


class TestFileRoundTrips:
    def test_text_file(self, trace, tmp_path):
        path = tmp_path / "trace.tsv"
        write_trace(trace, path)
        assert read_trace(path).requests == trace.requests

    def test_npz_file(self, trace, tmp_path):
        path = tmp_path / "trace.npz"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert loaded.requests == trace.requests
        assert loaded.profile_name == "unit"

    def test_npz_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(TraceFormatError):
            read_trace(path)
