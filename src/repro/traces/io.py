"""Trace serialization.

Two formats are provided:

* A **text** format (one tab-separated record per line with a ``#``-comment
  header) for human inspection and interchange, loosely modelled on the
  published proxy-log formats the paper's traces shipped in.
* A **binary** format (numpy ``.npz``) for fast reload of large traces in
  benchmark runs.

Both round-trip exactly through :class:`~repro.traces.records.Trace`, and
both read into a columnar trace (:class:`~repro.traces.columns.TraceColumns`)
without building a ``Request`` per line.
"""

from __future__ import annotations

import os
import zipfile
from typing import TextIO

import numpy as np

from repro.common.errors import TraceFormatError
from repro.traces.columns import TraceColumns
from repro.traces.records import Trace

_TEXT_COLUMNS = ("time", "client", "object", "size", "version", "cacheable", "error")


def write_trace_text(trace: Trace, stream: TextIO) -> None:
    """Write a trace in the text format to an open text stream."""
    stream.write(f"# repro-trace v1 profile={trace.profile_name}\n")
    stream.write(
        f"# n_objects={trace.n_objects} n_clients={trace.n_clients} "
        f"duration={trace.duration!r} warmup={trace.warmup!r}\n"
    )
    stream.write("# " + "\t".join(_TEXT_COLUMNS) + "\n")
    for time, client, obj, size, version, cacheable, error in trace.columns().fields(
        *_TEXT_COLUMNS
    ):
        stream.write(
            f"{time:.3f}\t{client}\t{obj}\t{size}\t"
            f"{version}\t{int(cacheable)}\t{int(error)}\n"
        )


def read_trace_text(stream: TextIO) -> Trace:
    """Read a trace written by :func:`write_trace_text`."""
    header = stream.readline()
    if not header.startswith("# repro-trace v1"):
        raise TraceFormatError(f"bad trace header: {header!r}")
    profile_name = _header_field(header, "profile")
    meta = stream.readline()
    if not meta.startswith("#"):
        raise TraceFormatError(f"missing metadata line, got {meta!r}")
    n_objects = int(_header_field(meta, "n_objects"))
    n_clients = int(_header_field(meta, "n_clients"))
    duration = float(_header_field(meta, "duration"))
    warmup = float(_header_field(meta, "warmup"))

    # One list per column; the flags parse as ints and cast to bool with
    # their column, as ``bool(int(field))`` would.
    parsers = (float, int, int, int, int, int, int)
    columns: list[list] = [[] for _ in _TEXT_COLUMNS]
    for line_number, line in enumerate(stream, start=3):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != len(_TEXT_COLUMNS):
            raise TraceFormatError(
                f"line {line_number}: expected {len(_TEXT_COLUMNS)} fields, "
                f"got {len(fields)}"
            )
        try:
            for column, parse, text in zip(columns, parsers, fields):
                column.append(parse(text))
        except ValueError as exc:
            raise TraceFormatError(f"line {line_number}: {exc}") from exc
    return Trace.from_columns(
        profile_name=profile_name,
        columns=TraceColumns.from_arrays(dict(zip(_TEXT_COLUMNS, columns))),
        n_objects=n_objects,
        n_clients=n_clients,
        duration=duration,
        warmup=warmup,
    )


def _header_field(line: str, key: str) -> str:
    for token in line.split():
        if token.startswith(key + "="):
            return token[len(key) + 1 :]
    raise TraceFormatError(f"header field {key!r} missing from {line!r}")


def write_trace(trace: Trace, path: str | os.PathLike) -> None:
    """Write a trace to ``path``; ``.npz`` selects binary, else text."""
    path = os.fspath(path)
    if path.endswith(".npz"):
        _write_trace_npz(trace, path)
    else:
        with open(path, "w", encoding="utf-8") as stream:
            write_trace_text(trace, stream)


def read_trace(path: str | os.PathLike) -> Trace:
    """Read a trace from ``path``; ``.npz`` selects binary, else text."""
    path = os.fspath(path)
    if path.endswith(".npz"):
        return _read_trace_npz(path)
    with open(path, "r", encoding="utf-8") as stream:
        return read_trace_text(stream)


def _write_trace_npz(trace: Trace, path: str) -> None:
    columns = trace.columns()
    np.savez_compressed(
        path,
        profile_name=np.array(trace.profile_name),
        n_objects=np.array(trace.n_objects),
        n_clients=np.array(trace.n_clients),
        duration=np.array(trace.duration),
        warmup=np.array(trace.warmup),
        time=columns.time,
        client=columns.client,
        object=columns.object,
        size=columns.size,
        version=columns.version,
        cacheable=columns.cacheable,
        error=columns.error,
    )


def _read_trace_npz(path: str) -> Trace:
    # The whole read -- open *and* member extraction -- sits inside one
    # try.  ``np.load`` returns a lazy NpzFile: a truncated zip may open
    # fine and only raise ``BadZipFile`` when a member is decompressed,
    # and a foreign ``.npz`` raises ``KeyError`` on the first missing
    # column.  Both must surface as ``TraceFormatError`` so
    # ``TraceCache._load`` regenerates instead of crashing the run.
    try:
        with np.load(path, allow_pickle=False) as data:
            # Stay columnar: the request list is lazy, so a warm TraceCache
            # load does not materialize per-request tuples just for the
            # engine to re-pack them (the fast engine reads the arrays
            # directly).
            columns = TraceColumns.from_arrays(data)
            return Trace.from_columns(
                profile_name=str(data["profile_name"]),
                columns=columns,
                n_objects=int(data["n_objects"]),
                n_clients=int(data["n_clients"]),
                duration=float(data["duration"]),
                warmup=float(data["warmup"]),
            )
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise TraceFormatError(f"cannot read npz trace {path!r}: {exc}") from exc
