"""Columnar trace storage: one NumPy array per request field.

A :class:`TraceColumns` is the structure-of-arrays twin of
``list[Request]``: seven parallel arrays (time, client, object, size,
version, cacheable, error) holding the same records without the per-row
tuple objects.  It is the native layout of every trace: the synthetic
generator, the ``.npz`` and text readers all build one, the fast
simulation engine (:mod:`repro.sim.fastpath`) consumes the arrays
directly, and the experiments' own per-request loops walk native-typed
lists of the columns they need (:meth:`TraceColumns.fields`).

:class:`LazyRequestList` bridges to the row world: a sequence that
*looks* like ``list[Request]`` (so every row consumer keeps working) but
is backed by columns and only materializes the row tuples on first
element access.  Only the reference engine's per-request loop, the audit
oracles and hand-built traces use rows; a trace that never meets one of
them never builds a ``Request``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.traces.records import Request

#: dtype per column, in canonical field order (matches the .npz keys).
COLUMN_DTYPES = {
    "time": np.float64,
    "client": np.int64,
    "object": np.int64,
    "size": np.int64,
    "version": np.int64,
    "cacheable": np.bool_,
    "error": np.bool_,
}


@dataclass(frozen=True)
class TraceColumns:
    """Structure-of-arrays request records (parallel, equal-length).

    Attributes mirror :class:`~repro.traces.records.Request` fields;
    every array is 1-D and all share one length.  Instances are treated
    as immutable -- nothing in the simulator writes to a trace.
    """

    time: np.ndarray
    client: np.ndarray
    object: np.ndarray
    size: np.ndarray
    version: np.ndarray
    cacheable: np.ndarray
    error: np.ndarray

    def __post_init__(self) -> None:
        lengths = {
            name: len(getattr(self, name)) for name in COLUMN_DTYPES
        }
        if len(set(lengths.values())) > 1:
            raise ValueError(f"trace columns have mismatched lengths: {lengths}")

    def __len__(self) -> int:
        return len(self.time)

    def is_time_sorted(self) -> bool:
        """True when the time column never decreases (the trace contract)."""
        if len(self.time) < 2:
            return True
        return bool(np.all(np.diff(self.time) >= 0.0))

    @classmethod
    def from_arrays(cls, arrays: Mapping) -> "TraceColumns":
        """Columns from ``arrays[name]`` (arrays or lists) for every field,
        each cast to its :data:`COLUMN_DTYPES` dtype (no copy when it
        already has it)."""
        return cls(
            **{
                name: np.ascontiguousarray(arrays[name], dtype=dtype)
                for name, dtype in COLUMN_DTYPES.items()
            }
        )

    @classmethod
    def from_requests(cls, requests: Sequence[Request]) -> "TraceColumns":
        """Pack materialized request rows into columns."""
        fields = list(zip(*requests)) or [()] * len(COLUMN_DTYPES)
        return cls.from_arrays(dict(zip(COLUMN_DTYPES, fields)))

    def fields(self, *names: str, where: np.ndarray | None = None) -> Iterator[tuple]:
        """Native-typed ``tuple`` of the named columns per record, in order.

        ``where`` (a boolean mask) keeps only the records it selects.  The
        columns are converted with ``tolist()`` once, so a per-request loop
        reads Python scalars, the same values a ``Request`` row holds.
        """
        arrays = [getattr(self, name) for name in names]
        if where is not None:
            arrays = [array[where] for array in arrays]
        return zip(*(array.tolist() for array in arrays))

    def to_requests(self) -> list[Request]:
        """Materialize the row-tuple view (one ``Request`` per record).

        The fields are native Python scalars, so each row equals one built
        by hand from the same values.
        """
        return [Request(*row) for row in self.fields(*COLUMN_DTYPES)]


class LazyRequestList(Sequence):
    """``list[Request]``-compatible view over :class:`TraceColumns`.

    Length and the backing ``columns`` are free; any element access
    materializes the full row list once and serves everything from it
    afterwards (the reference engine iterates every request anyway, so
    per-row laziness would only add per-access overhead).
    """

    __slots__ = ("columns", "_rows")

    def __init__(self, columns: TraceColumns) -> None:
        self.columns = columns
        self._rows: list[Request] | None = None

    def _materialize(self) -> list[Request]:
        if self._rows is None:
            self._rows = self.columns.to_requests()
        return self._rows

    @property
    def materialized(self) -> bool:
        """True once the row tuples have been built (tests observe this)."""
        return self._rows is not None

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LazyRequestList):
            if self.columns is other.columns:
                return True
            other = other._materialize()
        if isinstance(other, (list, tuple)):
            return self._materialize() == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "materialized" if self.materialized else "columnar"
        return f"LazyRequestList({len(self)} requests, {state})"
