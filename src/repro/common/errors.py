"""Exception hierarchy for the reproduction library.

Every exception raised intentionally by this library derives from
:class:`ReproError` so that callers can catch library failures without
masking genuine programming errors (``TypeError``, ``KeyError``, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An experiment, topology, or component was configured inconsistently.

    Examples: a hierarchy whose fan-outs do not cover the client population,
    a hint cache sized to zero sets, or a cost model asked about an unknown
    access path.
    """


class TraceFormatError(ReproError):
    """A trace file or trace record could not be parsed or validated."""


class TopologyError(ConfigurationError):
    """A node/tree topology operation was invalid (unknown node, empty tree)."""
