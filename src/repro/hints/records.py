"""The 16-byte hint record (paper section 3.2.1).

"Each entry consumes 16 bytes: an 8-byte hash of a URL and an 8-byte
machine identifier (an IP address and port number)."  A special hash value
marks an invalid (empty) slot.

At 16 bytes a hint is ~three orders of magnitude smaller than the ~10 KB
average cached object, which is what lets a 10%-of-disk hint cache index
two orders of magnitude more data than the node stores locally -- the
quantitative heart of the "share data among many caches" principle.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

#: Struct layout: 8-byte URL hash, 4-byte IPv4 address, 4-byte port.
_RECORD_STRUCT = struct.Struct("<QLL")

#: Reserved hash value marking an empty slot (the prototype's "special
#: value ... used to signify an invalid entry").
INVALID_HASH = 0


def check_url_hash(url_hash: int) -> None:
    """Raise ``ValueError`` unless ``url_hash`` can name a stored hint."""
    if not 0 <= url_hash < 2**64:
        raise ValueError(f"url_hash must fit in 64 bits, got {url_hash}")
    if url_hash == INVALID_HASH:
        raise ValueError("url_hash 0 is reserved for empty slots")


@dataclass(frozen=True, order=True)
class MachineId:
    """An 8-byte machine identifier: IPv4 address + port.

    In simulation, cache node ``n`` gets the address ``10.0.x.y:3128``
    derived from its index, so machine ids round-trip to node indices.
    """

    address: int  # 32-bit IPv4 address as an int
    port: int

    def __post_init__(self) -> None:
        if not 0 <= self.address < 2**32:
            raise ValueError(f"address must fit in 32 bits, got {self.address}")
        if not 0 <= self.port < 2**16:
            raise ValueError(f"port must fit in 16 bits, got {self.port}")

    @classmethod
    def for_node(cls, node: int, port: int = 3128) -> "MachineId":
        """Deterministic machine id for simulation node ``node``."""
        if node < 0 or node >= 2**16:
            raise ValueError(f"node index must fit in 16 bits, got {node}")
        # 10.0.hi.lo private address space.
        address = (10 << 24) | (node & 0xFFFF)
        return cls(address=address, port=port)

    @property
    def node(self) -> int:
        """Recover the simulation node index from a :meth:`for_node` id."""
        return self.address & 0xFFFF

    def dotted(self) -> str:
        """Dotted-quad rendering, for logs."""
        a = self.address
        return f"{(a >> 24) & 255}.{(a >> 16) & 255}.{(a >> 8) & 255}.{a & 255}:{self.port}"


@dataclass(frozen=True)
class HintRecord:
    """One hint: the nearest known copy of ``url_hash`` is at ``machine``."""

    url_hash: int
    machine: MachineId

    def __post_init__(self) -> None:
        check_url_hash(self.url_hash)

    def pack(self) -> bytes:
        """Serialize to the 16-byte on-disk / on-wire layout."""
        return _RECORD_STRUCT.pack(self.url_hash, self.machine.address, self.machine.port)

    @classmethod
    def unpack(cls, blob: bytes) -> "HintRecord | None":
        """Deserialize a 16-byte slot; ``None`` for an empty slot."""
        if len(blob) != _RECORD_STRUCT.size:
            raise ValueError(f"hint record must be {_RECORD_STRUCT.size} bytes")
        url_hash, address, port = _RECORD_STRUCT.unpack(blob)
        if url_hash == INVALID_HASH:
            return None
        return cls(url_hash=url_hash, machine=MachineId(address=address, port=port))


#: Size of a packed hint record; pinned to the paper's 16 bytes by tests.
RECORD_BYTES = _RECORD_STRUCT.size
