"""MD5-derived identifiers and low-order-bit matching.

The paper's self-configuring metadata hierarchy (Section 3.1.3) assigns every
node a pseudo-random ID (the MD5 signature of the node's IP address) and
every object a pseudo-random ID (the MD5 signature of the object's URL).
The Plaxton embedding then compares IDs by the number of *low-order* bits
(or base-``2^b`` digits for ``2^b``-ary trees) in which they agree.

The prototype (Section 3.2.1) stores 8-byte hashes of URLs inside 16-byte
hint records; :func:`object_id_from_url` produces exactly that 64-bit value.
"""

from __future__ import annotations

import hashlib

#: Number of bits in an object/node identifier (8-byte hash, per the paper).
ID_BITS: int = 64
#: Mask selecting the ID_BITS low-order bits of an integer.
ID_MASK: int = (1 << ID_BITS) - 1


def _md5_low64(data: bytes) -> int:
    """Return the low-order 64 bits of the MD5 digest of ``data``.

    The paper uses "part of the MD5 signature" as its 8-byte identifiers;
    we take the first 8 digest bytes, little-endian, which is a fixed,
    deterministic choice.
    """
    digest = hashlib.md5(data).digest()
    return int.from_bytes(digest[:8], "little")


def object_id_from_url(url: str) -> int:
    """Compute the 64-bit object identifier for a URL.

    This is the hash stored in hint records and used to route hint updates
    through the Plaxton metadata hierarchy.
    """
    return _md5_low64(url.encode("utf-8"))


def node_id_from_name(name: str) -> int:
    """Compute the 64-bit node identifier for a node name / address.

    The paper hashes the node's IP address; any unique string works the same
    way in simulation.
    """
    return _md5_low64(name.encode("utf-8"))


def matching_low_bits(a: int, b: int, max_bits: int = ID_BITS) -> int:
    """Count how many low-order bits of ``a`` and ``b`` agree.

    This is the similarity measure at the heart of the Plaxton embedding:
    the root of an object's virtual tree is the node whose ID matches the
    object's ID in the most low-order bits.

    >>> matching_low_bits(0b1011, 0b0011)
    3
    >>> matching_low_bits(0b1010, 0b1011)
    0
    """
    diff = (a ^ b) & ((1 << max_bits) - 1)
    if diff == 0:
        return max_bits
    # Number of trailing zero bits of the XOR = number of matching low bits.
    return (diff & -diff).bit_length() - 1


def matching_low_digits(a: int, b: int, bits_per_digit: int, max_bits: int = ID_BITS) -> int:
    """Count matching low-order base-``2**bits_per_digit`` digits of two IDs.

    For flatter, ``2**bits_per_digit``-ary hierarchies the paper matches
    ``log2(k)`` bits at a time; this returns how many whole digits agree.
    """
    if bits_per_digit <= 0:
        raise ValueError(f"bits_per_digit must be positive, got {bits_per_digit}")
    return matching_low_bits(a, b, max_bits) // bits_per_digit


def low_digit(value: int, index: int, bits_per_digit: int) -> int:
    """Extract the ``index``-th low-order base-``2**bits_per_digit`` digit.

    Digit 0 is the least significant.  Used when choosing which parent to
    forward a hint update to: at level ``i`` the update goes to the parent
    whose ``(i+1)``-th digit matches the object ID's ``(i+1)``-th digit.
    """
    return (value >> (index * bits_per_digit)) & ((1 << bits_per_digit) - 1)


# ---------------------------------------------------------------------------
# Stable partition hashing (sharded runs)
# ---------------------------------------------------------------------------
# The sharded runner partitions the object space by hash.  Python's builtin
# ``hash`` is randomized per process (PYTHONHASHSEED), so shard membership
# must come from an explicit mixer that every process -- coordinator and
# workers, today and in a re-run -- computes identically.  splitmix64 is the
# standard cheap 64-bit finalizer (Steele et al., the Java SplittableRandom
# mixer): bijective on u64, so distinct object ids never collide before the
# final modulo.

_U64 = (1 << 64) - 1


def splitmix64(value: int) -> int:
    """The splitmix64 finalizer: a fixed, process-independent u64 mixer."""
    value = (value + 0x9E3779B97F4A7C15) & _U64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _U64
    return value ^ (value >> 31)


def partition_of_object(object_id: int, n_partitions: int) -> int:
    """The virtual partition owning ``object_id`` (stable across processes)."""
    if n_partitions < 1:
        raise ValueError(f"n_partitions must be at least 1, got {n_partitions}")
    return splitmix64(object_id) % n_partitions


def partitions_of_objects(object_ids, n_partitions: int):
    """Vectorized :func:`partition_of_object` over an int64 array.

    Element-for-element identical to the scalar form (uint64 wraparound
    mirrors the ``& _U64`` masking); used to split a trace's object column
    in one pass.
    """
    import numpy as np

    if n_partitions < 1:
        raise ValueError(f"n_partitions must be at least 1, got {n_partitions}")
    value = np.asarray(object_ids).astype(np.uint64)
    with np.errstate(over="ignore"):
        value = value + np.uint64(0x9E3779B97F4A7C15)
        value = (value ^ (value >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        value = (value ^ (value >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        value = value ^ (value >> np.uint64(31))
    return (value % np.uint64(n_partitions)).astype(np.int64)
