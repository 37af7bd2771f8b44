"""Pluggable per-level replacement policies.

The paper's architecture comparison fixes LRU at every cache level, but its
conclusions about hierarchy vs. hints hinge on per-level hit rates -- which
the replacement policy directly controls.  This module makes the policy a
construction-time parameter:

* :class:`ReplacementPolicy` -- the structural protocol every data cache
  satisfies (version-aware ``lookup``/``insert``, eviction callbacks,
  ``occupancy_bytes``).
* :class:`LFUCache` -- least-frequently-used with recency tie-break, the
  classic frequency-based alternative.
* :class:`RandomCache` -- seeded uniform-random replacement, the policy the
  networks-of-caches analysis (arXiv 1202.4880) treats exactly.
* :class:`PolicySpec` -- a picklable value naming a policy (plus the RNG
  seed for Random), carried on architecture constructors and
  :class:`~repro.runner.specs.ArchitectureSpec` kwargs so worker processes
  rebuild identical caches, and fingerprinted by
  :func:`repro.runner.fingerprint.simulation_fingerprint` so trace-cache
  addresses and golden snapshots key on the policy.

All three policies share :class:`~repro.cache.lru.LRUCache`'s machinery --
version handling, byte accounting, oversize rejection, audit hooks -- and
differ only in the four policy hooks (``_touch``, ``_victim_key``, and the
add/remove/clear bookkeeping).  The base class is the LRU policy itself,
byte-identical to its pre-policy behaviour, which is what keeps every
pre-existing golden snapshot valid under the default spec.

The analytic cross-check lives in :mod:`repro.analytic`: a Che-approximation
predictor for LRU and the exact TTL-style formula for Random, run as a third
oracle by ``python -m repro.audit``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol, runtime_checkable

from repro.cache.lru import CacheEntry, LookupResult, LRUCache

#: Recognized policy names, in the order the CLI documents them.
POLICY_NAMES = ("lru", "lfu", "random")

#: Cache levels a policy map may address (``parse_policy_map``).
POLICY_LEVELS = ("l1", "l2", "l3")


@runtime_checkable
class ReplacementPolicy(Protocol):
    """Structural protocol of a byte-capacity, version-aware data cache.

    Everything the architectures, kernels, telemetry bindings, and audit
    hooks touch on a data cache is listed here; any class satisfying it
    (``LRUCache`` and its policy subclasses do) can sit at a cache level.
    """

    capacity_bytes: int | None
    policy_name: str
    insertions: int
    evictions: int
    invalidations: int
    oversize_rejections: set[int]

    def lookup(self, key: int, version: int) -> LookupResult: ...

    def insert(self, key: int, size: int, version: int) -> list[int]: ...

    def invalidate(self, key: int) -> bool: ...

    def remove(self, key: int) -> bool: ...

    def clear(self, *, notify: bool = ..., reason: str = ...) -> list[int]: ...

    def peek(self, key: int) -> CacheEntry | None: ...

    def touch_lru_demote(self, key: int) -> None: ...

    def __len__(self) -> int: ...

    def __contains__(self, key: int) -> bool: ...

    def __iter__(self) -> Iterator[int]: ...

    @property
    def occupancy_bytes(self) -> int: ...


class LFUCache(LRUCache):
    """Least-frequently-used eviction with recency tie-break.

    Every hit and every (re)insert counts as one access.  The capacity
    victim is the entry with the fewest accesses; among ties the least
    recently used goes first (the underlying ordered dict keeps recency
    order, so the first minimum found scanning front-to-back is the
    oldest).  ``touch_lru_demote`` -- the update-push aging mechanism --
    zeroes the count as well as moving the entry to the eviction end, so
    an aged object is the next victim among its frequency class.

    Victim selection scans the resident entries (O(n) per eviction).  At
    simulation scale caches hold thousands of entries, which keeps the
    scan cheap; a heap would only pay off orders of magnitude beyond the
    paper's configurations.
    """

    policy_name = "lfu"

    def __init__(
        self,
        capacity_bytes: int | None = None,
        on_evict: Callable[[int, CacheEntry, str], None] | None = None,
    ) -> None:
        super().__init__(capacity_bytes, on_evict)
        self._freq: dict[int, int] = {}

    def _touch(self, key: int) -> None:
        self._entries.move_to_end(key)
        self._freq[key] += 1

    def _note_add(self, key: int, *, new: bool) -> None:
        self._freq[key] = 1 if new else self._freq[key] + 1

    def _note_remove(self, key: int) -> None:
        del self._freq[key]

    def _note_clear(self) -> None:
        self._freq.clear()

    def touch_lru_demote(self, key: int) -> None:
        if key in self._entries:
            self._entries.move_to_end(key, last=False)
            self._freq[key] = 0

    def _victim_key(self, protect: int) -> int:
        freq = self._freq
        best_key = -1
        best_freq: int | None = None
        for key in self._entries:
            if key == protect:
                continue
            count = freq[key]
            if best_freq is None or count < best_freq:
                best_key, best_freq = key, count
        if best_freq is None:  # pragma: no cover - guarded by _evict_to_fit
            raise RuntimeError("no evictable entry")
        return best_key


class RandomCache(LRUCache):
    """Uniform-random replacement from a seeded stream.

    The victim is drawn uniformly from the resident entries (excluding the
    object whose insert forced the eviction) by a private
    :class:`random.Random`, so a run is a pure function of (trace, seed):
    the draw sequence depends only on the sequence of evictions, which both
    simulation engines perform identically.  Recency is deliberately not
    tracked on hits (``_touch`` is a no-op): random replacement is the
    memoryless baseline the analytic model treats exactly.

    An indexable key list with a position map gives O(1) victim draws and
    O(1) swap-with-last removal.
    """

    policy_name = "random"

    def __init__(
        self,
        capacity_bytes: int | None = None,
        on_evict: Callable[[int, CacheEntry, str], None] | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(capacity_bytes, on_evict)
        self.seed = seed
        self._rng = random.Random(seed)
        self._keys: list[int] = []
        self._pos: dict[int, int] = {}

    def _touch(self, key: int) -> None:
        pass

    def _note_add(self, key: int, *, new: bool) -> None:
        if new:
            self._pos[key] = len(self._keys)
            self._keys.append(key)

    def _note_remove(self, key: int) -> None:
        index = self._pos.pop(key)
        last = self._keys.pop()
        if last != key:
            self._keys[index] = last
            self._pos[last] = index

    def _note_clear(self) -> None:
        self._keys.clear()
        self._pos.clear()

    def _victim_key(self, protect: int) -> int:
        count = len(self._keys)
        protected_at = self._pos.get(protect)
        if protected_at is None:
            return self._keys[self._rng.randrange(count)]
        # Draw from [0, n-1) and skip over the protected slot, keeping the
        # distribution uniform over the other n-1 residents.
        index = self._rng.randrange(count - 1)
        if index >= protected_at:
            index += 1
        return self._keys[index]


_POLICY_CLASSES = {"lru": LRUCache, "lfu": LFUCache, "random": RandomCache}


@dataclass(frozen=True)
class PolicySpec:
    """A picklable, fingerprintable replacement-policy choice.

    Attributes:
        name: One of ``lru`` (default), ``lfu``, ``random``.
        seed: RNG seed for ``random`` (ignored by deterministic policies).
            Each cache built from the spec mixes in the caller's ``salt``
            (its node index), so sibling proxies draw independent victim
            streams while staying pure functions of ``(spec, salt)``.

    Seed derivation: every ``salt`` a construction site passes is
    **stable node identity** -- the L1 node index, ``n_l1 + node`` for
    L2, ``n_l1 + n_l2`` for the L3 root -- never an enumeration-order
    counter, so ``(seed << 32) ^ salt`` is a pure function of (spec,
    topology, node), and a worker process rebuilding the spec draws the
    same victim stream.
    """

    name: str = "lru"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.name not in _POLICY_CLASSES:
            raise ValueError(
                f"unknown policy {self.name!r}; expected one of {POLICY_NAMES}"
            )

    @property
    def is_default(self) -> bool:
        """True for plain LRU -- the policy every pre-policy run used."""
        return self.name == "lru"

    def build(
        self,
        capacity_bytes: int | None = None,
        on_evict: Callable[[int, CacheEntry, str], None] | None = None,
        *,
        salt: int = 0,
    ):
        """Construct a fresh cache under this policy.

        ``salt`` decorrelates the Random policy's victim streams across
        the caches of one architecture (callers pass a per-level node
        index); deterministic policies ignore it.
        """
        if self.name == "random":
            return RandomCache(
                capacity_bytes, on_evict, seed=(self.seed << 32) ^ salt
            )
        return _POLICY_CLASSES[self.name](capacity_bytes, on_evict)

    def to_payload(self) -> dict:
        """Canonical JSON-ready identity (equal behaviour, equal payload).

        The seed only shapes behaviour under ``random``, so it is omitted
        elsewhere -- ``PolicySpec("lfu", seed=5)`` and
        ``PolicySpec("lfu")`` fingerprint identically, as they should.
        """
        payload: dict = {"name": self.name}
        if self.name == "random":
            payload["seed"] = self.seed
        return payload


#: The spec every construction site defaults to: behaviour-identical to the
#: pre-policy hardcoded ``LRUCache`` calls.
DEFAULT_POLICY = PolicySpec("lru")


def parse_policy_spec(text: str) -> PolicySpec:
    """Parse one policy token: ``lfu``, ``random``, or ``random:SEED``."""
    name, _, seed_text = text.strip().partition(":")
    name = name.lower()
    if name not in _POLICY_CLASSES:
        raise ValueError(
            f"unknown policy {name!r}; expected one of {POLICY_NAMES}"
        )
    if not seed_text:
        return PolicySpec(name)
    if name != "random":
        raise ValueError(f"policy {name!r} takes no seed (got {text!r})")
    try:
        seed = int(seed_text)
    except ValueError:
        raise ValueError(f"bad policy seed in {text!r}") from None
    return PolicySpec(name, seed=seed)


def parse_policy_map(text: str) -> dict[str, PolicySpec]:
    """Parse the CLI's ``--policy`` argument into a level -> spec map.

    Accepts either one bare policy for every level (``lfu``) or
    comma-separated per-level assignments (``l1=lfu,l2=lru,l3=random``,
    any subset; unnamed levels keep the LRU default).  A ``random`` token
    may carry a seed: ``l1=random:7``.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty --policy argument")
    if "=" not in text:
        spec = parse_policy_spec(text)
        return {level: spec for level in POLICY_LEVELS}
    policies: dict[str, PolicySpec] = {}
    for part in text.split(","):
        level, sep, token = part.strip().partition("=")
        level = level.strip().lower()
        if not sep or level not in POLICY_LEVELS:
            raise ValueError(
                f"bad --policy assignment {part.strip()!r}; expected "
                f"level=policy with level in {POLICY_LEVELS}"
            )
        if level in policies:
            raise ValueError(f"duplicate --policy level {level!r}")
        policies[level] = parse_policy_spec(token)
    return policies


def policy_payload(
    policies: "dict[str, PolicySpec] | None",
) -> dict[str, dict] | None:
    """Canonical fingerprint payload for a level -> spec map.

    Default (LRU) levels are omitted, and an all-default map collapses to
    ``None`` -- so runs that never mention policies keep their pre-policy
    content addresses, byte for byte.
    """
    if not policies:
        return None
    payload = {
        level: spec.to_payload()
        for level, spec in sorted(policies.items())
        if not spec.is_default
    }
    return payload or None
