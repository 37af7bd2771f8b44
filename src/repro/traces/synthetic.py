"""Synthetic proxy-trace generation.

The generator turns a :class:`~repro.traces.profiles.WorkloadProfile` into a
:class:`~repro.traces.records.Trace` whose aggregate statistics match the
paper's Table 4 calibration targets:

* **Distinct/request ratio** -- the Zipf catalog is sized with
  :func:`repro.traces.zipf.catalog_size_for_distinct` so the expected number
  of distinct objects matches the profile's target.
* **Miss-class structure** (Figure 2) -- uncachable requests come from a
  separate catalog of CGI-like objects (uncachability is a per-URL
  property, but the request fraction is controlled exactly); errors are
  per-request; communication misses arise from per-object modification
  processes that bump object versions.
* **Diurnal shape** -- request timestamps follow a day/night-modulated rate,
  matching the peak-hour framing of the Rousskov measurements.
* **Client binding** -- stable ids for DEC/Berkeley, session-rebound ids for
  Prodigy's dial-up users.

Everything is driven by a single seed through
:class:`repro.common.rng.SeedSequenceFactory`, so a trace is a pure function
of ``(profile, seed)``.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import SeedSequenceFactory
from repro.common.units import DAYS, MINUTES
from repro.traces.profiles import WorkloadProfile
from repro.traces.columns import TraceColumns
from repro.traces.records import Trace
from repro.traces.zipf import ZipfSampler, catalog_size_for_distinct

#: Smallest / largest object sizes generated, in bytes.  Web objects below a
#: few hundred bytes are essentially headers; multi-megabyte objects exist
#: but are clipped so single objects cannot dominate scaled-down caches.
_MIN_OBJECT_BYTES = 256
_MAX_OBJECT_BYTES = 4 * 1024 * 1024

#: Relative amplitude of the diurnal request-rate modulation.
_DIURNAL_AMPLITUDE = 0.6


class SyntheticTraceGenerator:
    """Generate reproducible synthetic traces for a workload profile.

    >>> from repro.traces import DEC
    >>> gen = SyntheticTraceGenerator(DEC.scaled(0.001), seed=42)
    >>> trace = gen.generate()

    The same ``(profile, seed)`` pair always yields an identical trace.
    """

    def __init__(self, profile: WorkloadProfile, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed
        self._seeds = SeedSequenceFactory(seed)

    # ------------------------------------------------------------------
    # catalog construction
    # ------------------------------------------------------------------
    def _catalog_sizes(self, n_objects: int) -> np.ndarray:
        """Per-object sizes: lognormal with the profile's mean, clipped."""
        rng = self._seeds.generator("sizes", self.profile.name)
        sigma = self.profile.size_sigma
        mean = self.profile.mean_object_bytes
        mu = np.log(mean) - sigma * sigma / 2.0
        sizes = rng.lognormal(mean=mu, sigma=sigma, size=n_objects)
        return np.clip(sizes, _MIN_OBJECT_BYTES, _MAX_OBJECT_BYTES).astype(np.int64)

    def _modification_periods(self, n_objects: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-object modification periods and phases.

        Immutable objects get an infinite period.  Mutable objects draw an
        exponential period around the profile mean, with a uniform phase so
        modifications are not synchronized across objects.
        """
        rng = self._seeds.generator("modifications", self.profile.name)
        mean_period = self.profile.mean_mod_interval_days * DAYS
        periods = np.full(n_objects, np.inf)
        mutable = rng.random(n_objects) < self.profile.frac_mutable
        n_mutable = int(mutable.sum())
        if n_mutable:
            drawn = rng.exponential(mean_period, size=n_mutable)
            # Avoid degenerate sub-minute churn from the exponential tail.
            periods[mutable] = np.maximum(drawn, 10 * MINUTES)
        phases = rng.random(n_objects) * np.where(np.isfinite(periods), periods, 1.0)
        return periods, phases

    # ------------------------------------------------------------------
    # request streams
    # ------------------------------------------------------------------
    def _timestamps(self, count: int) -> np.ndarray:
        """Sorted request times with a diurnal rate modulation."""
        rng = self._seeds.generator("times", self.profile.name)
        duration = self.profile.duration_seconds
        # Build the cumulative arrival-rate curve on a fine grid, then invert
        # it so uniform draws map to diurnally-modulated times.
        grid = np.linspace(0.0, duration, 4096)
        rate = 1.0 + _DIURNAL_AMPLITUDE * np.sin(2 * np.pi * grid / DAYS - np.pi / 2)
        cumulative = np.cumsum(rate)
        cumulative /= cumulative[-1]
        uniforms = np.sort(rng.random(count))
        return np.interp(uniforms, cumulative, grid)

    def _client_ids(self, times: np.ndarray) -> np.ndarray:
        """Per-request client ids, stable or session-rebound."""
        rng = self._seeds.generator("clients", self.profile.name)
        n_clients = self.profile.n_clients
        # Client activity is itself skewed: a few heavy browsers, many light.
        activity = ZipfSampler(n_clients, 0.6, rng)
        users = activity.sample(len(times))
        # Decorrelate activity rank from client id.
        permutation = rng.permutation(n_clients)
        users = permutation[users]
        if not self.profile.dynamic_client_ids:
            return users
        # Prodigy-style dynamic IP binding: the recorded id is a function of
        # the user and the session epoch, so the same user appears under
        # different ids across sessions (and ids are reused across users).
        session = self.profile.mean_session_minutes * MINUTES
        epochs = (times / session).astype(np.int64)
        return (users + epochs * 7919) % n_clients

    def _object_ids(
        self, count: int, clients: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """Per-request object ids and their uncachable/error/plain flags.

        Returns ``(object_ids, uncachable_flags, error_flags, plain_flags,
        n_total)``.
        Cacheable objects occupy dense ids ``[0, n_cacheable)``; uncachable
        (CGI-like) objects a following range; *dead URLs* -- links that
        error on every request, so negative-result caching has something
        to cache -- a final range.  The error budget splits ~60% dead-URL
        (per-URL repeatable) and ~40% transient (per-request).
        """
        profile = self.profile
        rng = self._seeds.generator("objects", profile.name)
        draw = rng.random(count)
        uncachable_mask = draw < profile.frac_uncachable
        dead_threshold = profile.frac_uncachable + 0.6 * profile.frac_error
        dead_mask = (draw >= profile.frac_uncachable) & (draw < dead_threshold)
        plain_mask = ~(uncachable_mask | dead_mask)
        n_cacheable_requests = int(plain_mask.sum())

        cacheable_share = max(1e-9, 1.0 - profile.frac_uncachable)
        target_cacheable = max(64, int(profile.target_distinct * cacheable_share))
        # Client repeats (applied later) replace a share of these draws with
        # re-references, so only the fresh share contributes new distinct
        # objects; size the catalog against that share.
        fresh_draws = max(
            target_cacheable,
            int(n_cacheable_requests * (1.0 - profile.client_repeat_prob)),
        )
        n_cacheable = catalog_size_for_distinct(
            fresh_draws,
            target_cacheable,
            profile.zipf_alpha,
        )
        cacheable_sampler = ZipfSampler(n_cacheable, profile.zipf_alpha, rng)
        ranks = cacheable_sampler.sample(n_cacheable_requests)
        permutation = rng.permutation(n_cacheable)
        object_ids = np.empty(count, dtype=np.int64)
        object_ids[plain_mask] = permutation[ranks]

        # CGI-like catalog: flatter popularity, sized proportionally.
        n_uncachable = max(16, int(target_cacheable * profile.frac_uncachable /
                                   cacheable_share))
        n_uncachable_requests = int(uncachable_mask.sum())
        if n_uncachable_requests:
            cgi_sampler = ZipfSampler(n_uncachable, profile.zipf_alpha * 0.8, rng)
            cgi_ranks = cgi_sampler.sample(n_uncachable_requests)
            object_ids[uncachable_mask] = n_cacheable + cgi_ranks

        # Dead-URL catalog: a small set of broken links hit repeatedly
        # (dead links are few but popular enough to be requested again).
        n_dead = max(8, int(target_cacheable * profile.frac_error * 0.25))
        n_dead_requests = int(dead_mask.sum())
        if n_dead_requests:
            dead_sampler = ZipfSampler(n_dead, profile.zipf_alpha * 0.9, rng)
            dead_ranks = dead_sampler.sample(n_dead_requests)
            object_ids[dead_mask] = n_cacheable + n_uncachable + dead_ranks

        # Transient errors hit any non-dead request at the residual rate.
        transient_rate = 0.4 * profile.frac_error
        error_mask = dead_mask | (
            ~dead_mask & (rng.random(count) < transient_rate)
        )
        n_total = n_cacheable + n_uncachable + n_dead
        n_total += self._apply_regional_interest(
            object_ids, plain_mask, clients, base_id=n_total, rng=rng
        )
        return object_ids, uncachable_mask, error_mask, plain_mask, n_total

    def _apply_regional_interest(
        self,
        object_ids: np.ndarray,
        plain_mask: np.ndarray,
        clients: np.ndarray,
        base_id: int,
        rng: np.random.Generator,
    ) -> int:
        """Redirect a share of requests to disjoint per-region catalogs.

        Regional objects occupy dense ids ``[base_id, base_id + n_regions *
        region_size)``; each region Zipf-samples its own slice, so a
        region's hot head is *only* hot there -- the "locality within
        subtrees" structure the paper's push discussion appeals to
        (section 4.1.3).  Regions are consecutive client-id blocks, which
        the hierarchy's grouping maps onto L2 subtrees.

        Returns the number of object ids added to the space.
        """
        profile = self.profile
        if profile.regional_interest <= 0.0:
            return 0
        plain_indices = np.flatnonzero(plain_mask)
        regional = rng.random(len(plain_indices)) < profile.regional_interest
        if not regional.any():
            return 0
        region_size = max(
            64, int(profile.target_distinct * profile.regional_interest)
            // profile.n_regions,
        )
        regions = (
            clients[plain_indices].astype(np.int64)
            * profile.n_regions
            // profile.n_clients
        )
        for region in range(profile.n_regions):
            chosen = regional & (regions == region)
            n_chosen = int(chosen.sum())
            if not n_chosen:
                continue
            sampler = ZipfSampler(region_size, profile.zipf_alpha, rng)
            local_ranks = sampler.sample(n_chosen)
            object_ids[plain_indices[chosen]] = (
                base_id + region * region_size + local_ranks
            )
        return profile.n_regions * region_size

    def _apply_client_repeats(
        self,
        object_ids: np.ndarray,
        plain_mask: np.ndarray,
        clients: np.ndarray,
    ) -> None:
        """Rewrite a share of plain requests as client re-references.

        Walks the trace in time order keeping each client's recent plain
        objects; with probability ``client_repeat_prob`` a request revisits
        one of them.  This is the per-client temporal locality that L1
        proxy hit rates come from (Figure 3).
        """
        from collections import deque

        profile = self.profile
        p = profile.client_repeat_prob
        if p <= 0.0:
            return
        rng = self._seeds.generator("repeats", profile.name)
        count = len(object_ids)
        # The walk is per-request Python: run it on native lists, not on
        # NumPy scalars indexed one at a time.
        repeat_draw = rng.random(count).tolist()
        pick_draw = rng.integers(0, 1 << 30, size=count).tolist()
        ids = object_ids.tolist()
        client_of = clients.tolist()
        window = profile.client_working_set
        recent: dict[int, deque] = {}
        for index in np.flatnonzero(plain_mask).tolist():
            client = client_of[index]
            history = recent.get(client)
            if history is None:
                history = deque(maxlen=window)
                recent[client] = history
            if history and repeat_draw[index] < p:
                ids[index] = history[pick_draw[index] % len(history)]
            history.append(ids[index])
        object_ids[:] = ids

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def generate(self) -> Trace:
        """Generate the full trace for this generator's profile and seed.

        The trace is columnar from birth: its request list is a
        :class:`~repro.traces.columns.LazyRequestList` over the generated
        arrays (cast to :data:`~repro.traces.columns.COLUMN_DTYPES`), so
        no :class:`~repro.traces.records.Request` row exists unless a
        consumer iterates or indexes ``requests``.
        """
        profile = self.profile
        count = profile.n_requests

        times = self._timestamps(count)
        clients = self._client_ids(times)
        object_ids, uncachable, errors, plain, n_objects = self._object_ids(
            count, clients
        )
        self._apply_client_repeats(object_ids, plain, clients)
        sizes = self._catalog_sizes(n_objects)
        periods, phases = self._modification_periods(n_objects)

        request_periods = periods[object_ids]
        request_phases = phases[object_ids]
        versions = np.zeros(count, dtype=np.int64)
        finite = np.isfinite(request_periods)
        versions[finite] = (
            (times[finite] + request_phases[finite]) // request_periods[finite]
        ).astype(np.int64)

        columns = TraceColumns.from_arrays(
            dict(
                time=times,
                client=clients,
                object=object_ids,
                size=sizes[object_ids],
                version=versions,
                cacheable=~uncachable,
                error=errors,
            )
        )
        return Trace.from_columns(
            profile_name=profile.name,
            columns=columns,
            n_objects=n_objects,
            n_clients=profile.n_clients,
            duration=profile.duration_seconds,
            warmup=profile.warmup_seconds,
        )


def generate_trace(
    profile: WorkloadProfile,
    *,
    seed: int = 0,
    scale: float | None = None,
) -> Trace:
    """Convenience wrapper: optionally scale a profile, then generate.

    Args:
        profile: Base workload profile (e.g. :data:`repro.traces.DEC`).
        seed: Root seed; the trace is a pure function of (profile, seed).
        scale: If given, generate from ``profile.scaled(scale)``.
    """
    if scale is not None:
        profile = profile.scaled(scale)
    return SyntheticTraceGenerator(profile, seed=seed).generate()
