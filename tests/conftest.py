"""Shared fixtures: a tiny topology/config and memoized small traces.

Tests use a deliberately small system (8 L1 proxies, 2 clients each, ~4k
requests) so the whole suite stays fast while still exercising every
distance class and both miss regimes.
"""

from __future__ import annotations

import weakref

import pytest

from repro.hierarchy.topology import HierarchyTopology
from repro.runner.specs import ArchitectureSpec
from repro.sim.config import ExperimentConfig
from repro.traces.records import Trace
from repro.traces.synthetic import SyntheticTraceGenerator


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--force-regen",
        action="store_true",
        default=False,
        help="rewrite golden regression snapshots (tests/regression/golden/) "
        "from the current code instead of comparing against them",
    )


def make_tiny_config(**overrides) -> ExperimentConfig:
    """A small-but-complete experiment configuration."""
    defaults = dict(
        topology=HierarchyTopology(clients_per_l1=2, l1_per_l2=4, n_l2=2),
        seed=7,
        trace_scale=0.0002,
        l1_cache_bytes=2 * 1024 * 1024,
        hint_data_cache_bytes=int(1.8 * 1024 * 1024),
        hint_store_bytes=200 * 1024,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class LiveBuilds:
    """Counts, at each build of a wrapped spec, the earlier builds alive.

    ``wrap(specs)`` returns specs that build through this object; after a
    run, ``alive_at_build`` holds one count per build.  A run that keeps
    one architecture alive at a time reads all zeros.
    """

    def __init__(self) -> None:
        self._built: list[weakref.ref] = []
        self.alive_at_build: list[int] = []

    def wrap(self, specs):
        return [ArchitectureSpec(self._build, (spec,)) for spec in specs]

    def _build(self, spec):
        self.alive_at_build.append(sum(ref() is not None for ref in self._built))
        architecture = spec.build()
        self._built.append(weakref.ref(architecture))
        return architecture


@pytest.fixture(scope="session")
def tiny_config() -> ExperimentConfig:
    return make_tiny_config()


@pytest.fixture(scope="session")
def dec_trace(tiny_config: ExperimentConfig) -> Trace:
    """A small DEC-profile trace shared (read-only) across tests."""
    profile = tiny_config.profile("dec")
    return SyntheticTraceGenerator(profile, seed=tiny_config.seed).generate()


@pytest.fixture(scope="session")
def prodigy_trace(tiny_config: ExperimentConfig) -> Trace:
    """A small Prodigy-profile trace (dynamic client ids)."""
    profile = tiny_config.profile("prodigy")
    return SyntheticTraceGenerator(profile, seed=tiny_config.seed).generate()
