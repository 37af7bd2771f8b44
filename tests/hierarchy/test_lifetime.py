"""Every architecture is freed by reference counting on its last reference.

A finished run's unbounded caches hold a copy of every object fetched.  An
architecture that is a reference cycle is freed only by a full collection
of the cyclic garbage collector, so a comparison that runs architectures
one after another would keep finished ones alive.  None is a cycle: the
eviction callbacks installed in an architecture's own caches and the
fault injector it holds reach it through weak references.  Each cell
below disables the collector, so only reference counting can free it.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.faults import FaultProfile
from repro.hierarchy.client_hints import ClientHintHierarchy
from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.directory_arch import CentralizedDirectoryArchitecture
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.hierarchy.icp import IcpHierarchy
from repro.hierarchy.message_hints import MessageLevelHintHierarchy
from repro.netmodel.testbed import TestbedCostModel
from repro.obs.telemetry import RunTelemetry
from repro.push.hierarchical import HierarchicalPushOnMiss
from repro.sim.engine import run_simulation

MB = 1024 * 1024

BUILDERS = {
    "hierarchy": lambda topology: DataHierarchy(topology, TestbedCostModel()),
    "icp": lambda topology: IcpHierarchy(topology, TestbedCostModel()),
    "hints": lambda topology: HintHierarchy(topology, TestbedCostModel()),
    "hints-push-1": lambda topology: HintHierarchy(
        topology,
        TestbedCostModel(),
        l1_bytes=2 * MB,
        push_policy=HierarchicalPushOnMiss(topology, "push-1", seed=7),
    ),
    "directory": lambda topology: CentralizedDirectoryArchitecture(
        topology, TestbedCostModel(), l1_bytes=2 * MB
    ),
    "client-hints": lambda topology: ClientHintHierarchy(
        topology, TestbedCostModel(), l1_bytes=2 * MB, seed=7
    ),
    "message-hints": lambda topology: MessageLevelHintHierarchy(
        topology, TestbedCostModel(), l1_bytes=2 * MB, seed=7
    ),
}


def crash_plan(trace, topology):
    """Crashes and recoveries of every L1 proxy and of the metadata node."""
    targets = [("l1", node) for node in range(topology.n_l1)] + [("meta", 0)]
    plan = FaultProfile(mtbf_s=trace.duration / 3, mttr_s=3600.0, seed=3).plan(
        targets, duration_s=trace.duration
    )
    assert plan.events  # the faulted cells do inject faults
    return plan


@pytest.mark.parametrize("engine", ["auto", "reference"])
@pytest.mark.parametrize("mode", ["healthy", "faulted", "telemetry"])
@pytest.mark.parametrize("kind", list(BUILDERS))
def test_architecture_freed_on_last_reference(
    kind, mode, engine, dec_trace, tiny_config
):
    topology = tiny_config.topology
    gc.disable()
    try:
        architecture = BUILDERS[kind](topology)
        freed = weakref.ref(architecture)
        options = {}
        if mode == "faulted":
            options["fault_plan"] = crash_plan(dec_trace, topology)
        if mode == "telemetry":
            options["telemetry"] = RunTelemetry()
        metrics = run_simulation(dec_trace, architecture, engine=engine, **options)
        del architecture, options
        assert freed() is None
    finally:
        gc.enable()
    assert metrics.measured_requests > 0
