"""``python -m repro.audit`` -- the full audit gate.

Three stages, all deterministic:

1. **Audit matrix** -- every architecture x every fault plan (healthy
   plus the eight single-fault kinds), each run over a small synthetic
   trace with :class:`~repro.audit.hooks.AuditHooks` and telemetry
   attached, so every runtime invariant (byte accounting, hint/truth
   agreement, ledger sums, partitions, telescoping) is verified on every
   cell.  Each cell then re-runs on the columnar fast engine, which must
   be byte-identical to the audited reference run -- both engines face
   the gate.  A **policy axis** extends the matrix: space-constrained
   cells running non-default replacement policies (LFU, seeded Random,
   and a mixed per-level map) through the same audit + engine-parity
   treatment, so the pluggable policy layer faces every invariant on
   both engines.
2. **Differential trials** -- seeded random operation streams driven
   through production and oracle twins of the LRU cache, the hint
   directory, and the engine + data hierarchy, demanding bit-for-bit
   agreement.
3. **Predictor check** -- the analytic third oracle
   (:mod:`repro.analytic`): Che (LRU) and exact TTL-style (Random)
   hit-rate predictions compared against the production cache classes
   replaying exchangeable-shuffled trace substreams; disagreement beyond
   :data:`~repro.analytic.PREDICTOR_TOLERANCE` fails the gate.

Exits 0 when every cell, trial, and comparison is clean, 1 with one
problem per line otherwise (the same contract as
``python -m repro.obs.check``).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analytic import (
    PREDICTABLE_POLICIES,
    PREDICTOR_TOLERANCE,
    measure_l1_hit_rate,
    predict_l1_hit_rate,
)
from repro.audit.differential import (
    random_directory_ops,
    random_fault_plan,
    random_lru_ops,
    random_micro_trace,
    run_directory_differential,
    run_engine_differential,
    run_lru_differential,
)
from repro.audit.hooks import AuditError, AuditHooks
from repro.cache.policy import PolicySpec
from repro.faults.events import (
    FaultPlan,
    HintBatchLoss,
    LinkDegrade,
    NodeCrash,
    OriginSlowdown,
    StaleHintDrift,
)
from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.directory_arch import CentralizedDirectoryArchitecture
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.hierarchy.icp import IcpHierarchy
from repro.hierarchy.topology import HierarchyTopology
from repro.netmodel.testbed import TestbedCostModel
from repro.obs.telemetry import RunTelemetry
from repro.sim.config import ExperimentConfig
from repro.sim.engine import run_simulation
from repro.traces.synthetic import SyntheticTraceGenerator

ARCHITECTURES = {
    "hierarchy": DataHierarchy,
    "hints": HintHierarchy,
    "directory": CentralizedDirectoryArchitecture,
    "icp": IcpHierarchy,
}

#: One plan per fault kind, active from t=0 (mirrors the failure matrix).
FAULT_KINDS = {
    "none": (),
    "l1_crash": (NodeCrash(time=0.0, kind="l1", node=0),),
    "l2_crash": (NodeCrash(time=0.0, kind="l2", node=0),),
    "l3_crash": (NodeCrash(time=0.0, kind="l3", node=0),),
    "meta_crash": (NodeCrash(time=0.0, kind="meta", node=0),),
    "hint_batch_loss": (HintBatchLoss(time=0.0, prob=0.3),),
    "stale_hint_drift": (StaleHintDrift(time=0.0, ttl_skew_s=120.0),),
    "origin_slowdown": (OriginSlowdown(time=0.0, factor=2.0),),
    "link_degrade": (LinkDegrade(time=0.0, latency_mult=1.5),),
}


#: Policy axis of the audit matrix: space-constrained cells running
#: non-default replacement policies through the full audit + engine-parity
#: treatment.  Capacities come from :func:`_audit_config` at build time so
#: eviction actually happens (an unbounded cache never exercises a victim
#: scan).  Covers LFU and seeded Random on both a plain data hierarchy and
#: an eviction-callback (hint-style) architecture, plus one mixed
#: per-level map and one faulted cell (crash -> clear -> refill under a
#: non-LRU policy).
POLICY_CELLS: dict[str, tuple[str, str, dict]] = {
    "hierarchy x l1=lfu": ("hierarchy", "none", {"l1_policy": PolicySpec("lfu")}),
    "hierarchy x l1=random": (
        "hierarchy",
        "none",
        {"l1_policy": PolicySpec("random", seed=11)},
    ),
    "hierarchy x mixed": (
        "hierarchy",
        "none",
        {
            "l1_policy": PolicySpec("lfu"),
            "l2_policy": PolicySpec("random", seed=3),
            "l2_bytes": 4 * 1024 * 1024,
            "l3_bytes": 8 * 1024 * 1024,
        },
    ),
    "hierarchy x l1=lfu x l1_crash": (
        "hierarchy",
        "l1_crash",
        {"l1_policy": PolicySpec("lfu")},
    ),
    "hints x l1=lfu": ("hints", "none", {"l1_policy": PolicySpec("lfu")}),
    "hints x l1=random": (
        "hints",
        "none",
        {"l1_policy": PolicySpec("random", seed=5)},
    ),
    "icp x l1=random": ("icp", "none", {"l1_policy": PolicySpec("random", seed=7)}),
    "directory x l1=lfu": ("directory", "none", {"l1_policy": PolicySpec("lfu")}),
}


def _audit_config() -> ExperimentConfig:
    """Small-but-complete config (the test suite's tiny shape)."""
    return ExperimentConfig(
        topology=HierarchyTopology(clients_per_l1=2, l1_per_l2=4, n_l2=2),
        seed=7,
        trace_scale=0.0002,
        l1_cache_bytes=2 * 1024 * 1024,
        hint_data_cache_bytes=int(1.8 * 1024 * 1024),
        hint_store_bytes=200 * 1024,
    )


def run_matrix(*, verbose: bool = False) -> tuple[list[str], int]:
    """Run the architecture x fault-plan audit matrix, on both engines.

    Each cell runs the reference engine with audit hooks and telemetry
    attached, then the columnar fast engine over a fresh twin of the same
    cell.  The fast run must be byte-identical -- metrics and telemetry
    rows -- to the audited reference run, so the fast engine's outputs
    face every runtime invariant transitively (audit hooks themselves are
    inherently per-request).

    Returns ``(problems, total_checks)``: one problem line per failed
    cell and the number of individual invariant checks performed (each
    engine-parity comparison counts as one check).
    """
    config = _audit_config()
    trace = SyntheticTraceGenerator(config.profile("dec"), seed=config.seed).generate()
    problems: list[str] = []
    total_checks = 0
    for arch_name, arch_cls in sorted(ARCHITECTURES.items()):
        for fault_name, events in sorted(FAULT_KINDS.items()):
            plan = FaultPlan(events=events, seed=config.seed) if events else None
            build = lambda cls=arch_cls: cls(config.topology, TestbedCostModel())
            cell_problems, checks = _audit_cell(
                trace, build, plan, label=f"{arch_name} x {fault_name}"
            )
            problems.extend(cell_problems)
            total_checks += checks
            if verbose:
                print(f"  {arch_name:>10} x {fault_name:<16} {checks:>7} checks")
    return problems, total_checks


def _audit_cell(trace, build, plan, *, label: str) -> tuple[list[str], int]:
    """Run one matrix cell: audited reference run, then fast-engine parity.

    ``build`` constructs a fresh architecture instance (called once per
    engine so neither run sees warmed state).  Returns the cell's problem
    lines and the number of invariant checks performed.
    """
    problems: list[str] = []
    hooks = AuditHooks()
    telemetry = RunTelemetry(bin_s=6 * 3600.0)
    metrics = None
    try:
        metrics = run_simulation(
            trace,
            build(),
            fault_plan=plan,
            telemetry=telemetry,
            audit=hooks,
            engine="reference",
        )
    except AuditError as error:
        problems.append(f"matrix {label}: {error}")
    checks = sum(hooks.counts.values())
    if metrics is not None:
        fast_telemetry = RunTelemetry(bin_s=6 * 3600.0)
        fast_metrics = run_simulation(
            trace, build(), fault_plan=plan, telemetry=fast_telemetry, engine="fast"
        )
        if fast_metrics != metrics:
            problems.append(
                f"fast-engine parity {label}: "
                "metrics diverge from the audited reference run"
            )
        if fast_telemetry.rows != telemetry.rows:
            problems.append(
                f"fast-engine parity {label}: "
                "telemetry rows diverge from the audited reference run"
            )
        checks += 1
    return problems, checks


def run_policy_matrix(*, verbose: bool = False) -> tuple[list[str], int]:
    """Run the policy axis of the audit matrix (see :data:`POLICY_CELLS`).

    Each cell is a space-constrained architecture under a non-default
    replacement policy, run through the identical audited-reference +
    fast-engine-parity treatment as :func:`run_matrix` -- the policy layer
    faces every runtime invariant on both engines.
    """
    config = _audit_config()
    trace = SyntheticTraceGenerator(config.profile("dec"), seed=config.seed).generate()
    problems: list[str] = []
    total_checks = 0
    for label, (arch_name, fault_name, overrides) in POLICY_CELLS.items():
        arch_cls = ARCHITECTURES[arch_name]
        events = FAULT_KINDS[fault_name]
        plan = FaultPlan(events=events, seed=config.seed) if events else None
        l1_bytes = (
            config.l1_cache_bytes
            if arch_name in ("hierarchy", "icp")
            else config.hint_data_cache_bytes
        )
        kwargs = {"l1_bytes": l1_bytes, **overrides}
        build = lambda cls=arch_cls, kw=kwargs: cls(
            config.topology, TestbedCostModel(), **kw
        )
        cell_problems, checks = _audit_cell(trace, build, plan, label=label)
        problems.extend(cell_problems)
        total_checks += checks
        if verbose:
            print(f"  {label:<32} {checks:>7} checks")
    return problems, total_checks


def run_predictor_check(*, verbose: bool = False) -> tuple[list[str], int]:
    """Cross-check the analytic predictor against the production caches.

    For each analytically tractable policy (LRU via Che, Random via the
    exact TTL-style formula) and a spread of capacities, compares the
    predicted warm hit rate with the rate measured by replaying seeded
    exchangeable shuffles of the audit trace's per-proxy substreams
    through the real cache classes.  A gap beyond
    :data:`~repro.analytic.PREDICTOR_TOLERANCE` fails the gate -- the
    tolerance's derivation lives in the :mod:`repro.analytic` docstring.
    """
    config = _audit_config()
    trace = SyntheticTraceGenerator(config.profile("dec"), seed=config.seed).generate()
    capacities = (config.l1_cache_bytes, 512 * 1024)
    problems: list[str] = []
    comparisons = 0
    worst = 0.0
    for capacity in capacities:
        for policy in PREDICTABLE_POLICIES:
            predicted = predict_l1_hit_rate(trace, config.topology, capacity, policy)
            measured = measure_l1_hit_rate(
                trace,
                config.topology,
                capacity,
                PolicySpec(policy, seed=3),
                shuffle_seed=2024,
            )
            delta = abs(predicted.warm_hit_rate - measured.warm_hit_rate)
            worst = max(worst, delta)
            comparisons += 1
            if delta > PREDICTOR_TOLERANCE:
                problems.append(
                    f"predictor {policy} @ {capacity}B: analytic "
                    f"{predicted.warm_hit_rate:.4f} vs simulated "
                    f"{measured.warm_hit_rate:.4f} "
                    f"(|delta| {delta:.4f} > tolerance {PREDICTOR_TOLERANCE})"
                )
            if verbose:
                print(
                    f"  {policy:>6} @ {capacity:>8}B  "
                    f"pred={predicted.warm_hit_rate:.4f} "
                    f"sim={measured.warm_hit_rate:.4f} |delta|={delta:.4f}"
                )
    print(
        f"predictor: {comparisons} comparisons, max |delta| {worst:.4f} "
        f"(tolerance {PREDICTOR_TOLERANCE})"
    )
    return problems, comparisons


def run_differential_trials(
    trials: int, seed: int, *, verbose: bool = False
) -> tuple[list[str], int]:
    """Run seeded random differential trials against every oracle."""
    problems: list[str] = []
    total_ops = 0
    topology = HierarchyTopology(clients_per_l1=2, l1_per_l2=4, n_l2=2)
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        capacity = (None, 64, 256, 1000)[trial % 4]
        delay = (0.0, 30.0)[trial % 2]
        try:
            total_ops += run_lru_differential(random_lru_ops(rng), capacity)
            total_ops += run_directory_differential(
                random_directory_ops(rng), delay=delay
            )
            trace = random_micro_trace(rng, topology, warmup=300.0 if trial % 3 else 0.0)
            plan = random_fault_plan(rng, topology, trace.duration) if trial % 2 else None
            total_ops += run_engine_differential(
                trace,
                topology,
                l1_bytes=(None, 64 * 1024)[trial % 2],
                fault_plan=plan,
                include_uncachable=bool(trial % 3 == 1),
            )
        except AuditError as error:
            problems.append(f"differential trial {trial}: {error}")
        if verbose:
            print(f"  trial {trial}: capacity={capacity} delay={delay} ok")
    return problems, total_ops


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-audit",
        description="Run the audit matrix and oracle differential trials.",
    )
    parser.add_argument(
        "--trials", type=int, default=6, help="differential trials (default 6)"
    )
    parser.add_argument(
        "--seed", type=int, default=1999, help="differential RNG seed"
    )
    parser.add_argument(
        "--skip-matrix", action="store_true", help="differential trials only"
    )
    parser.add_argument(
        "--skip-differential", action="store_true", help="audit matrix only"
    )
    parser.add_argument(
        "--skip-predictor",
        action="store_true",
        help="skip the analytic-predictor cross-check",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    problems: list[str] = []
    if not args.skip_matrix:
        matrix_problems, checks = run_matrix(verbose=args.verbose)
        problems.extend(matrix_problems)
        cells = len(ARCHITECTURES) * len(FAULT_KINDS)
        print(f"audit matrix: {cells} cells, {checks} invariant checks")
        policy_problems, policy_checks = run_policy_matrix(verbose=args.verbose)
        problems.extend(policy_problems)
        print(
            f"policy matrix: {len(POLICY_CELLS)} cells, "
            f"{policy_checks} invariant checks"
        )
    if not args.skip_predictor:
        predictor_problems, _ = run_predictor_check(verbose=args.verbose)
        problems.extend(predictor_problems)
    if not args.skip_differential:
        diff_problems, ops = run_differential_trials(
            args.trials, args.seed, verbose=args.verbose
        )
        problems.extend(diff_problems)
        print(f"differential: {args.trials} trials, {ops} operations compared")
    for problem in problems:
        print(problem, file=sys.stderr)
    print("audit clean" if not problems else f"{len(problems)} audit problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
