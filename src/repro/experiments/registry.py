"""Registry mapping experiment names to their ``run`` callables.

It also holds what a parallel run needs to schedule them: which
experiments read another's run-scoped memo, and the order in which the
resulting work units start.
"""

from __future__ import annotations

from typing import Callable

from repro.experiments import (
    ablations,
    client_hints,
    failure_sensitivity,
    figure1,
    figure2,
    figure3,
    figure5,
    figure6,
    figure8,
    figure10,
    figure11,
    load_sensitivity,
    message_level,
    queueing_validation,
    scaling,
    seed_sensitivity,
    table3,
    table4,
    table5,
    table6,
)
from repro.experiments.base import ExperimentResult
from repro.sim.config import ExperimentConfig

_REGISTRY: dict[str, Callable[[ExperimentConfig | None], ExperimentResult]] = {
    "figure1": figure1.run,
    "table3": table3.run,
    "table4": table4.run,
    "figure2": figure2.run,
    "figure3": figure3.run,
    "figure5": figure5.run,
    "figure6": figure6.run,
    "table5": table5.run,
    "figure8": figure8.run,
    "table6": table6.run,
    "figure10": figure10.run,
    "figure11": figure11.run,
    "client_hints": client_hints.run,
    "message_level": message_level.run,
    "load_sensitivity": load_sensitivity.run,
    "failure_sensitivity": failure_sensitivity.run,
    "queueing_validation": queueing_validation.run,
    "seed_sensitivity": seed_sensitivity.run,
    "scaling": scaling.run,
    "ablations": ablations.run,
}


#: Reader -> the experiment whose run-scoped memo
#: (:func:`repro.runner.trace_cache.memoized`) it reads.  A producer is
#: registered before its readers.
MEMO_PRODUCERS = {
    "table6": "figure8",
    "figure10": "figure8",
    "figure11": "figure10",
}

#: Work units start in this order, heaviest first; it changes only
#: wall-clock.  Measured seconds per experiment (EXPERIMENTS.md, "--all
#: uses every core") put ``ablations`` first, then the ``figure8`` unit
#: (``figure10`` is most of it) and ``message_level``.
START_ORDER = (
    "ablations",
    "figure8",
    "table6",
    "figure10",
    "figure11",
    "message_level",
    "seed_sensitivity",
    "failure_sensitivity",
    "figure5",
    "figure6",
    "client_hints",
    "figure2",
    "scaling",
    "queueing_validation",
    "load_sensitivity",
    "table5",
    "figure3",
    "table4",
    "table3",
    "figure1",
)


def all_experiments() -> list[str]:
    """Registered experiment names, in the paper's presentation order."""
    return list(_REGISTRY)


def get_experiment(name: str) -> Callable[[ExperimentConfig | None], ExperimentResult]:
    """Look up one experiment's ``run`` callable."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise KeyError(f"unknown experiment {name!r}; known: {known}") from None


def work_units(names: list[str]) -> list[list[str]]:
    """Group ``names`` into work units that share no memo, in start order.

    A reader joins the unit of its nearest requested producer (following
    :data:`MEMO_PRODUCERS` through producers that were not requested), so
    no memo entry is computed in two processes; a reader requested without
    any producer computes the cells itself.  A unit's members are in
    registry order, producers first.  Raises ``KeyError`` for an unknown
    name.
    """
    for name in names:
        get_experiment(name)
    requested = set(names)

    def root(name: str) -> str:
        producer = MEMO_PRODUCERS.get(name)
        while producer is not None and producer not in requested:
            producer = MEMO_PRODUCERS.get(producer)
        return name if producer is None else root(producer)

    units: dict[str, list[str]] = {}
    for name in _REGISTRY:
        if name in requested:
            units.setdefault(root(name), []).append(name)
    return sorted(units.values(), key=lambda unit: min(map(START_ORDER.index, unit)))
