"""Golden snapshots of the table experiments at the tiny config.

Each experiment's rows are pinned to a checked-in JSON file.  The
simulations are deterministic pure functions of (config, code), so any
diff against the snapshot is a *behavioural* change -- a perf PR that
reorders floating-point accumulation, changes an eviction tie-break, or
touches the trace generator will fail here before it silently shifts the
paper's numbers.

Intentional changes regenerate the snapshots::

    PYTHONPATH=src python -m pytest tests/regression --force-regen

then the diff gets reviewed like any other code change.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments.registry import get_experiment
from tests.conftest import make_tiny_config

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

#: Experiments pinned: the paper's numeric tables, the push comparison
#: (``figure10``: push-1, push-half, push-all and update-push rows), plus
#: the live hint mechanism's model cross-check (``message_level``), at
#: the tiny config.
PINNED = ("table3", "table4", "table5", "figure10", "message_level")


def _snapshot(name: str) -> dict:
    """The experiment's canonical, JSON-stable output at the tiny config."""
    result = get_experiment(name)(make_tiny_config())
    # Round-trip through JSON so the comparison sees exactly what the
    # file stores (tuples become lists, ints stay ints, floats use the
    # same repr on both sides).
    return json.loads(
        json.dumps(
            {
                "experiment": result.experiment,
                "description": result.description,
                "rows": result.rows,
            },
            sort_keys=True,
        )
    )


@pytest.mark.parametrize("name", PINNED)
def test_golden_table(name: str, force_regen: bool) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    snapshot = _snapshot(name)
    if force_regen or not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        if not force_regen:
            pytest.fail(
                f"golden snapshot {path} was missing and has been written; "
                "review and commit it, then re-run"
            )
        return
    golden = json.loads(path.read_text())
    assert snapshot == golden, (
        f"{name} output drifted from its golden snapshot; if the change is "
        "intentional, regenerate with --force-regen and review the diff"
    )


def test_golden_snapshots_checked_in() -> None:
    """Every pinned experiment has its snapshot file in the repo."""
    missing = [name for name in PINNED if not (GOLDEN_DIR / f"{name}.json").exists()]
    assert not missing, f"missing golden snapshots: {missing}"
