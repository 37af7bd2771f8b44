"""Shape tests for the push experiments (Figures 10 and 11)."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.experiments import figure10, figure11
from repro.hierarchy.base import Architecture
from tests.conftest import make_tiny_config


@pytest.fixture(scope="module")
def systems():
    return figure10.run_systems(make_tiny_config(), "dec")["testbed"]


class TestFigure10Systems:
    def test_all_systems_present(self, systems):
        assert set(systems) == {
            "hierarchy",
            "hints",
            "hints+update-push",
            "hints+push-1",
            "hints+push-half",
            "hints+push-all",
            "hints-ideal-push",
        }

    def test_ideal_push_is_the_best_hint_system(self, systems):
        ideal = systems["hints-ideal-push"][0].mean_response_ms
        for name, (metrics, _push_stats) in systems.items():
            if name != "hierarchy":
                assert ideal <= metrics.mean_response_ms + 1e-9, name

    def test_ideal_push_has_no_remote_hits_charged(self, systems):
        from repro.netmodel.model import AccessPoint

        metrics = systems["hints-ideal-push"][0]
        assert metrics.requests_by_point[AccessPoint.L2] == 0
        assert metrics.requests_by_point[AccessPoint.L3] == 0

    def test_hierarchical_push_competitive_with_no_push(self, systems):
        """Paper: hierarchical push gains 1.12-1.25x over no-push hints.

        At this tiny test scale the pushed replicas displace a larger share
        of each (2 MB) cache, so the gain can evaporate; the full-scale
        claim is asserted by ``benchmarks/test_bench_figure10.py``.  Here we
        pin that push never *costs* more than a few percent.
        """
        hints = systems["hints"][0].mean_response_ms
        push1 = systems["hints+push-1"][0].mean_response_ms
        assert push1 < hints * 1.05

    def test_update_push_changes_little(self, systems):
        """Paper: update push achieves no appreciable gain."""
        hints = systems["hints"][0].mean_response_ms
        update = systems["hints+update-push"][0].mean_response_ms
        assert update == pytest.approx(hints, rel=0.1)

    def test_push_systems_record_push_hits(self, systems):
        assert systems["hints+push-1"][0].push_hits > 0

    def test_releases_every_architecture(self, monkeypatch):
        """No architecture outlives the call: each holds a full set of
        caches, and a cost model's seven would stay resident otherwise."""
        built = []
        init = Architecture.__init__

        def tracking_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(weakref.ref(self))

        monkeypatch.setattr(Architecture, "__init__", tracking_init)
        priced = figure10.run_systems(make_tiny_config(), "dec")
        gc.collect()
        # One build per system, priced under every cost model.
        assert len(built) == len(priced["testbed"])
        alive = [type(ref()).__name__ for ref in built if ref() is not None]
        assert alive == []


class TestFigure10Rows:
    def test_rows_cover_cost_models(self):
        result = figure10.run(make_tiny_config())
        models = {row["cost_model"] for row in result.rows}
        assert models == {"testbed", "min", "max"}

    def test_speedups_relative_to_hierarchy(self):
        result = figure10.run(make_tiny_config())
        for row in result.rows:
            if row["system"] == "hierarchy":
                assert row["speedup_vs_hierarchy"] == pytest.approx(1.0)


class TestFigure11:
    @pytest.fixture(scope="class")
    def result(self):
        return figure11.run(make_tiny_config())

    def test_reports_the_four_push_systems(self, result):
        assert [row["system"] for row in result.rows] == list(figure11.PUSH_SYSTEMS)

    def test_efficiencies_are_fractions(self, result):
        for row in result.rows:
            assert 0.0 <= row["efficiency"] <= 1.0

    def test_update_push_competitive_in_efficiency(self, result):
        """Paper: the targeted update push wastes the least.

        The strict ordering is a full-scale property (asserted by
        ``benchmarks/test_bench_figure11.py``); at this test scale the two
        can land within noise of each other, so we pin near-parity.
        """
        by_system = {row["system"]: row for row in result.rows}
        update = by_system["hints+update-push"]["efficiency"]
        push_all = by_system["hints+push-all"]["efficiency"]
        assert update > push_all * 0.7

    def test_aggressiveness_reduces_efficiency(self, result):
        """Paper: more aggressive push wastes more of what it sends.

        The strict push-1 >= push-half >= push-all ordering is a
        full-scale property (``benchmarks/test_bench_figure11.py``); at
        this tiny scale push-half (now ceil(n/2) targets, per the paper's
        "half of the nodes") lands within noise of push-1, so we pin both
        strictly above push-all and the pair within noise of each other.
        """
        by_system = {row["system"]: row for row in result.rows}
        push1 = by_system["hints+push-1"]["efficiency"]
        push_half = by_system["hints+push-half"]["efficiency"]
        push_all = by_system["hints+push-all"]["efficiency"]
        assert push1 >= push_all
        assert push_half >= push_all
        assert push1 == pytest.approx(push_half, rel=0.1)

    def test_aggressiveness_increases_bandwidth(self, result):
        by_system = {row["system"]: row for row in result.rows}
        assert (
            by_system["hints+push-all"]["push_bw_bytes_per_s"]
            > by_system["hints+push-1"]["push_bw_bytes_per_s"]
        )

    def test_pushed_bytes_account(self, result):
        for row in result.rows:
            assert row["used_mb"] <= row["pushed_mb"] + 1e-9

    def test_cost_names_resolve_like_cost_model_by_name(self):
        """Any casing of a known name; a clear error for an unknown one."""
        config = make_tiny_config()
        upper = figure11.run(config, cost_name="MAX")
        assert upper.rows == figure11.run(config, cost_name="max").rows
        with pytest.raises(ValueError, match="unknown cost model"):
            figure11.run(config, cost_name="median")
