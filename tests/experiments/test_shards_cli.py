"""The ``--shards`` flag on the ``decompose``/``timeline`` verbs."""

from __future__ import annotations

import pytest

from repro.experiments.cli import main


def test_shard_count_leaves_timeline_bytes_unchanged(tmp_path):
    one, two = tmp_path / "A.jsonl", tmp_path / "B.jsonl"
    base = ["timeline", "--scale", "0.0002"]
    assert main([*base, "--shards", "1", "--timeline", str(one)]) == 0
    assert main([*base, "--shards", "2", "--jobs", "2", "--timeline", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


class TestGuards:
    def test_zero_shards(self):
        assert main(["decompose", "--scale", "0.0002", "--shards", "0"]) == 2

    def test_shards_on_a_paper_experiment(self):
        assert main(["figure1", "--shards", "2"]) == 2

    def test_journeys_with_shards(self, tmp_path):
        journeys = str(tmp_path / "journeys.jsonl")
        assert main(["decompose", "--shards", "2", "--journeys", journeys]) == 2

    def test_prometheus_with_shards(self, tmp_path):
        prom = str(tmp_path / "metrics.prom")
        assert main(["timeline", "--shards", "2", "--prometheus", prom]) == 2

    def test_no_lag_window_option(self):
        # argparse accepts any unambiguous prefix of an option, so an
        # unknown-argument exit for '--clock' shows that no '--clock...'
        # option (the former lag window) is left.
        with pytest.raises(SystemExit) as exit_info:
            main(["timeline", "--shards", "2", "--clock", "60"])
        assert exit_info.value.code == 2

    def test_no_virtual_partitions_option(self):
        # Every accepted sharded run equals the unsharded one, so the
        # partition count has nothing left to choose.
        with pytest.raises(SystemExit) as exit_info:
            main(["timeline", "--shards", "2", "--virtual-partitions", "8"])
        assert exit_info.value.code == 2


@pytest.mark.parametrize("verb", ["decompose", "timeline"])
def test_policy_with_shards_is_refused(verb, tmp_path, capsys):
    """Bounded caches do not shard exactly: exit 2, the reason, no file."""
    out = tmp_path / "refused.jsonl"
    argv = [verb, "--scale", "0.0002", "--policy", "lfu", "--shards", "2"]
    if verb == "timeline":
        argv += ["--timeline", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--shards: cannot shard 'hierarchy' exactly: a bounded L1 cache" in err
    assert list(tmp_path.iterdir()) == []
