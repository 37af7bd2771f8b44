"""Tests for the Figure 2 miss taxonomy."""

from __future__ import annotations

import pytest

from repro.cache.classify import AccessOutcome, MissClass, MissClassifier
from repro.cache.lru import LRUCache
from repro.traces.records import Request


def make_request(obj=1, version=0, size=100, time=0.0, **kw):
    return Request(
        time=time, client_id=0, object_id=obj, size=size, version=version, **kw
    )


@pytest.fixture()
def classifier():
    return MissClassifier(LRUCache(1000))


class TestClassification:
    def test_first_access_is_compulsory(self, classifier):
        outcome = classifier.access(make_request())
        assert outcome.miss_class is MissClass.COMPULSORY

    def test_second_access_is_hit(self, classifier):
        classifier.access(make_request())
        assert classifier.access(make_request()).hit

    def test_updated_object_is_communication_miss(self, classifier):
        classifier.access(make_request(version=0))
        outcome = classifier.access(make_request(version=1))
        assert outcome.miss_class is MissClass.COMMUNICATION

    def test_evicted_object_is_capacity_miss(self):
        classifier = MissClassifier(LRUCache(150))
        classifier.access(make_request(obj=1))
        classifier.access(make_request(obj=2))  # evicts 1
        outcome = classifier.access(make_request(obj=1))
        assert outcome.miss_class is MissClass.CAPACITY

    def test_evicted_and_updated_counts_as_communication(self):
        # The evicted copy would have been invalidated anyway.
        classifier = MissClassifier(LRUCache(150))
        classifier.access(make_request(obj=1, version=0))
        classifier.access(make_request(obj=2))
        outcome = classifier.access(make_request(obj=1, version=2))
        assert outcome.miss_class is MissClass.COMMUNICATION

    def test_error_request(self, classifier):
        outcome = classifier.access(make_request(error=True))
        assert outcome.miss_class is MissClass.ERROR

    def test_uncachable_request(self, classifier):
        outcome = classifier.access(make_request(cacheable=False))
        assert outcome.miss_class is MissClass.UNCACHABLE

    def test_uncachable_never_becomes_hit(self, classifier):
        classifier.access(make_request(cacheable=False))
        outcome = classifier.access(make_request(cacheable=False))
        assert outcome.miss_class is MissClass.UNCACHABLE

    def test_oversize_sighting_counts_as_stored(self):
        # The cache refuses the object, but the classifier saw it stored
        # at this version: the repeat is a capacity miss, not compulsory.
        classifier = MissClassifier(LRUCache(100))
        first = classifier.access(make_request(obj=1, size=500))
        assert first.miss_class is MissClass.COMPULSORY
        assert 1 not in classifier.cache
        outcome = classifier.access(make_request(obj=1, size=500))
        assert outcome.miss_class is MissClass.CAPACITY

    def test_capacity_miss_compares_the_highest_version_stored(self):
        # Version 2 is stored, then an older request stores version 1
        # after an eviction; version 2 is still the one ever stored, so a
        # later version-2 miss is a capacity miss, not a communication one.
        classifier = MissClassifier(LRUCache(150))
        classifier.access(make_request(obj=1, version=2))
        classifier.access(make_request(obj=2))  # evicts 1
        older = classifier.access(make_request(obj=1, version=1))
        assert older.miss_class is MissClass.CAPACITY
        classifier.access(make_request(obj=2))  # evicts 1 again
        outcome = classifier.access(make_request(obj=1, version=2))
        assert outcome.miss_class is MissClass.CAPACITY

    def test_oversize_update_records_its_version(self):
        # An update too large to cache invalidates the old copy; its
        # version still counts as stored, so repeating it is a capacity
        # miss rather than another communication miss.
        classifier = MissClassifier(LRUCache(100))
        classifier.access(make_request(obj=7, size=50, version=1))
        assert classifier.access(make_request(obj=7, size=50, version=1)).hit
        update = classifier.access(make_request(obj=7, size=200, version=2))
        assert update.miss_class is MissClass.COMMUNICATION
        assert 7 not in classifier.cache
        outcome = classifier.access(make_request(obj=7, size=200, version=2))
        assert outcome.miss_class is MissClass.CAPACITY


class TestCounts:
    def test_ratios(self, classifier):
        classifier.access(make_request(obj=1))  # compulsory
        classifier.access(make_request(obj=1))  # hit
        classifier.access(make_request(obj=2))  # compulsory
        counts = classifier.counts
        assert counts.total_requests == 3
        assert counts.miss_ratio() == pytest.approx(2 / 3)
        assert counts.miss_ratio(MissClass.COMPULSORY) == pytest.approx(2 / 3)
        assert counts.miss_ratio(MissClass.CAPACITY) == 0.0

    def test_byte_ratios_weighted_by_size(self, classifier):
        classifier.access(make_request(obj=1, size=100))  # compulsory, 100 B
        classifier.access(make_request(obj=1, size=100))  # hit, 100 B
        classifier.access(make_request(obj=2, size=300))  # compulsory, 300 B
        counts = classifier.counts
        assert counts.byte_miss_ratio() == pytest.approx(400 / 500)

    def test_empty_counts(self):
        counts = MissClassifier(LRUCache(10)).counts
        assert counts.miss_ratio() == 0.0
        assert counts.byte_miss_ratio() == 0.0


class TestOutcomeValidation:
    def test_hit_with_class_rejected(self):
        with pytest.raises(ValueError):
            AccessOutcome(hit=True, miss_class=MissClass.CAPACITY)

    def test_miss_without_class_rejected(self):
        with pytest.raises(ValueError):
            AccessOutcome(hit=False)
