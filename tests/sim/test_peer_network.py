"""Tests for peer state and the population index."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn.profiles import DURABLE, ERRATIC
from repro.sim.network import Population, SampleableSet
from repro.sim.peer import Peer


class TestPeer:
    def test_age_grows_with_rounds(self):
        peer = Peer(1, ERRATIC, join_round=100)
        assert peer.age(100) == 0
        assert peer.age(150) == 50

    def test_age_never_negative(self):
        peer = Peer(1, ERRATIC, join_round=100)
        assert peer.age(50) == 0

    def test_observer_age_is_pinned(self):
        observer = Peer(1, DURABLE, join_round=0, is_observer=True, fixed_age=24)
        assert observer.age(0) == 24
        assert observer.age(10_000) == 24

    def test_quota_accounting(self):
        peer = Peer(1, DURABLE, join_round=0)
        assert peer.has_free_quota(2)
        peer.hosted.add(10)
        peer.hosted.add(11)
        assert not peer.has_free_quota(2)
        assert peer.stored_blocks() == 2

    def test_observer_blocks_do_not_count(self):
        peer = Peer(1, DURABLE, join_round=0)
        peer.hosted_free.add(99)
        assert peer.stored_blocks() == 0
        assert peer.has_free_quota(1)

    def test_remaining_lifetime(self):
        peer = Peer(1, ERRATIC, join_round=0, death_round=500)
        assert peer.remaining_lifetime(100) == 400
        assert peer.remaining_lifetime(600) == 0

    def test_remaining_lifetime_durable(self):
        peer = Peer(1, DURABLE, join_round=0, death_round=None)
        assert math.isinf(peer.remaining_lifetime(100))

    def test_uptime_accounting(self):
        peer = Peer(1, ERRATIC, join_round=0)
        peer.accumulate_uptime(10)      # online 0..10
        peer.online = False
        peer.accumulate_uptime(30)      # offline 10..30 (no-op: already folded)
        assert peer.online_rounds == 10
        assert peer.measured_availability(30) == pytest.approx(10 / 30)

    def test_measured_availability_includes_current_session(self):
        peer = Peer(1, ERRATIC, join_round=0)
        # Still online, never toggled: availability is 1 so far.
        assert peer.measured_availability(100) == 1.0

    def test_measured_availability_brand_new(self):
        peer = Peer(1, ERRATIC, join_round=50)
        assert peer.measured_availability(50) is None


class TestSampleableSet:
    def test_add_and_contains(self):
        s = SampleableSet()
        s.add(5)
        assert 5 in s
        assert len(s) == 1

    def test_add_idempotent(self):
        s = SampleableSet()
        s.add(5)
        s.add(5)
        assert len(s) == 1

    def test_discard(self):
        s = SampleableSet()
        for item in range(10):
            s.add(item)
        s.discard(3)
        assert 3 not in s
        assert len(s) == 9
        s.discard(3)  # idempotent
        assert len(s) == 9

    def test_sample_returns_member(self):
        s = SampleableSet()
        for item in (10, 20, 30):
            s.add(item)
        uniforms = np.random.default_rng(0).random(20).tolist()
        assert set(s.sample_chunk(uniforms)) <= {10, 20, 30}

    def test_sample_is_roughly_uniform(self):
        s = SampleableSet()
        for item in range(5):
            s.add(item)
        uniforms = np.random.default_rng(0).random(10_000).tolist()
        counts = {i: 0 for i in range(5)}
        for item in s.sample_chunk(uniforms):
            counts[item] += 1
        for count in counts.values():
            assert count == pytest.approx(2000, rel=0.15)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 30)), max_size=60))
    def test_matches_reference_set(self, operations):
        """Stateful property: behaves exactly like a built-in set."""
        s = SampleableSet()
        reference = set()
        for add, item in operations:
            if add:
                s.add(item)
                reference.add(item)
            else:
                s.discard(item)
                reference.discard(item)
        assert len(s) == len(reference)
        assert set(iter(s)) == reference
        for item in range(31):
            assert (item in s) == (item in reference)


class TestPopulation:
    def make_peer(self, population, online=True, observer=False):
        peer = Peer(
            population.new_id(),
            DURABLE,
            join_round=0,
            is_observer=observer,
            fixed_age=0 if observer else None,
        )
        peer.online = online
        population.insert(peer)
        return peer

    def test_insert_and_lookup(self):
        population = Population()
        peer = self.make_peer(population)
        assert population.get(peer.peer_id) is peer
        assert len(population) == 1

    def test_duplicate_id_rejected(self):
        population = Population()
        peer = self.make_peer(population)
        with pytest.raises(ValueError):
            population.insert(peer)

    def test_online_peers_are_candidates(self):
        population = Population()
        peer = self.make_peer(population)
        assert peer.peer_id in population.online_candidates

    def test_observers_never_candidates(self):
        population = Population()
        observer = self.make_peer(population, observer=True)
        assert observer.peer_id not in population.online_candidates
        assert len(population) == 0  # observers aren't counted

    def test_offline_toggle_updates_index(self):
        population = Population()
        peer = self.make_peer(population)
        population.mark_offline(peer)
        assert peer.peer_id not in population.online_candidates
        population.mark_online(peer)
        assert peer.peer_id in population.online_candidates

    def test_remove_clears_everything(self):
        population = Population()
        peer = self.make_peer(population)
        population.remove(peer)
        assert not peer.alive
        assert not peer.online
        assert peer.peer_id not in population.online_candidates
        assert len(population) == 0

    def test_dead_peer_not_marked_online(self):
        population = Population()
        peer = self.make_peer(population)
        population.remove(peer)
        population.mark_online(peer)
        assert peer.peer_id not in population.online_candidates

    def test_iterators(self):
        population = Population()
        normal = self.make_peer(population)
        observer = self.make_peer(population, observer=True)
        assert [p.peer_id for p in population.alive_normal_peers()] == [
            normal.peer_id
        ]
        assert [p.peer_id for p in population.observers()] == [observer.peer_id]
