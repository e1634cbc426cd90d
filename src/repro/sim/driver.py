"""The shared round-driving skeleton behind every fidelity backend.

:class:`SimulationDriver` owns everything that makes two fidelities of
the same scenario comparable: the calendar event queue, churn arrivals
and deaths, session toggles, the named RNG streams, the metrics
surface, partner-pool construction (selection strategy + mutual
acceptance) and the consistency audit.  What it deliberately does *not*
decide is how repairs, placements and restores execute — those are the
fidelity axis, supplied by subclasses registered in
:mod:`repro.sim.fidelity`:

* :class:`repro.sim.engine.Simulation` (``abstract``) executes them as
  instantaneous state flips — the fast path behind the figures;
* :class:`repro.sim.protocol.ProtocolSimulation` (``protocol``)
  executes them as real message exchanges gated by the bandwidth model.

Because the driver draws churn, sessions and recruitment from the same
seeded streams regardless of backend, two fidelities of one config
share their churn trajectory, and same-seed runs of either backend are
byte-identical after serialization.

The engine is event-driven internally (a peer only executes when
something it must react to happens) but semantically round-based: every
event carries the round it fires in, ties are broken uniformly at
random, and repairs triggered in round ``t`` execute in round ``t + 1``,
matching the paper's "each round, every peer monitors its partners"
loop without the O(population x rounds) scan.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..churn.availability import geometric_duration, session_duration_params
from ..churn.lifetimes import from_profile
from ..churn.profiles import Profile
from ..core.acceptance import (
    AcceptancePolicy,
    UniformAcceptancePolicy,
    acceptance_rule,
)
from ..core.adaptive import AdaptiveThreshold
from ..core.policy import RepairPolicy
from ..core.selection import Candidate, SelectionStrategy, strategy_by_name
from .config import SimulationConfig
from .events import Event, EventKind, EventQueue
from .metrics import MetricsCollector
from .network import Population
from .observers import build_observer_peer
from .peer import Peer
from .rng import (
    GEOMETRIC_SCALAR_LIMIT,
    RngStreams,
    geometric_from_uniforms,
    geometric_from_uniforms_scalar,
    pool_chunk_size,
)


class SimulationDriver:
    """Round/event skeleton shared by all fidelity backends.

    Subclasses implement the execution trio — :meth:`_run_placement`,
    :meth:`_run_repair`, :meth:`_handle_top_up` — and may override the
    lifecycle hooks (``_on_peer_spawned`` / ``_on_peer_departed`` /
    ``_on_session_flip`` / ``_sample_extras``) and contribute extra
    event handlers via :meth:`_extra_dispatch`.
    """

    #: The registered fidelity name (informational; dispatch happens
    #: through ``repro.sim.fidelity.FIDELITY_BACKENDS``).
    fidelity = "abstract"

    def __init__(self, config: SimulationConfig):
        self.config = config
        self.policy: RepairPolicy = config.policy()
        self.acceptance = acceptance_rule(config.acceptance_rule, config.age_cap)
        self.strategy: SelectionStrategy = strategy_by_name(config.selection_strategy)
        self.rng = RngStreams(config.seed)
        self.queue = EventQueue(self.rng.ordering)
        self.population = Population()
        self.metrics = MetricsCollector(config.categories, config.warmup_rounds)
        self.round = 0
        # Per-profile session constants (shared with the SoA backend via
        # session_duration_params, so batch-drawn durations stay
        # bit-identical across fidelities) replace the per-peer
        # SessionProcess objects of earlier releases: the peer's current
        # ``online`` flag plus these constants fully determine the next
        # duration draw.
        self._profile_index = {id(p): i for i, p in enumerate(config.profiles)}
        self._session_params = [
            session_duration_params(p.availability, p.mean_online_session)
            for p in config.profiles
        ]
        self._session_draws = self.rng.batched("sessions")
        self._profile_weights = [p.proportion for p in config.profiles]
        self.peers_created = 0
        self.deaths = 0
        # Strategies declare their candidate-data needs (registry-based
        # extension point: third-party strategies get the same service).
        self._needs_oracle = bool(getattr(self.strategy, "needs_oracle", False))
        self._needs_availability = bool(
            getattr(self.strategy, "needs_availability", False)
        )
        # Hot-path state: with no declared data needs the recruitment
        # loop works on plain (peer_id, age) pairs instead of Candidate
        # objects, and the built-in acceptance rules are inlined rather
        # than dispatched per candidate.  Exact type checks: a subclass
        # may override decide() and must keep the generic path.
        self._fast_candidates = not (self._needs_oracle or self._needs_availability)
        if type(self.acceptance) is AcceptancePolicy:
            self._acceptance_kind = "age"
        elif type(self.acceptance) is UniformAcceptancePolicy:
            self._acceptance_kind = "uniform"
        else:
            self._acceptance_kind = "custom"
        self._repair_threshold = self.policy.repair_threshold
        self._selection_draws = self.rng.batched("selection")
        self._acceptance_draws = self.rng.batched("acceptance")
        self._setup()

    # ------------------------------------------------------------------
    # Backend hooks (no-ops at abstract fidelity)
    # ------------------------------------------------------------------
    def _on_peer_spawned(self, peer: Peer) -> None:
        """A normal peer joined and is fully wired into the engine."""

    def _on_peer_departed(self, peer: Peer, now: int) -> None:
        """A peer left definitively; engine-side teardown is complete."""

    def _on_session_flip(self, peer: Peer, now: int) -> None:
        """A peer's online/offline state changed (already propagated)."""

    def _sample_extras(self, now: int) -> None:
        """Extend the periodic metrics census with backend-specific data."""

    def _extra_dispatch(self) -> Dict[EventKind, Callable]:
        """Additional ``EventKind -> handler(now, event)`` entries."""
        return {}

    # ------------------------------------------------------------------
    # Execution trio (the fidelity axis)
    # ------------------------------------------------------------------
    def _run_placement(self, owner: Peer, now: int) -> None:
        """Upload blocks until all n are placed (the initial d = n repair)."""
        raise NotImplementedError

    def _run_repair(self, owner: Peer, now: int) -> None:
        """Decode-and-reupload repair (paper section 2.2.3)."""
        raise NotImplementedError

    def _handle_top_up(self, now: int, peer: Peer) -> None:
        """Proactive-replication tick (baseline A4): keep holders at n."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _setup(self) -> None:
        config = self.config
        for _ in range(config.population):
            if config.staggered_join_rounds:
                join_round = int(
                    self.rng.placement.integers(config.staggered_join_rounds)
                )
            else:
                join_round = 0
            self.queue.schedule(join_round, Event(EventKind.JOIN))
        for spec in config.observers:
            observer = build_observer_peer(self.population.new_id(), spec, 0)
            if config.adaptive_thresholds:
                observer.adaptive = AdaptiveThreshold(self.policy)
            self.population.insert(observer)
            self._schedule_check(observer, 0)
        self.queue.schedule(0, Event(EventKind.SAMPLE))

    def _draw_profile(self) -> Profile:
        index = int(
            self.rng.profiles.choice(len(self.config.profiles), p=self._profile_weights)
        )
        return self.config.profiles[index]

    def _spawn_peer(self, join_round: int) -> Peer:
        profile = self._draw_profile()
        lifetime = from_profile(profile).sample(self.rng.lifetimes)
        death_round: Optional[int] = None
        if not math.isinf(lifetime):
            death_round = join_round + max(int(lifetime), 1)
        peer = Peer(
            peer_id=self.population.new_id(),
            profile=profile,
            join_round=join_round,
            death_round=death_round,
        )
        self.population.insert(peer)
        self.peers_created += 1
        if self.config.adaptive_thresholds:
            peer.adaptive = AdaptiveThreshold(self.policy)
        if death_round is not None:
            self.queue.schedule(death_round, Event(EventKind.DEATH, peer.peer_id))
        self._on_peer_spawned(peer)
        self._schedule_toggle(peer, join_round)
        self._schedule_check(peer, join_round)
        if self.config.proactive_rate > 0:
            self._schedule_top_up(peer, join_round)
        return peer

    # ------------------------------------------------------------------
    # Scheduling helpers
    # ------------------------------------------------------------------
    def _schedule_toggle(self, peer: Peer, now: int) -> None:
        """File a fresh peer's first toggle (spawn-time, scalar draw).

        Subsequent toggles are rescheduled in bulk by
        :meth:`_process_toggle_batch`; only the spawn draw stays scalar,
        on the same ``sessions`` generator the batch refills come from,
        so the stream interleaves identically in every backend.
        """
        if self._session_params[self._profile_index[id(peer.profile)]][0]:
            return  # always online: no session process
        duration = geometric_duration(
            self.rng.sessions, peer.profile.mean_online_session
        )
        self.queue.schedule_toggle(now + duration, peer.peer_id)

    def _schedule_check(self, peer: Peer, when: int) -> None:
        """Queue a repair/placement check, deduplicating pending ones.

        A check pending for a *later* round is cancelled and replaced:
        a block loss wanting a check next round must not be swallowed by
        a retry sitting further in the future, or the archive would sit
        unmonitored below threshold until that retry fires.
        """
        scheduled = peer.check_scheduled
        if scheduled is not None:
            if when >= scheduled:
                return
            self.queue.cancel(peer.check_handle)
        peer.check_scheduled = when
        peer.check_handle = self.queue.schedule(
            when, Event(EventKind.REPAIR_CHECK, peer.peer_id)
        )

    def _schedule_top_up(self, peer: Peer, now: int) -> None:
        interval = max(int(round(1.0 / self.config.proactive_rate)), 1)
        self.queue.schedule(now + interval, Event(EventKind.TOP_UP, peer.peer_id))

    # ------------------------------------------------------------------
    # Holder/owner mutation helpers (the only places links change)
    # ------------------------------------------------------------------
    def _add_holder(self, owner: Peer, holder: Peer) -> None:
        archive = owner.archive
        archive.holders[holder.peer_id] = None
        archive.visible += 1
        archive.alive += 1
        if owner.is_observer:
            holder.hosted_free.add(owner.peer_id)
        else:
            holder.hosted.add(owner.peer_id)

    def _drop_holder(self, owner: Peer, holder: Peer) -> None:
        """Owner abandons a holder (repair replacement or post-loss reset)."""
        archive = owner.archive
        invisible_since = archive.holders.pop(holder.peer_id)
        if holder.alive:
            archive.alive -= 1
            if invisible_since is None:
                archive.visible -= 1
        if owner.is_observer:
            holder.hosted_free.discard(owner.peer_id)
        else:
            holder.hosted.discard(owner.peer_id)

    def _release_all_holders(self, owner: Peer) -> None:
        for holder_id in list(owner.archive.holders):
            self._drop_holder(owner, self.population.get(holder_id))

    def _needs_repair(self, owner: Peer, visible: int) -> bool:
        """Threshold test, honouring a per-peer adaptive controller (A5)."""
        adaptive = owner.adaptive
        if adaptive is not None:
            return adaptive.needs_repair(visible)
        return visible < self._repair_threshold

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _handle_join(self, now: int) -> None:
        self._spawn_peer(now)

    def _handle_death(self, now: int, peer: Peer) -> None:
        if not peer.alive or peer.is_observer:
            return
        self.deaths += 1
        peer.accumulate_uptime(now)
        self.population.remove(peer)
        peer_id = peer.peer_id
        peers = self.population.peers

        # The departed peer's own blocks disappear from its partners.
        for holder_id in peer.archive.holders:
            peers[holder_id].hosted.discard(peer_id)
        peer.archive.holders.clear()

        # Blocks it hosted for others vanish "immediately" (section 4.1):
        # detach every link first, then evaluate loss/threshold once per
        # surviving owner, so the owner sets are iterated zero-copy and
        # each owner's check runs against its final post-death counters.
        affected: List[Peer] = []
        for owner_id in chain(peer.hosted, peer.hosted_free):
            owner = peers[owner_id]
            if not owner.alive:
                continue
            archive = owner.archive
            invisible_since = archive.holders.pop(peer_id, None)
            archive.alive -= 1
            if invisible_since is None:
                # A None timestamp means the holder was visible (online).
                archive.visible -= 1
            affected.append(owner)
        peer.hosted.clear()
        peer.hosted_free.clear()
        self._on_peer_departed(peer, now)
        for owner in affected:
            self._after_block_loss(owner, now)

        # Immediate replacement by a fresh peer (section 4.1).
        self.queue.schedule(now, Event(EventKind.JOIN))

    def _after_block_loss(self, owner: Peer, now: int) -> None:
        """React to a permanent block disappearance on ``owner``'s archive."""
        archive = owner.archive
        if archive.placed and self.policy.is_lost(archive.alive):
            self._record_loss(owner, now)
            return
        if archive.placed and self._needs_repair(owner, archive.visible):
            self._schedule_check(owner, now + 1)

    def _record_loss(self, owner: Peer, now: int) -> None:
        archive = owner.archive
        archive.lost_count += 1
        self.metrics.record_loss(now, owner.age(now), owner.observer_name)
        self._release_all_holders(owner)
        archive.reset()
        # The user still has local data to back up again: a fresh
        # placement follows (next round at the earliest).
        self._schedule_check(owner, now + 1)

    def _process_toggle_batch(self, now: int, peer_ids: np.ndarray) -> None:
        """Flip every session toggling this round in one batched pass.

        The queue hands over the round's whole toggle bucket (sorted
        ascending by peer id) and the kernel runs six fixed passes:
        filter dead peers, flip states, fan the visibility change out to
        owners, threshold-check affected owners against their *final*
        visible count, self-service checks for peers coming online, and
        one bulk duration draw for the reschedules.  The SoA backend
        implements the identical passes over its columns, which is what
        keeps the two fidelities metric-identical per seed.
        """
        peers = self.population.peers
        batch: List[Peer] = []
        for peer_id in peer_ids.tolist():
            peer = peers[peer_id]
            if peer.alive:
                batch.append(peer)
        if not batch:
            return
        going_offline: List[Peer] = []
        coming_online: List[Peer] = []
        for peer in batch:
            peer.accumulate_uptime(now)
            if peer.online:
                peer.online = False
                self.population.mark_offline(peer)
                going_offline.append(peer)
            else:
                peer.online = True
                self.population.mark_online(peer)
                coming_online.append(peer)
        # Visibility fan-out: owners see disappearances first, then
        # reappearances; repair decisions below read the net result.
        affected: Dict[int, Peer] = {}
        for holder in going_offline:
            holder_id = holder.peer_id
            for owner_id in chain(holder.hosted, holder.hosted_free):
                owner = peers[owner_id]
                if not owner.alive:
                    continue
                archive = owner.archive
                if holder_id not in archive.holders:
                    continue
                archive.holders[holder_id] = now
                archive.visible -= 1
                affected[owner_id] = owner
        for holder in coming_online:
            holder_id = holder.peer_id
            for owner_id in chain(holder.hosted, holder.hosted_free):
                owner = peers[owner_id]
                if not owner.alive:
                    continue
                archive = owner.archive
                if holder_id not in archive.holders:
                    continue
                archive.holders[holder_id] = None
                archive.visible += 1
        threshold = self._repair_threshold
        for owner_id in sorted(affected):
            owner = affected[owner_id]
            archive = owner.archive
            if not archive.placed:
                continue
            adaptive = owner.adaptive
            if (
                adaptive.needs_repair(archive.visible)
                if adaptive is not None
                else archive.visible < threshold
            ):
                self._schedule_check(owner, now + 1)
        for peer in batch:
            if peer.online:
                if peer.pending_check:
                    peer.pending_check = False
                    self._schedule_check(peer, now)
                archive = peer.archive
                if archive.placed and self._needs_repair(peer, archive.visible):
                    self._schedule_check(peer, now)
            self._on_session_flip(peer, now)
        # Bulk reschedule: one uniform per non-degenerate duration, in
        # batch (ascending id) order, inverted through the shared
        # geometric kernel.  Means <= 1 round clamp to a single round
        # without consuming a draw, mirroring geometric_duration.
        params = self._session_params
        index = self._profile_index
        need_ids: List[int] = []
        need_log: List[float] = []
        ones_ids: List[int] = []
        for peer in batch:
            always_online, online_log, offline_log = params[index[id(peer.profile)]]
            if always_online:
                continue
            log1mp = online_log if peer.online else offline_log
            if log1mp == log1mp:  # not NaN: a real geometric draw
                need_ids.append(peer.peer_id)
                need_log.append(log1mp)
            else:
                ones_ids.append(peer.peer_id)
        count = len(need_ids)
        if count:
            if count < GEOMETRIC_SCALAR_LIMIT:
                uniforms = self._session_draws.take(count)
                schedule_toggle = self.queue.schedule_toggle
                for peer_id, duration in zip(
                    need_ids, geometric_from_uniforms_scalar(uniforms, need_log)
                ):
                    schedule_toggle(now + duration, peer_id)
            else:
                uniforms = self._session_draws.take_array(count)
                durations = geometric_from_uniforms(uniforms, np.array(need_log))
                self.queue.schedule_toggle_batch(
                    now + durations, np.array(need_ids, dtype=np.int64)
                )
        for peer_id in ones_ids:
            self.queue.schedule_toggle(now + 1, peer_id)

    def _handle_check(self, now: int, peer: Peer) -> None:
        peer.check_scheduled = None
        peer.check_handle = None
        if not peer.alive:
            return
        if not peer.online:
            peer.pending_check = True
            return
        archive = peer.archive
        if not archive.placed:
            self._run_placement(peer, now)
            return
        if self.policy.is_lost(archive.alive):
            self._record_loss(peer, now)
            return
        if not self._needs_repair(peer, archive.visible):
            if not archive.fully_placed:
                # The initial upload of n blocks has not completed yet
                # (section 3.2: it is one operation that may span rounds
                # when the network is young or partners are scarce).
                # Once it completes, maintenance is threshold-only.
                self._run_placement(peer, now)
            return
        if not self.policy.can_decode(archive.visible):
            archive.blocked_count += 1
            if peer.adaptive is not None:
                peer.adaptive.on_blocked(now)
            self.metrics.record_blocked(now, peer.age(now), peer.observer_name)
            self._schedule_check(peer, now + 1)
            return
        self._run_repair(peer, now)

    # ------------------------------------------------------------------
    # Partner recruitment (pool + mutual acceptance + strategy)
    # ------------------------------------------------------------------
    def _fill_pool(
        self, owner: Peer, now: int, target_size: int, max_examined: int
    ) -> List[Tuple[int, int]]:
        """Fused candidate sampling and mutual acceptance (section 3.2).

        Draws are consumed in *chunks* rather than one at a time: each
        pass takes ``chunk_size`` selection uniforms up front, filters
        the sampled candidates (first occurrence only, not the owner,
        not already a holder, quota not exhausted), then consumes
        exactly two acceptance uniforms per filtered candidate —
        unconditionally, even when the owner's own draw already
        rejected.  Chunked consumption makes the draw count a pure
        function of the chunk's content, which is what lets the SoA
        backend (:mod:`repro.sim.engine_soa`) evaluate whole chunks as
        numpy array operations while replaying the identical stream.
        The chunk is sized so one pass almost always fills the pool;
        candidate *evaluation* (and the ``examined`` count) stops at
        the candidate that fills it, so the reported pool statistics
        stay one-at-a-time semantics even though draw consumption is
        chunk-granular.  The loop bounds are re-checked only between
        chunks.

        The pool is a list of ``(peer_id, age)`` pairs.
        """
        population = self.population
        peers = population.peers
        online = population.online_candidates
        selection = self._selection_draws
        acceptance = self._acceptance_draws
        seen = set()
        accepted: List[Tuple[int, int]] = []
        examined = 0
        if online:
            sample_budget = 8 * len(online) + 64
            owner_id = owner.peer_id
            owner_age = owner.age(now)
            holders = owner.archive.holders
            check_quota = not owner.is_observer
            quota = self.config.quota
            rule = self._acceptance_kind
            if rule == "age":
                cap = self.acceptance.age_cap
                s_owner = owner_age if owner_age < cap else cap
            while (
                sample_budget > 0
                and examined < max_examined
                and len(accepted) < target_size
            ):
                chunk_size = pool_chunk_size(target_size - len(accepted))
                if chunk_size > sample_budget:
                    chunk_size = sample_budget
                sample_budget -= chunk_size
                chunk = online.sample_chunk(selection.take(chunk_size))
                fresh: List[int] = []
                for candidate_id in chunk:
                    if candidate_id in seen:
                        continue
                    seen.add(candidate_id)
                    if candidate_id == owner_id or candidate_id in holders:
                        continue
                    if check_quota and len(peers[candidate_id].hosted) >= quota:
                        continue
                    fresh.append(candidate_id)
                pairs = (
                    acceptance.take(2 * len(fresh))
                    if rule != "uniform"
                    else ()
                )
                for position, candidate_id in enumerate(fresh):
                    if len(accepted) >= target_size:
                        break
                    examined += 1
                    # Candidates are never observers.
                    age = now - peers[candidate_id].join_round
                    if rule == "age":
                        # Inlined AcceptancePolicy: accept iff
                        # u < (L - s1 + s2 + 1)/L (min(p, 1) is free, u < 1).
                        s_cand = age if age < cap else cap
                        if pairs[2 * position] * cap >= cap - s_owner + s_cand + 1:
                            continue  # owner rejects
                        if pairs[2 * position + 1] * cap >= cap - s_cand + s_owner + 1:
                            continue  # candidate rejects
                    elif rule != "uniform":
                        decide = self.acceptance.decide
                        if not decide(owner_age, age, pairs[2 * position]):
                            continue
                        if not decide(age, owner_age, pairs[2 * position + 1]):
                            continue
                    accepted.append((candidate_id, age))
        self.metrics.record_pool(examined, len(accepted))
        return accepted

    def _describe_candidate(self, candidate: Peer) -> Candidate:
        availability = None
        remaining = None
        if self._needs_availability:
            availability = candidate.measured_availability(self.round)
        if self._needs_oracle:
            remaining = candidate.remaining_lifetime(self.round)
        return Candidate(
            peer_id=candidate.peer_id,
            age=candidate.age(self.round),
            availability=availability,
            true_remaining_lifetime=remaining,
        )

    def _select_candidates(self, owner: Peer, now: int, needed: int) -> List[int]:
        """Pool-build then strategy-select the best ``needed`` partner ids.

        This is the backend-independent half of recruitment: both the
        abstract engine (which then flips counters) and the protocol
        backend (which then sends real store requests) consult the same
        selection strategy and acceptance rule here, drawing from the
        same RNG streams.
        """
        pool_target = int(math.ceil(self.config.pool_factor * needed))
        max_examined = int(self.config.max_examined_factor * needed) + 16
        pool = self._fill_pool(owner, now, pool_target, max_examined)
        if self._fast_candidates:
            return self.strategy.select_pairs(pool, needed, self.rng.selection)
        peers = self.population.peers
        candidates = [self._describe_candidate(peers[peer_id]) for peer_id, _ in pool]
        return self.strategy.select(candidates, needed, self.rng.selection)

    def _handle_sample(self, now: int) -> None:
        ages = [peer.age(now) for peer in self.population.alive_normal_peers()]
        self.metrics.sample(now, ages, self.config.sample_interval)
        self._sample_extras(now)
        upcoming = now + self.config.sample_interval
        if upcoming <= self.config.rounds:
            self.queue.schedule(upcoming, Event(EventKind.SAMPLE))

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self):
        """Execute the configured number of rounds and return the result."""
        import time

        from .engine import SimulationResult

        started = time.perf_counter()
        dispatch = {
            EventKind.JOIN: lambda now, event: self._handle_join(now),
            EventKind.DEATH: lambda now, event: self._handle_death(
                now, self.population.get(event.peer_id)
            ),
            EventKind.TOGGLE_BATCH: lambda now, event: self._process_toggle_batch(
                now, self.queue.pop_round_batch()
            ),
            EventKind.REPAIR_CHECK: lambda now, event: self._handle_check(
                now, self.population.get(event.peer_id)
            ),
            EventKind.SAMPLE: lambda now, event: self._handle_sample(now),
            EventKind.TOP_UP: lambda now, event: self._handle_top_up(
                now, self.population.get(event.peer_id)
            ),
        }
        dispatch.update(self._extra_dispatch())
        for now, event in self.queue.drain_until(self.config.rounds):
            self.round = now
            handler = dispatch[event.kind]
            handler(now, event)
        self._finalize(self.config.rounds)
        elapsed = time.perf_counter() - started
        return SimulationResult(
            config=self.config,
            metrics=self.metrics,
            final_round=self.config.rounds,
            wall_clock_seconds=elapsed,
            peers_created=self.peers_created,
            deaths=self.deaths,
        )

    def _finalize(self, final_round: int) -> None:
        """Backend hook run after the last event, before result assembly."""

    # ------------------------------------------------------------------
    # Consistency audit (used by integration and property tests)
    # ------------------------------------------------------------------
    def audit(self) -> List[str]:
        """Recompute all incremental state from scratch; return violations."""
        problems: List[str] = []
        for peer in self.population.peers.values():
            if not peer.alive:
                continue
            archive = peer.archive
            visible = alive = 0
            for holder_id, invisible_since in archive.holders.items():
                holder = self.population.peers.get(holder_id)
                if holder is None or not holder.alive:
                    problems.append(
                        f"peer {peer.peer_id}: holder {holder_id} is dead or unknown"
                    )
                    continue
                alive += 1
                if holder.online:
                    if invisible_since is not None:
                        problems.append(
                            f"peer {peer.peer_id}: holder {holder_id} online "
                            "but marked invisible"
                        )
                    visible += 1
                mirror = holder.hosted_free if peer.is_observer else holder.hosted
                if peer.peer_id not in mirror:
                    problems.append(
                        f"peer {peer.peer_id}: holder {holder_id} misses back-link"
                    )
            if visible != archive.visible:
                problems.append(
                    f"peer {peer.peer_id}: visible counter {archive.visible} != "
                    f"recount {visible}"
                )
            if alive != archive.alive:
                problems.append(
                    f"peer {peer.peer_id}: alive counter {archive.alive} != "
                    f"recount {alive}"
                )
            if len(peer.hosted) > self.config.quota:
                problems.append(
                    f"peer {peer.peer_id}: quota exceeded "
                    f"({len(peer.hosted)} > {self.config.quota})"
                )
            for owner_id in peer.hosted | peer.hosted_free:
                owner = self.population.peers.get(owner_id)
                if owner is None or not owner.alive:
                    problems.append(
                        f"peer {peer.peer_id}: hosts for dead owner {owner_id}"
                    )
                elif peer.peer_id not in owner.archive.holders:
                    problems.append(
                        f"peer {peer.peer_id}: hosts for {owner_id} without "
                        "forward link"
                    )
        return problems
