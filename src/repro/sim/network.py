"""Population management: who exists, who is online, who can be sampled.

The engine needs two things fast: uniform random sampling of online
candidate partners (for pool building) and O(1) membership updates on
every session toggle and death.  :class:`SampleableSet` provides both
with the classic swap-pop/index-map construction.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from .peer import Peer


class SampleableSet:
    """A set of ints supporting O(1) add/remove/uniform-sample."""

    def __init__(self):
        self._items: List[int] = []
        self._index: Dict[int, int] = {}

    def add(self, item: int) -> None:
        """Insert (idempotent)."""
        if item in self._index:
            return
        self._index[item] = len(self._items)
        self._items.append(item)

    def discard(self, item: int) -> None:
        """Remove (idempotent) by swapping with the tail."""
        position = self._index.pop(item, None)
        if position is None:
            return
        tail = self._items.pop()
        if tail != item:
            self._items[position] = tail
            self._index[tail] = position

    def sample_chunk(self, uniforms: List[float]) -> List[int]:
        """One uniform element per entry of ``uniforms`` (with replacement).

        Used by the pool fill: ``int(u * n)``, clamped, one element per
        uniform, in order.  The caller guarantees the set is non-empty.
        """
        items = self._items
        n = len(items)
        result: List[int] = []
        append = result.append
        for u in uniforms:
            index = int(u * n)
            append(items[index if index < n else n - 1])
        return result

    def __contains__(self, item: int) -> bool:
        return item in self._index

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[int]:
        return iter(self._items)


class Population:
    """All peers of a run, plus the online candidate index.

    Observers live in ``peers`` like everyone else but are never added to
    the candidate index: the paper forbids other peers from choosing an
    observer as a partner.
    """

    def __init__(self):
        self.peers: Dict[int, Peer] = {}
        self.online_candidates = SampleableSet()
        self._next_id = 0
        self.alive_count = 0

    def new_id(self) -> int:
        """Allocate the next peer id."""
        allocated = self._next_id
        self._next_id += 1
        return allocated

    def insert(self, peer: Peer) -> None:
        """Register a freshly joined peer."""
        if peer.peer_id in self.peers:
            raise ValueError(f"duplicate peer id {peer.peer_id}")
        self.peers[peer.peer_id] = peer
        if not peer.is_observer:
            self.alive_count += 1
            if peer.online:
                self.online_candidates.add(peer.peer_id)

    def mark_online(self, peer: Peer) -> None:
        """Reflect a peer coming online in the candidate index."""
        if not peer.is_observer and peer.alive:
            self.online_candidates.add(peer.peer_id)

    def mark_offline(self, peer: Peer) -> None:
        """Reflect a peer going offline in the candidate index."""
        self.online_candidates.discard(peer.peer_id)

    def remove(self, peer: Peer) -> None:
        """A peer left the system definitively."""
        self.online_candidates.discard(peer.peer_id)
        if not peer.is_observer and peer.alive:
            self.alive_count -= 1
        peer.alive = False
        peer.online = False

    def get(self, peer_id: int) -> Peer:
        """Look up a peer by id (KeyError when unknown)."""
        return self.peers[peer_id]

    def alive_normal_peers(self) -> Iterator[Peer]:
        """All living non-observer peers."""
        for peer in self.peers.values():
            if peer.alive and not peer.is_observer:
                yield peer

    def observers(self) -> Iterator[Peer]:
        """All observer peers."""
        for peer in self.peers.values():
            if peer.is_observer:
                yield peer

    def __len__(self) -> int:
        return self.alive_count
