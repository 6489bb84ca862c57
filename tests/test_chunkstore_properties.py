"""Property-based tests of the append-only chunk store.

A random interleaving of appends, overwrites, dead-marking, GC, and
snapshots must preserve the store's core invariants: live bytes equal
the sum of live entries, `latest` always returns the newest live
version, reclaimed + live never exceeds appended, and snapshots are
immutable views.
"""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.storage import ChunkStore


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 5), st.integers(1, 512)),
        min_size=1,
        max_size=40,
    )
)
def test_latest_returns_newest_version(appends):
    store = ChunkStore()
    newest = {}
    for chunk_id, block_id, size in appends:
        record = store.append(chunk_id, block_id, size)
        newest[(chunk_id, block_id)] = record.location
    for (chunk_id, block_id), location in newest.items():
        assert store.latest(chunk_id, block_id).location == location


class ChunkStoreMachine(RuleBasedStateMachine):
    """Random walks over the chunk store API."""

    def __init__(self):
        super().__init__()
        self.store = ChunkStore()
        self.live_locations = {}  # location -> size
        self.keys = {}  # location -> (chunk, block), every location ever appended
        self.dead_locations = set()
        self.snapshots = {}  # snap id -> frozenset(locations at snap time)

    @rule(chunk=st.integers(0, 2), block=st.integers(0, 4), size=st.integers(1, 256))
    def append(self, chunk, block, size):
        record = self.store.append(chunk, block, size)
        self.live_locations[record.location] = size
        self.keys[record.location] = (chunk, block)

    @rule()
    def mark_one_dead(self):
        if not self.live_locations:
            return
        location = next(iter(self.live_locations))
        self.store.mark_dead(location)
        del self.live_locations[location]
        self.dead_locations.add(location)

    @rule()
    def mark_newest_dead(self):
        # Compaction's worst case for `latest`: a block's newest version
        # dies while an older one stays live.
        if not self.live_locations:
            return
        location = max(self.live_locations)
        self.store.mark_dead(location)
        del self.live_locations[location]
        self.dead_locations.add(location)

    @rule(chunk=st.integers(0, 2))
    def gc(self, chunk):
        reclaimed = self.store.gc(chunk)
        assert reclaimed >= 0

    @rule()
    def snapshot(self):
        snap = self.store.snapshot()
        self.snapshots[snap] = set(self.live_locations)

    @invariant()
    def live_bytes_match_model(self):
        live = [r for chunk in self.store.chunk_ids() for r in self.store.live_blocks(chunk)]
        assert sum(record.size for record in live) == sum(self.live_locations.values())

    @invariant()
    def live_entries_readable(self):
        for location, size in self.live_locations.items():
            assert self.store.read(location).size == size

    @invariant()
    def latest_is_the_newest_live_version(self):
        # Locations grow with append order, so the newest live version
        # of a key is its largest live location.
        newest = {}
        for location in self.live_locations:
            key = self.keys[location]
            newest[key] = max(newest.get(key, 0), location)
        for key in set(self.keys.values()):
            record = self.store.latest(*key)
            assert (record.location if record else None) == newest.get(key), key

    @invariant()
    def snapshots_remain_complete(self):
        for snap, locations in self.snapshots.items():
            snapshot_locations = {r.location for r in self.store.snapshot_blocks(snap)}
            assert locations <= snapshot_locations

    @invariant()
    def accounting_conserves_bytes(self):
        assert self.store.bytes_reclaimed <= self.store.bytes_appended


TestChunkStoreStateMachine = ChunkStoreMachine.TestCase
TestChunkStoreStateMachine.settings = settings(max_examples=30, deadline=None)
