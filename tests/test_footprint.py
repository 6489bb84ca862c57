"""A run's footprint follows its mode.

Only the LZ4 codec uses numpy, so numpy loads only when a run compresses
real bytes; and a chunk store keeps one slotted record per written
replica, with no per-record dict.
"""

import os
import pathlib
import subprocess
import sys
import tracemalloc

from repro.storage import ChunkStore, StoredBlock

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SYNTHETIC_RUN = """
import sys
from repro.core import SmartDsMiddleTier
from repro.middletier import Testbed
from repro.sim import Simulator
from repro.workloads import ClientDriver, WriteRequestFactory

sim = Simulator()
testbed = Testbed(sim)
tier = SmartDsMiddleTier(sim, testbed, n_ports=1)
factory = WriteRequestFactory(testbed.platform, seed=1)
driver = ClientDriver(sim, tier, factory, concurrency=4, warmup_fraction=0.0)
result = sim.run(until=driver.run(32))
assert result.requests == 32, result.requests
print("numpy" in sys.modules)
"""

FUNCTIONAL_FACTORY = """
import sys
from repro.compression import SilesiaLikeCorpus, lz4_decompress
from repro.core import SmartDsMiddleTier
from repro.middletier import Testbed
from repro.sim import Simulator
from repro.workloads import ClientDriver, WriteRequestFactory

blocks = SilesiaLikeCorpus(seed=5, file_size=8192).blocks(4096)[:4]
before = "numpy" in sys.modules
sim = Simulator()
testbed = Testbed(sim)
tier = SmartDsMiddleTier(sim, testbed, n_ports=1)
factory = WriteRequestFactory(testbed.platform, blocks=blocks, seed=1)
built = "numpy" in sys.modules
driver = ClientDriver(sim, tier, factory, concurrency=2, warmup_fraction=0.0)
result = sim.run(until=driver.run(len(blocks)))
assert result.requests == len(blocks), result.requests
for block_id, original in enumerate(blocks):
    found = [server.store.latest(0, block_id) for server in testbed.storage_servers]
    replicas = [record for record in found if record is not None]
    assert len(replicas) == 3, (block_id, len(replicas))
    for record in replicas:
        assert record.is_compressed
        assert lz4_decompress(record.data) == original
print(before, built)
"""


def _fresh(script: str) -> str:
    """Run `script` in a fresh interpreter; returns its stripped stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestCodecBackendLoadsOnDemand:
    def test_a_synthetic_run_never_imports_numpy(self):
        assert _fresh(SYNTHETIC_RUN) == "False"

    def test_a_functional_factory_loads_numpy_and_writes_round_trip(self):
        # Corpus generation needs no numpy; building the factory loads
        # it, so the import lands in set-up, before the first write.
        assert _fresh(FUNCTIONAL_FACTORY) == "False True"


class TestLeanChunkStoreRecords:
    def test_records_have_no_instance_dict(self):
        record = ChunkStore().append(1, 7, 3, b"abc", is_compressed=True, ratio=1.5)
        assert isinstance(record, StoredBlock)
        assert not hasattr(record, "__dict__")
        assert record.meta == {"is_compressed": True, "ratio": 1.5, "original_size": None}

    def test_appends_allocate_no_per_record_dict(self):
        # Per record an append allocates the record and two ints (its
        # location and sequence); everything else is amortized growth of
        # the store's indexes, plus a few dozen blocks of interpreter
        # free-list state. A per-record dict would add at least one.
        def allocations(n_records: int) -> int:
            store = ChunkStore()
            store.append(0, -1, 8)
            only_store = [tracemalloc.Filter(True, "*/repro/storage/chunkstore.py")]
            tracemalloc.start()
            try:
                before = tracemalloc.take_snapshot().filter_traces(only_store)
                for block in range(n_records):
                    store.append(block % 4, block, 8)
                after = tracemalloc.take_snapshot().filter_traces(only_store)
            finally:
                tracemalloc.stop()
            return sum(stat.count_diff for stat in after.compare_to(before, "filename"))

        n = 2000
        per_record = (allocations(2 * n) - allocations(n)) / n
        assert per_record < 3.5, per_record
