"""The designs' declared payload legs against the pipes they load.

Every middle-tier design declares its write and read legs as data
(``write_legs``/``read_legs``, ``docs/architecture.md``), and one base
routine runs them. Run one 4 KiB block's legs alone on a fresh tier and
check that each pipe served exactly the bytes its legs declare, that no
other pipe moved, and that the engine and core legs cost what their
profiles say.
"""

import collections
import operator

import pytest

from repro.compression.model import DECOMPRESSION_SPEEDUP
from repro.hostmodel.memory import MemorySubsystem
from repro.hostmodel.pcie import PcieLink
from repro.middletier import (
    AcceleratorMiddleTier,
    BlueField2MiddleTier,
    CpuOnlyMiddleTier,
    NaiveFpgaMiddleTier,
    Testbed,
)
from repro.middletier.soc_smartnic import BlueField3MiddleTier
from repro.sim import Simulator
from repro.sim.bandwidth import BandwidthServer

RAW = 4096
COMPRESSED = 2048
#: The upstream read-request TLP a PCIe DMA read sends before its data.
_PCIE_READ_REQUEST = 64

DESIGNS = {
    "cpu-only": lambda sim, testbed: CpuOnlyMiddleTier(sim, testbed, n_workers=2),
    "acc-ddio": lambda sim, testbed: AcceleratorMiddleTier(sim, testbed, n_workers=2),
    "acc-no-ddio": lambda sim, testbed: AcceleratorMiddleTier(
        sim, testbed, n_workers=2, ddio_enabled=False
    ),
    "bf2": lambda sim, testbed: BlueField2MiddleTier(sim, testbed, n_workers=2),
    "fpga-only": lambda sim, testbed: NaiveFpgaMiddleTier(sim, testbed, n_workers=2),
    "bf3": lambda sim, testbed: BlueField3MiddleTier(sim, testbed, n_workers=2),
}


def build(design):
    sim = Simulator()
    return sim, DESIGNS[design](sim, Testbed(sim))


def all_pipes(root, depth=3):
    """Every BandwidthServer reachable from `root` within `depth` hops."""
    found, seen, frontier = set(), set(), [root]
    for _ in range(depth + 1):
        following = []
        for obj in frontier:
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, BandwidthServer):
                found.add(obj)
                continue
            members = vars(obj).values() if hasattr(obj, "__dict__") else ()
            for value in members:
                if isinstance(value, (list, tuple)):
                    following.extend(value)
                elif hasattr(value, "__dict__") and not isinstance(value, (type, Simulator)):
                    following.append(value)
        frontier = following
    return found


def declared_bytes(tier, legs, nin, nout):
    """{pipe: bytes} the leg table declares for one payload."""
    expected = collections.Counter()
    for step, side in legs:
        nbytes = nin if side == "in" else nout
        if step in ("engine", "cores"):
            continue
        if step == "_ddio_read":
            # Acc: the FPGA's read of host memory, as the DDIO model places it.
            traffic = tier.llc.dma_read(nbytes, tier._fpga_read_ws)
            expected[tier.memory._bus] += traffic.dram_read
            continue
        if step == "_ddio_write":
            working_set = tier.platform.workload.intermediate_buffer_bytes
            expected[tier.memory._bus] += tier.llc.dma_write(nbytes, working_set).dram_write
            continue
        owner, _, method = step.rpartition(".")
        pipe = operator.attrgetter(owner)(tier)
        if isinstance(pipe, MemorySubsystem):
            expected[pipe._bus] += nbytes
        elif isinstance(pipe, PcieLink) and method == "dma_read":
            expected[pipe.h2d] += nbytes
            expected[pipe.d2h] += _PCIE_READ_REQUEST
        elif isinstance(pipe, PcieLink) and method == "dma_write":
            expected[pipe.d2h] += nbytes
        else:  # pragma: no cover - a new kind of leg needs a line here
            raise AssertionError(f"no byte rule for leg {step!r}")
    return expected


def run_legs(sim, tier, legs, nin, nout, read=False):
    pipes = all_pipes(tier)
    before = {pipe: pipe.bytes_served for pipe in pipes}
    started = sim.now

    def body():
        yield from tier._run_legs(legs, 0, nin, nout, read=read)

    sim.run(until=sim.process(body()))
    moved = {pipe: pipe.bytes_served - before[pipe] for pipe in pipes}
    return moved, sim.now - started


@pytest.mark.parametrize("direction", ["write", "read"])
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_each_pipe_serves_the_bytes_its_legs_declare(design, direction):
    sim, tier = build(design)
    if direction == "write":
        legs, nin, nout = tier.write_legs, RAW, COMPRESSED
    else:
        legs, nin, nout = tier.read_legs, COMPRESSED, RAW
    assert legs, f"{design} declares no {direction} legs"
    moved, _elapsed = run_legs(sim, tier, legs, nin, nout, read=direction == "read")
    expected = declared_bytes(tier, legs, nin, nout)
    assert sum(expected.values()) > 0
    assert set(expected) <= set(moved), "a declared pipe is not on the tier"
    mismatched = {
        pipe.name: (moved[pipe], expected.get(pipe, 0))
        for pipe in moved
        if moved[pipe] != expected.get(pipe, 0)
    }
    assert not mismatched, f"(served, declared) bytes per pipe: {mismatched}"


def test_ddio_keeps_the_accelerator_round_trip_off_dram():
    sim, tier = build("acc-ddio")
    moved, _ = run_legs(sim, tier, tier.write_legs, RAW, COMPRESSED)
    # The FPGA's read hits the DDIO ways; only the write-back spills.
    assert moved[tier.memory._bus] == COMPRESSED
    assert moved[tier.fpga_pcie.h2d] == RAW


@pytest.mark.parametrize("design", ["bf2", "fpga-only", "acc-ddio"])
def test_an_engine_leg_costs_one_engine_pass(design):
    sim, tier = build(design)
    _, elapsed = run_legs(sim, tier, (("engine", "in"),), RAW, COMPRESSED)
    profile = tier._engine_profile
    assert elapsed == pytest.approx(profile.occupancy_time(RAW) + profile.setup_time)


@pytest.mark.parametrize("design", ["cpu-only", "bf3"])
def test_core_legs_decompress_seven_times_faster(design):
    sim, tier = build(design)
    rate = tier.core_rates[0]
    _, compress = run_legs(sim, tier, (("cores", "in"),), RAW, COMPRESSED)
    _, decompress = run_legs(sim, tier, (("cores", "out"),), COMPRESSED, RAW, read=True)
    assert compress == pytest.approx(RAW / rate)
    assert decompress == pytest.approx(RAW / (rate * DECOMPRESSION_SPEEDUP))


@pytest.mark.parametrize(
    "direction,nin,nout",
    [("write", RAW, COMPRESSED), ("read", COMPRESSED, RAW)],
)
def test_accelerator_round_trip_lands_in_host_dram_without_ddio(direction, nin, nout):
    # Without DDIO the FPGA reads the block from DRAM and writes its output
    # back there, on reads as on writes: a decompressed block returns to
    # host memory.
    sim, tier = build("acc-no-ddio")
    legs = tier.write_legs if direction == "write" else tier.read_legs
    moved, _ = run_legs(sim, tier, legs, nin, nout, read=direction == "read")
    assert moved[tier.memory._bus] == nin + nout
    assert moved[tier.fpga_pcie.d2h] == nout + _PCIE_READ_REQUEST


@pytest.mark.parametrize("design", ["bf2", "fpga-only"])
def test_a_read_waits_the_designs_own_header_parse(design, monkeypatch):
    # Reads parse where writes do: on the Arm cores (BF2) or in gateware
    # (FPGA-only), not on a host core.
    sim, tier = build(design)
    assert tier.parse_time != tier.platform.host.parse_header_time
    fetches = []

    def fetch(worker_index, qp, message):
        fetches.append(sim.now)
        yield from ()

    monkeypatch.setattr(tier, "_fetch_and_reply", fetch)
    sim.run(until=sim.process(tier._handle_read(0, None, None)))
    assert fetches == [pytest.approx(tier.parse_time)]
