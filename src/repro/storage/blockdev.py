"""Flash block device model.

PCIe flash in the paper's clouds delivers millions of IOPS at
tens-of-microseconds latency (§1). The model charges a fixed access
latency plus size-proportional transfer time, with a bounded number of
concurrent in-flight operations (the device queue), so saturated disks
build queues like real ones.
"""

from __future__ import annotations

import typing

from repro.sim.resources import Resource
from repro.telemetry.metrics import BandwidthMeter, Counter
from repro.units import gBps, usec

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class BlockDevice:
    """An NVMe-flash-like device with latency + bandwidth + queue depth."""

    def __init__(
        self,
        sim: "Simulator",
        name: str = "nvme",
        write_latency: float = usec(20),
        read_latency: float = usec(80),
        bandwidth: float = gBps(3.0),
        queue_depth: int = 256,
    ) -> None:
        if queue_depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {queue_depth}")
        self.sim = sim
        self.name = name
        self.write_latency = write_latency
        self.read_latency = read_latency
        self.bandwidth = bandwidth
        self._slots = Resource(sim, queue_depth, name=f"{name}.queue")
        self.write_meter = BandwidthMeter(f"{name}.write")
        self.read_meter = BandwidthMeter(f"{name}.read")
        self.writes = Counter(f"{name}.writes")
        self.reads = Counter(f"{name}.reads")

    def write(self, nbytes: int) -> typing.Generator:
        """Persist `nbytes`; returns once the device acknowledges durability.

        A generator leg: run it inline with ``yield from``.
        """
        return self._io(nbytes, self.write_latency, True)

    def read(self, nbytes: int) -> typing.Generator:
        """Fetch `nbytes`; returns once the data is in the server's buffer.

        A generator leg: run it inline with ``yield from``.
        """
        return self._io(nbytes, self.read_latency, False)

    def _io(self, nbytes: int, latency: float, is_write: bool) -> typing.Generator:
        if nbytes < 0:
            raise ValueError(f"cannot do I/O of {nbytes} bytes")
        slot = self._slots.request()
        yield slot
        try:
            yield self.sim.timeout(latency + nbytes / self.bandwidth)
        finally:
            self._slots.release(slot)
        if is_write:
            self.write_meter.record(self.sim.now, nbytes)
            self.writes.add()
        else:
            self.read_meter.record(self.sim.now, nbytes)
            self.reads.add()
        return nbytes
