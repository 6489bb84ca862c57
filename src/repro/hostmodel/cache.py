"""LLC / Intel DDIO model.

DDIO lets device DMA writes allocate into 2 of the LLC's 11 ways and
serves device DMA reads from the LLC (§3.2). Whether that saves DRAM
traffic depends entirely on whether the DMA *working set* fits in the
DDIO capacity before it is evicted:

- a tight packet-forwarding pipeline (the Fig. 7/8 benchmark for the
  accelerator baseline) keeps its ring small -> DMA reads hit the LLC;
- the middle tier's intermediate buffer is ~400 MB (Little's law, §3.2)
  -> the data is long evicted before reuse, so DDIO cannot help.

The model answers one question per transfer: does this DMA touch DRAM,
and with how many bytes?
"""

from __future__ import annotations

import dataclasses

from repro.params import HostSpec


@dataclasses.dataclass(frozen=True)
class DmaTraffic:
    """DRAM bytes a DMA transfer generates (0 when the LLC absorbs it)."""

    dram_read: int
    dram_write: int


#: The traffic of every DMA the LLC absorbs (shared: records are frozen).
_NO_DRAM_TRAFFIC = DmaTraffic(dram_read=0, dram_write=0)


class DdioLlc:
    """Decides LLC-vs-DRAM placement for device DMA traffic."""

    def __init__(self, spec: HostSpec | None = None, enabled: bool = True) -> None:
        self.spec = spec or HostSpec()
        self.enabled = enabled

    @property
    def ddio_capacity(self) -> int:
        """Bytes available to DDIO write-allocation (2 of 11 LLC ways)."""
        return self.spec.ddio_capacity

    def fits(self, working_set: int) -> bool:
        """True if a DMA working set cycles within the DDIO ways."""
        return self.enabled and working_set <= self.ddio_capacity

    def dma_write(self, nbytes: int, working_set: int) -> DmaTraffic:
        """Device writes `nbytes` into host memory (e.g. NIC rx DMA).

        If the working set fits, the write allocates into the LLC and
        the line is reused before eviction: no DRAM traffic. Otherwise
        the allocation evicts earlier lines: DRAM sees the write.
        """
        if nbytes < 0 or working_set < 0:
            raise ValueError("byte counts must be non-negative")
        if self.fits(working_set):
            return _NO_DRAM_TRAFFIC
        return DmaTraffic(dram_read=0, dram_write=nbytes)

    def dma_read(self, nbytes: int, working_set: int) -> DmaTraffic:
        """Device reads `nbytes` from host memory (e.g. NIC tx DMA).

        A read hits the LLC only if the producer's working set kept the
        data resident; otherwise DRAM serves it.
        """
        if nbytes < 0 or working_set < 0:
            raise ValueError("byte counts must be non-negative")
        if self.fits(working_set):
            return _NO_DRAM_TRAFFIC
        return DmaTraffic(dram_read=nbytes, dram_write=0)
