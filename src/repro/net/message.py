"""Messages and payloads.

A :class:`Message` is one RDMA message: a small block-storage header
(the part SmartDS forwards to the host) plus an optional
:class:`Payload` (the part SmartDS keeps in device memory).

Payloads run in one of two modes, chosen per experiment:

- **functional** — `data` carries real bytes; compression really runs
  the pure-Python LZ4 codec, once per distinct block content, so output
  sizes are measured and blocks can be bit-compared end to end;
- **performance** — `data` is ``None`` and the compressed size is
  computed from `ratio`, the block's LZ4 compressibility (sampled from
  the corpus-calibrated distribution). This keeps large sweeps fast.

Both modes flow through the same simulation code paths.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

from repro.compression.lz4 import lz4_compress, lz4_decompress
from repro.compression.model import compressed_size

_request_ids = itertools.count(1)

#: Compressed blob per distinct input block, oldest evicted first. LZ4 is
#: deterministic, so a functional run that writes the same block many
#: times (a workload cycling through a corpus, every replica of a write)
#: runs the codec once per content. The codec itself stays uncached.
_COMPRESSED: dict[bytes, bytes] = {}
_COMPRESSED_MAX = 1024


def _compress_bytes(data: bytes) -> bytes:
    """``lz4_compress(data)``, memoized for immutable ``bytes`` only."""
    if type(data) is not bytes:
        return lz4_compress(data)
    blob = _COMPRESSED.get(data)
    if blob is None:
        blob = lz4_compress(data)
        if len(_COMPRESSED) >= _COMPRESSED_MAX:
            del _COMPRESSED[next(iter(_COMPRESSED))]
        _COMPRESSED[data] = blob
    return blob


@dataclasses.dataclass(frozen=True)
class Payload:
    """A data block travelling in a message."""

    size: int
    ratio: float = 1.0
    data: bytes | None = None
    is_compressed: bool = False
    original_size: int | None = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative payload size {self.size}")
        if self.ratio <= 0:
            raise ValueError(f"compression ratio must be positive, got {self.ratio!r}")
        if self.data is not None and len(self.data) != self.size:
            raise ValueError(f"size {self.size} disagrees with data length {len(self.data)}")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Payload":
        """A functional-mode payload carrying real bytes."""
        return cls(size=len(data), data=data)

    @classmethod
    def synthetic(cls, size: int, ratio: float) -> "Payload":
        """A performance-mode payload described only by size and ratio."""
        return cls(size=size, ratio=ratio)


def compress_payload(payload: Payload) -> Payload:
    """LZ4-compress a payload (really, or synthetically via its ratio)."""
    if payload.is_compressed:
        raise ValueError("payload is already compressed")
    if payload.data is not None:
        blob = _compress_bytes(payload.data)
        return Payload(
            size=len(blob),
            ratio=payload.ratio,
            data=blob,
            is_compressed=True,
            original_size=payload.size,
        )
    return Payload(
        size=compressed_size(payload.size, payload.ratio),
        ratio=payload.ratio,
        is_compressed=True,
        original_size=payload.size,
    )


def decompress_payload(payload: Payload) -> Payload:
    """Invert :func:`compress_payload`."""
    if not payload.is_compressed:
        raise ValueError("payload is not compressed")
    if payload.data is not None:
        raw = lz4_decompress(payload.data)
        return Payload(size=len(raw), ratio=payload.ratio, data=raw)
    if payload.original_size is None:
        raise ValueError("synthetic compressed payload lost its original size")
    return Payload(size=payload.original_size, ratio=payload.ratio)


@dataclasses.dataclass
class Message:
    """One RDMA message: block-storage header + optional payload.

    `header` carries the parsed block-storage header fields the
    middle-tier software inspects (VM id, service type, block offset,
    segment id, latency sensitivity, ...).
    """

    kind: str
    src: str
    dst: str
    header_size: int = 64
    payload: Payload | None = None
    header: dict = dataclasses.field(default_factory=dict)
    request_id: int = dataclasses.field(default_factory=lambda: next(_request_ids))
    created_at: float | None = None
    #: Optional flow id for byte-conservation audits: transfers charged
    #: for this message are tagged with it (see repro.sim.debug.FlowLedger).
    flow: str | None = None
    #: Causal trace context (a repro.telemetry.spans.Span), or None when
    #: the request is untraced — the common case. Datapath stages open
    #: children off it; replies are not auto-propagated, call sites set
    #: it explicitly.
    span: typing.Any = None

    def __post_init__(self) -> None:
        if self.header_size < 0:
            raise ValueError(f"negative header size {self.header_size}")

    @property
    def size(self) -> int:
        """Total message bytes (header + payload)."""
        return self.header_size + (self.payload.size if self.payload else 0)

    @property
    def payload_size(self) -> int:
        """Payload bytes (0 for header-only messages like acks)."""
        return self.payload.size if self.payload else 0

    def reply(self, kind: str, payload: Payload | None = None, **header: typing.Any) -> "Message":
        """Build a response message addressed back to this message's sender."""
        return Message(
            kind=kind,
            src=self.dst,
            dst=self.src,
            header_size=self.header_size,
            payload=payload,
            header={**header, "in_reply_to": self.request_id},
        )
