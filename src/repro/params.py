"""Platform calibration constants.

Every number here is taken from the paper (§3, §5.1) or the product
documents it cites, so all middle-tier designs draw timing from one
place:

- Host: 2x Xeon Silver 4214 (24 physical cores, 48 logical with SMT-2),
  8-channel DDR4 with ~120 GB/s achievable bandwidth, 16 MiB LLC with
  DDIO occupying 2 of 11 ways, PCIe 3.0 x16 at ~104 Gb/s achievable and
  ~1.4 us unloaded round-trip latency (Table 1).
- Network: 100 GbE ports (ConnectX-5 / VCU128), RDMA transport.
- SmartDS device: up to 6 ports, one 100 Gb/s LZ4 engine per port, 8 GB
  HBM at up to 3.4 Tb/s.
- BlueField-2: 8 Arm A72 cores, ~40 Gb/s compression engine, device DDR
  with ~0.7x of its theoretical bandwidth achievable.
- Storage: 4 KB blocks, 64 B block-storage headers, 3-way replication,
  tens-of-microseconds flash writes.

Engine timing lives with the compressor profiles
(:data:`repro.compression.model.FPGA_ENGINE`, ``BF2_ENGINE``) and flash
timing with :class:`repro.storage.blockdev.BlockDevice`. Every field
here is read by the model (``tests/test_no_env_knobs.py``).
"""

from __future__ import annotations

import dataclasses

from repro.units import gBps, gbps, kib, mib, msec, usec


@dataclasses.dataclass(frozen=True)
class HostSpec:
    """The Xeon middle-tier server of §5.1."""

    physical_cores: int = 24
    smt: int = 2
    memory_rate: float = gBps(120)  # achievable, 8 channels
    memory_lanes: int = 4  # concurrent service streams in the model
    memory_chunk: int = kib(64)  # large DMA transfers interleave at this grain
    llc_bytes: int = mib(16)
    llc_ways: int = 11
    ddio_ways: int = 2
    pcie_rate: float = gbps(104)  # per direction, PCIe 3.0 x16 achievable
    pcie_leg_latency: float = usec(0.7)  # per direction; 1.4 us round trip
    pcie_read_chunk: int = kib(4)  # DMA reads complete in chunks
    parse_header_time: float = usec(0.3)  # parse block-storage header on a core
    post_descriptor_time: float = usec(0.15)  # post one work request / poll one CQE

    @property
    def logical_cores(self) -> int:
        """Total hardware threads (the paper's "48 logical cores")."""
        return self.physical_cores * self.smt

    @property
    def ddio_capacity(self) -> int:
        """LLC bytes DDIO may write-allocate into (2 of 11 ways)."""
        return self.llc_bytes * self.ddio_ways // self.llc_ways


@dataclasses.dataclass(frozen=True)
class NetworkSpec:
    """100 GbE RDMA fabric."""

    port_rate: float = gbps(100)  # per direction per port
    switch_latency: float = usec(1.5)  # one-way fabric traversal
    roce_overhead_bytes: int = 60  # Eth+IP+UDP+BTH framing per message
    loss_rate: float = 0.0  # per-message drop probability (lossless by default)
    retransmit_timeout: float = usec(100)  # RC retransmission time-out


@dataclasses.dataclass(frozen=True)
class SmartDsSpec:
    """The VCU128 prototype (§4, §5.1)."""

    max_ports: int = 6
    hbm_rate: float = gbps(3400)  # 16-channel HBM, up to 3.4 Tb/s
    hbm_lanes: int = 16
    split_latency: float = usec(0.5)  # Split/Assemble hardware pipeline delay
    notify_bytes: int = 16  # completion event DMA'd to host
    hw_parse_time: float = usec(0.1)  # header parse in FPGA logic (naive design)


@dataclasses.dataclass(frozen=True)
class BlueField2Spec:
    """The SoC-based SmartNIC baseline (§3.4, §5.1)."""

    arm_cores: int = 8
    arm_parse_time: float = usec(1.0)  # wimpy core parses a header
    device_memory_rate: float = gbps(500)  # ~0.7x theoretical DDR
    device_memory_lanes: int = 2


@dataclasses.dataclass(frozen=True)
class BlueField3Spec:
    """The upcoming SoC SmartNIC of §3.4.

    BlueField-3 drops the compression engine: its 16 Arm cores together
    deliver only ~50 Gb/s of LZ4 against 400 Gb/s of networking, and its
    two DDR5-5600 channels reach ~0.7x of 716.8 Gb/s theoretical.
    """

    arm_cores: int = 16
    arm_parse_time: float = usec(0.8)
    total_compression_rate: float = gbps(50)  # all 16 cores together
    device_memory_rate: float = gbps(500)  # ~0.7 x 716.8 Gb/s
    device_memory_lanes: int = 2
    port_rate: float = gbps(400)

    @property
    def per_core_compression_rate(self) -> float:
        """LZ4 input rate of one Arm core."""
        return self.total_compression_rate / self.arm_cores


@dataclasses.dataclass(frozen=True)
class StorageSpec:
    """Back-end storage servers and the block-storage data model."""

    replication: int = 3
    segment_bytes: int = 32 * 1024**3  # 32 GB segments
    chunk_bytes: int = 64 * 1024**2  # 64 MB chunks


@dataclasses.dataclass(frozen=True)
class RecoverySpec:
    """Failure-recovery policy defaults (§2.2.3 time-out driven fail-over).

    The write policy has no overall deadline — an acked write must land
    on its replica set, so durability beats latency — while reads trade
    a bounded deadline for an ``unavailable`` reply. The HBM watermarks
    drive graceful degradation of the SmartDS tier: above the high
    watermark new device-memory admissions are refused and requests fall
    back to host-path (no-split) handling; waiters resume once usage
    drains below the low watermark.
    """

    write_max_attempts: int = 8
    write_attempt_timeout: float = usec(5000)  # = the historical replica_timeout
    read_max_attempts: int = 5
    read_attempt_timeout: float = usec(2000)
    read_deadline: float = usec(20000)
    backoff_base: float = usec(50)
    backoff_multiplier: float = 2.0
    backoff_cap: float = usec(1000)
    backoff_jitter: float = 0.25
    hbm_high_watermark: float = 0.92  # admission gate, fraction of capacity
    hbm_low_watermark: float = 0.80  # waiters resume below this fraction
    degraded_alloc_wait: float = usec(200)  # bounded wait before host-path fallback

    def __post_init__(self) -> None:
        if not 0.0 < self.hbm_low_watermark <= self.hbm_high_watermark <= 1.0:
            raise ValueError(
                "watermarks must satisfy 0 < low <= high <= 1, got "
                f"low={self.hbm_low_watermark!r} high={self.hbm_high_watermark!r}"
            )


@dataclasses.dataclass(frozen=True)
class CacheSpec:
    """Device-memory hot-block read cache (``docs/caching.md``).

    The cache keeps *compressed* payloads of hot blocks in SmartNIC HBM
    so skewed read traffic is answered in one hop, without a backend
    round trip. It is the lowest-priority HBM consumer: it admits only
    below the watermark gate, registers as a reclaim callback with the
    :class:`~repro.core.device.DeviceMemoryAllocator`, and sheds cold
    segments under pressure before any request is degraded.
    """

    enabled: bool = False
    #: Upper bound on cache occupancy as a fraction of HBM capacity.
    capacity_fraction: float = 0.25
    #: Absolute byte bound; overrides `capacity_fraction` when set.
    capacity_bytes: int | None = None
    #: Segmented LRU: fraction of the byte budget reserved for the
    #: protected segment (re-referenced blocks); the rest is probation.
    protected_fraction: float = 0.8
    #: TinyLFU admission sketch geometry (counters per row x rows).
    sketch_width: int = 1024
    sketch_depth: int = 4
    #: Halve all sketch counters after this many recorded accesses, so
    #: frequency estimates age out with the workload.
    sketch_sample: int = 4096

    def __post_init__(self) -> None:
        if not 0.0 < self.capacity_fraction <= 1.0:
            raise ValueError(
                f"capacity fraction must be in (0, 1], got {self.capacity_fraction!r}"
            )
        if self.capacity_bytes is not None and self.capacity_bytes <= 0:
            raise ValueError(f"capacity bytes must be positive, got {self.capacity_bytes!r}")
        if not 0.0 <= self.protected_fraction < 1.0:
            raise ValueError(
                f"protected fraction must be in [0, 1), got {self.protected_fraction!r}"
            )
        if self.sketch_width < 1 or self.sketch_depth < 1 or self.sketch_sample < 1:
            raise ValueError("sketch geometry must be positive")

    def limit_for(self, hbm_capacity: int) -> int:
        """The cache's byte budget on a device with `hbm_capacity` HBM."""
        if self.capacity_bytes is not None:
            return min(self.capacity_bytes, hbm_capacity)
        return int(self.capacity_fraction * hbm_capacity)


@dataclasses.dataclass(frozen=True)
class AdmissionSpec:
    """Overload protection for the middle tier (``docs/robustness.md``).

    Disabled by default: the tier accepts unbounded work exactly as
    before. Enabled, :mod:`repro.middletier.admission` layers four
    defenses over the request path — per-tenant credit admission at
    ingress, deadline-aware early shedding, per-replica circuit
    breakers, and an explicit brownout ladder driven by a single
    overload score — so sustained overload yields ``status="shed"``
    replies and bounded tails instead of queue collapse.
    """

    enabled: bool = False
    #: Per-tenant outstanding-request budget before a service rate is
    #: measured (the pool then adapts via Little's law: rate x budget).
    initial_credits: int = 32
    min_credits: int = 4
    max_credits: int = 256
    #: Per-request latency SLO: drives deadline-aware early shedding and
    #: the credit-pool adaptation target.
    latency_budget: float = usec(20000)
    #: EWMA smoothing for measured completion rates and gaps.
    ewma_alpha: float = 0.2
    #: Credit-pool adaptation cadence (also the brownout poll interval).
    adapt_interval: float = usec(500)
    #: Circuit breaker: this many failures inside `breaker_window` trip
    #: a replica's breaker open for `breaker_open_duration`, +- jitter.
    breaker_threshold: int = 3
    breaker_window: float = usec(5000)
    breaker_open_duration: float = usec(2000)
    breaker_jitter: float = 0.25
    #: Request-queue depth that maps to overload score 1.0.
    queue_target: int = 48
    #: Brownout ladder entry thresholds (overload score) for levels 1-4:
    #: no-cache-fills, host-ingress, raw-replication, shed.
    ladder_up: tuple = (0.55, 0.7, 0.85, 0.97)
    #: Hysteresis: a rung is left only once the score falls this far
    #: below its entry threshold, so the ladder doesn't flap.
    ladder_margin: float = 0.1
    #: Bulkhead pacing step for maintenance work under foreground pressure.
    maintenance_pause: float = usec(500)
    #: Seeds the breakers' deterministic probe jitter (replay-stable).
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.min_credits <= self.initial_credits <= self.max_credits:
            raise ValueError(
                "credits must satisfy 1 <= min <= initial <= max, got "
                f"min={self.min_credits} initial={self.initial_credits} "
                f"max={self.max_credits}"
            )
        if self.latency_budget <= 0:
            raise ValueError(f"latency budget must be positive, got {self.latency_budget!r}")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha!r}")
        if self.adapt_interval <= 0 or self.maintenance_pause <= 0:
            raise ValueError("adapt_interval and maintenance_pause must be positive")
        if self.breaker_threshold < 1:
            raise ValueError(f"breaker_threshold must be >= 1, got {self.breaker_threshold}")
        if self.breaker_window <= 0 or self.breaker_open_duration <= 0:
            raise ValueError("breaker durations must be positive")
        if not 0.0 <= self.breaker_jitter < 1.0:
            raise ValueError(f"breaker_jitter must be in [0, 1), got {self.breaker_jitter!r}")
        if self.queue_target < 1:
            raise ValueError(f"queue_target must be >= 1, got {self.queue_target}")
        if len(self.ladder_up) != 4 or any(
            not 0.0 < t <= 1.0 for t in self.ladder_up
        ) or list(self.ladder_up) != sorted(set(self.ladder_up)):
            raise ValueError(
                f"ladder_up must be 4 strictly-increasing thresholds in (0, 1], "
                f"got {self.ladder_up!r}"
            )
        if not 0.0 <= self.ladder_margin < self.ladder_up[0]:
            raise ValueError(
                f"ladder_margin must be in [0, {self.ladder_up[0]!r}), "
                f"got {self.ladder_margin!r}"
            )


@dataclasses.dataclass(frozen=True)
class ClusterSpec:
    """Scale-out of the middle tier itself (``docs/scaling.md``).

    The paper evaluates a single middle-tier server (§5.1); a tier that
    "serves heavy traffic from millions of users" scales horizontally.
    :mod:`repro.cluster` places 32 GB segments onto N middle-tier shards
    through a consistent-hash :class:`~repro.cluster.SegmentDirectory`
    and routes clients with versioned route maps plus stale-map retry.

    The default is 1 shard with the directory bypassed: clients send
    straight to the only tier, no ownership guard is installed, and
    every existing experiment behaves exactly as before.
    """

    n_shards: int = 1
    #: Virtual nodes per shard on the hash ring. More vnodes smooth the
    #: per-shard arc share (relative imbalance ~ 1/sqrt(vnodes)).
    vnodes_per_shard: int = 128
    #: Simulated latency of one route-map fetch from the directory
    #: service (clients pay it on startup and on every stale-map refetch).
    map_fetch_latency: float = usec(3.0)
    #: Stale-map retry budget: attempts a client may spend rerouting one
    #: request after ``wrong_shard`` replies before surfacing the failure.
    max_route_retries: int = 4
    #: Install the ownership guard and route through the directory even
    #: with a single shard (tests use this to prove the 1-shard ring is
    #: behavior-identical to the undirected tier).
    force_directory: bool = False

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"need at least one shard, got {self.n_shards}")
        if self.vnodes_per_shard < 1:
            raise ValueError(
                f"need at least one virtual node per shard, got {self.vnodes_per_shard}"
            )
        if self.map_fetch_latency < 0:
            raise ValueError(
                f"map fetch latency must be non-negative, got {self.map_fetch_latency!r}"
            )
        if self.max_route_retries < 1:
            raise ValueError(
                f"need at least one route retry, got {self.max_route_retries}"
            )

    @property
    def directory_bypassed(self) -> bool:
        """Single-shard fast path: no guard, no lookups, no refetches."""
        return self.n_shards == 1 and not self.force_directory


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """The paper's I/O shape."""

    block_size: int = kib(4)
    header_size: int = 64
    intermediate_buffer_bytes: int = 400 * 1000**2  # Little's law, §3.2


@dataclasses.dataclass(frozen=True)
class FlightSpec:
    """Tail-based trace retention (``docs/observability.md``).

    Disabled by default: no recorder is built and the span hot path is
    untouched. Enabled (and with a :class:`~repro.telemetry.spans.
    SpanCollector` attached), every *completed* root span is classified
    by :class:`~repro.telemetry.flight.FlightRecorder`: anomalous traces
    (failed / shed / degraded / retried / wrong_shard / slow) are always
    kept, healthy ones are kept 1-in-`healthy_every` (seeded), and the
    newest `capacity` keepers ride in a ring buffer.
    """

    enabled: bool = False
    #: Ring size: kept trace records beyond this evict the oldest.
    capacity: int = 256
    #: Static per-trace slowness threshold (seconds): a root whose
    #: duration reaches it is kept with reason ``slow``.
    slow_threshold: float = msec(5)
    #: Per-operation overrides as ``(("read_request", seconds), ...)``
    #: pairs (tuples, not a dict, so the spec stays hashable/frozen).
    slow_thresholds: tuple = ()
    #: Dynamic slowness: once `dynamic_min_samples` durations of an op
    #: have been seen, a trace at/above this percentile of them is kept
    #: with reason ``slow_p99``. Set to ``None`` to disable.
    dynamic_percentile: float | None = 0.99
    dynamic_min_samples: int = 100
    #: Healthy-trace sampling rate: keep ~1 in this many (0 = none).
    healthy_every: int = 128
    #: Seeds the healthy-sampling RNG (replay-stable).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"flight capacity must be >= 1, got {self.capacity}")
        if self.slow_threshold <= 0:
            raise ValueError(
                f"slow_threshold must be positive, got {self.slow_threshold!r}"
            )
        for pair in self.slow_thresholds:
            if len(pair) != 2 or not isinstance(pair[0], str) or pair[1] <= 0:
                raise ValueError(
                    f"slow_thresholds entries must be (op, positive seconds), got {pair!r}"
                )
        if self.dynamic_percentile is not None and not 0 < self.dynamic_percentile <= 1:
            raise ValueError(
                f"dynamic_percentile must be in (0, 1], got {self.dynamic_percentile!r}"
            )
        if self.dynamic_min_samples < 2:
            raise ValueError(
                f"dynamic_min_samples must be >= 2, got {self.dynamic_min_samples}"
            )
        if self.healthy_every < 0:
            raise ValueError(f"healthy_every must be >= 0, got {self.healthy_every}")


#: Signals an :class:`SLOSpec` can watch.
SLO_SIGNALS = ("availability", "latency", "goodput")


@dataclasses.dataclass(frozen=True)
class SLOSpec:
    """One service-level objective watched by an
    :class:`~repro.telemetry.slo.SLOMonitor` (``docs/observability.md``).

    Three signal flavors:

    - ``availability``: fraction of requests answered ``ok`` must stay
      >= `target`;
    - ``latency``: fraction of requests answered ``ok`` within
      `latency_threshold` must stay >= `target` (a p99 objective is
      ``target=0.99``);
    - ``goodput``: ok-payload byte rate over the fast window must stay
      >= `goodput_floor` bytes/s.

    Burn rates follow the SRE-workbook multi-window scheme: with budget
    ``1 - target``, a window burning at `fast_burn`x (resp. `slow_burn`x)
    the sustainable rate trips a ``fast_burn`` (resp. ``slow_burn``)
    alert.
    """

    name: str = "slo"
    signal: str = "availability"
    #: Operation filter: requests whose kind starts with this prefix are
    #: scored ("write" matches ``write_request``); "any" scores all.
    op: str = "any"
    #: Good-event objective for availability/latency signals.
    target: float = 0.99
    #: Latency-signal threshold (seconds) an ok reply must beat.
    latency_threshold: float = msec(1)
    #: Goodput-signal floor (bytes/s of ok payload over `fast_window`).
    goodput_floor: float = 0.0
    #: Reporting window for the current bad fraction.
    window: float = msec(20)
    #: Burn-rate evaluation windows (fast trips pages, slow trips tickets).
    fast_window: float = msec(1)
    slow_window: float = msec(5)
    fast_burn: float = 14.4
    slow_burn: float = 6.0
    #: Sliding-window resolution (buckets per window).
    n_buckets: int = 20

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SLO needs a name")
        if self.signal not in SLO_SIGNALS:
            raise ValueError(
                f"unknown SLO signal {self.signal!r}; have {SLO_SIGNALS}"
            )
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {self.target!r}")
        if self.latency_threshold <= 0:
            raise ValueError(
                f"latency_threshold must be positive, got {self.latency_threshold!r}"
            )
        if self.goodput_floor < 0:
            raise ValueError(f"goodput_floor must be >= 0, got {self.goodput_floor!r}")
        if self.signal == "goodput" and self.goodput_floor <= 0:
            raise ValueError("goodput SLOs need a positive goodput_floor")
        if min(self.window, self.fast_window, self.slow_window) <= 0:
            raise ValueError("SLO windows must be positive")
        if self.fast_window > self.slow_window:
            raise ValueError(
                f"fast_window ({self.fast_window!r}) must be <= "
                f"slow_window ({self.slow_window!r})"
            )
        if self.fast_burn <= 0 or self.slow_burn <= 0:
            raise ValueError("burn-rate thresholds must be positive")
        if self.n_buckets < 2:
            raise ValueError(f"n_buckets must be >= 2, got {self.n_buckets}")


@dataclasses.dataclass(frozen=True)
class PlatformSpec:
    """Everything an experiment needs, bundled."""

    host: HostSpec = dataclasses.field(default_factory=HostSpec)
    network: NetworkSpec = dataclasses.field(default_factory=NetworkSpec)
    smartds: SmartDsSpec = dataclasses.field(default_factory=SmartDsSpec)
    bluefield2: BlueField2Spec = dataclasses.field(default_factory=BlueField2Spec)
    bluefield3: BlueField3Spec = dataclasses.field(default_factory=BlueField3Spec)
    storage: StorageSpec = dataclasses.field(default_factory=StorageSpec)
    workload: WorkloadSpec = dataclasses.field(default_factory=WorkloadSpec)
    recovery: RecoverySpec = dataclasses.field(default_factory=RecoverySpec)
    cache: CacheSpec = dataclasses.field(default_factory=CacheSpec)
    admission: AdmissionSpec = dataclasses.field(default_factory=AdmissionSpec)
    cluster: ClusterSpec = dataclasses.field(default_factory=ClusterSpec)
    flight: FlightSpec = dataclasses.field(default_factory=FlightSpec)
    #: SLOs the tier should watch; empty (the default) builds no monitor.
    slos: tuple = ()


#: The default platform used by all experiments.
DEFAULT_PLATFORM = PlatformSpec()
