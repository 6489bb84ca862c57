"""Workload generators and background-pressure injectors.

- :class:`~repro.workloads.generators.WriteRequestFactory` builds the
  paper's 4 KB-block write requests, either synthetic (corpus-calibrated
  compression ratios) or functional (real corpus bytes);
- :class:`~repro.workloads.generators.ClientDriver` is the closed-loop
  load generator that plays the "one server keeps issuing write
  requests" role of §5.1 and records latency/throughput;
- :class:`~repro.workloads.generators.OpenLoopDriver` is the one
  open-loop issuer: requests arrive on a schedule regardless of
  completions, either Poisson writes at an offered rate (``run``) or a
  trace of reads and writes at its timestamps (``replay``), and a read
  waits for the client's in-flight write to its LBA;
- :mod:`~repro.workloads.traces` holds the trace format
  (:class:`~repro.workloads.traces.TraceEntry`) and a bursty synthetic
  trace generator;
- :class:`~repro.workloads.generators.SkewedReadFactory` draws reads
  from a Zipf distribution over the written LBA range (hot-block cache
  experiments);
- :class:`~repro.workloads.routing.RoutingClient` is the cluster-aware
  driver: it caches the segment directory's route map, routes each
  request to its owning shard, and retries on ``wrong_shard`` replies
  (``docs/scaling.md``);
- :class:`~repro.workloads.mlc.MlcInjector` reproduces the Intel Memory
  Latency Checker methodology of §3.1.2/§5.3: dummy memory requests
  injected with a configurable inter-request delay.
"""

from repro.workloads.generators import (
    ClientDriver,
    DriverResult,
    OpenLoopDriver,
    SkewedReadFactory,
    WriteRequestFactory,
)
from repro.workloads.mlc import MlcInjector
from repro.workloads.routing import RoutingClient

__all__ = [
    "ClientDriver",
    "DriverResult",
    "MlcInjector",
    "OpenLoopDriver",
    "RoutingClient",
    "SkewedReadFactory",
    "WriteRequestFactory",
]
