"""SmartDS (ISCA 2023) reproduction library.

This package reproduces *SmartDS: Middle-Tier-centric SmartNIC Enabling
Application-aware Message Split for Disaggregated Block Storage* as a
discrete-event simulation of a disaggregated block-storage cloud: host
hardware models (CPU, memory, LLC/DDIO, PCIe), a RoCE network substrate,
storage servers with replication, several middle-tier server designs, and
the SmartDS SmartNIC with its application-aware message split (AAMS)
mechanism and RDMA-like API.

Top-level convenience re-exports cover the most common entry points; the
subpackages hold the full API:

- :mod:`repro.sim` -- discrete-event simulation kernel
- :mod:`repro.compression` -- LZ4 codec, synthetic Silesia-like corpus
- :mod:`repro.hostmodel` -- CPU / memory / cache / PCIe models
- :mod:`repro.net` -- links, NICs, RoCE transport
- :mod:`repro.storage` -- disks, chunk stores, storage servers
- :mod:`repro.middletier` -- baseline middle-tier designs
- :mod:`repro.core` -- the SmartDS device, AAMS, and its API
- :mod:`repro.workloads` -- request generators and MLC-style injectors
- :mod:`repro.experiments` -- one runnable experiment per paper table/figure
"""

from repro.sim.kernel import Simulator
from repro.units import gbps, gib, kib, mib, usec

__all__ = ["Simulator", "gbps", "gib", "kib", "mib", "usec"]

__version__ = "1.0.0"
