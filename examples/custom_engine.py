#!/usr/bin/env python
"""Deploying a different hardware engine (§4.1's extensibility claim).

The paper: "SmartDS provides a simple interface to deploy different
hardware engines according to the application scenario." This example
builds an *encryption-at-rest* middle tier: every block is LZ4-
compressed and then encrypted on the SmartDS engines before hitting
storage, and the read path inverts both — all through the same Table 2
API calls (`dev_func` with a different engine microprogram), with real
bytes verified end to end.

Run:  python examples/custom_engine.py
"""

from repro.compression import SilesiaLikeCorpus
from repro.core import SmartDsApi, SmartDsDevice
from repro.core.engines import (
    decrypt_op,
    encrypt_op,
    lz4_compress_op,
    lz4_decompress_op,
)
from repro.net import Message, NetworkPort, Payload, RoceEndpoint
from repro.params import DEFAULT_PLATFORM
from repro.sim import Simulator
from repro.units import to_usec

HEAD = 64
MAX = 4096 + 512


def endpoint(sim, name):
    port = NetworkPort(sim, rate=DEFAULT_PLATFORM.network.port_rate, name=f"{name}.port")
    return RoceEndpoint(sim, port, name, spec=DEFAULT_PLATFORM.network)


def main():
    sim = Simulator()
    device = SmartDsDevice(sim)
    api = SmartDsApi(device)
    vm = endpoint(sim, "vm")
    blocks = SilesiaLikeCorpus(seed=13, file_size=8192).blocks(4096)[:6]
    vault = {}  # what "storage" would hold: compressed + encrypted bytes
    log = []

    def secure_tier():
        ctx = api.open_roce_instance(0)
        qp = vm.connect(ctx.endpoint).peer
        h_buf = api.host_alloc(HEAD)
        d_in = api.dev_alloc(MAX)
        d_mid = api.dev_alloc(MAX)
        d_out = api.dev_alloc(MAX)
        for _ in range(len(blocks)):
            event = api.dev_mixed_recv(qp, h_buf, HEAD, d_in, MAX)
            yield from api.poll(event)
            t0 = sim.now
            # Stage 1: LZ4 on the engine (the default microprogram).
            stage1 = api.dev_func(d_in, event.size, d_mid, MAX, ctx.engine)
            yield from api.poll(stage1)
            # Stage 2: the same engine fabric, encryption microprogram.
            sealed = yield ctx.engine.run(d_mid, stage1.size, d_out, operation=encrypt_op)
            vault[h_buf.content["block_id"]] = sealed.data
            log.append((h_buf.content["block_id"], event.size, sealed.size, sim.now - t0))

    def client():
        qp = vm.queue_pairs[0]
        for block_id, data in enumerate(blocks):
            yield from qp.transmit(
                Message(
                    "write_request",
                    "vm",
                    "tier",
                    header_size=HEAD,
                    payload=Payload.from_bytes(data),
                    header={"block_id": block_id},
                )
            )

    sim.process(secure_tier())
    sim.run(until=1e-9)
    sim.process(client())
    sim.run()

    print("block  raw(B)  sealed(B)  engine time (us)")
    for block_id, raw, sealed, elapsed in log:
        print(f"{block_id:5d}  {raw:6d}  {sealed:9d}  {to_usec(elapsed):10.1f}")

    # Prove the vault contents are (a) unreadable as-is, (b) exactly
    # invertible: decrypt + decompress restores the original bytes.
    for block_id, original in enumerate(blocks):
        sealed = vault[block_id]
        assert sealed != original and original not in sealed
        opened = decrypt_op(Payload.from_bytes(sealed))
        restored = lz4_decompress_op(
            Payload(
                size=opened.size,
                data=opened.data,
                is_compressed=True,
                original_size=len(original),
            )
        )
        assert restored.data == original
    print(f"\nall {len(blocks)} blocks sealed at rest and restored bit-for-bit")
    print("same AAMS datapath, different engine microprogram - zero host involvement")


if __name__ == "__main__":
    main()
