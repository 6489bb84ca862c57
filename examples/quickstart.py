#!/usr/bin/env python
"""Quickstart: the paper's Listing 1, runnable.

Builds one SmartDS-equipped middle-tier server, one VM client, and one
storage server, then serves a handful of write requests through the
Table 2 API — split recv, host-side header parsing, hardware-engine
LZ4 compression, mixed send — using *real bytes* from the synthetic
Silesia-like corpus, and finally reads a block back and verifies it
bit-for-bit.

Run:  python examples/quickstart.py
"""

from repro.compression import SilesiaLikeCorpus, lz4_decompress
from repro.core import SmartDsApi, SmartDsDevice
from repro.hostmodel import DdioLlc, MemorySubsystem
from repro.net import Message, NetworkPort, Payload, RoceEndpoint
from repro.params import DEFAULT_PLATFORM
from repro.sim import Simulator
from repro.units import to_usec

HEAD_SIZE = 64
MAX_SIZE = 4096 + 512
N_REQUESTS = 8


def make_endpoint(sim, name):
    port = NetworkPort(sim, rate=DEFAULT_PLATFORM.network.port_rate, name=f"{name}.port")
    return RoceEndpoint(sim, port, name, spec=DEFAULT_PLATFORM.network)


def main():
    sim = Simulator()
    host_memory = MemorySubsystem.for_host(sim)
    device = SmartDsDevice(sim, host_memory=host_memory, host_llc=DdioLlc())
    api = SmartDsApi(device)

    vm = make_endpoint(sim, "vm0")
    storage = make_endpoint(sim, "storage0")
    blocks = SilesiaLikeCorpus(seed=7, file_size=8192).blocks(4096)[:N_REQUESTS]
    stored = {}  # block_id -> compressed bytes, as the storage server sees them
    log = []

    def middle_tier():
        # --- Listing 1, lines 2-11: buffers and queue pairs -----------------
        h_buf_recv = api.host_alloc(MAX_SIZE)
        h_buf_send = api.host_alloc(MAX_SIZE)
        d_buf_recv = api.dev_alloc(MAX_SIZE)
        d_buf_send = api.dev_alloc(MAX_SIZE)
        ctx = api.open_roce_instance(0)
        qp_recv = vm.connect(ctx.endpoint).peer
        qp_send = ctx.connect_qp(storage)

        for _ in range(N_REQUESTS):
            # --- lines 14-17: split recv --------------------------------------
            e = api.dev_mixed_recv(qp_recv, h_buf_recv, HEAD_SIZE, d_buf_recv, MAX_SIZE)
            yield from api.poll(e)
            payload_size = e.size
            t_recv = sim.now

            # --- lines 19-21: flexible host-side processing ----------------
            parsed = h_buf_recv.content
            h_buf_send.content = {"kind": "storage_write", **parsed}

            if parsed.get("latency_sensitive"):
                # --- lines 24-27: forward the raw block -------------------
                e = api.dev_mixed_send(qp_send, h_buf_send, HEAD_SIZE, d_buf_recv, payload_size)
                yield from api.poll(e)
                log.append((parsed["block_id"], payload_size, payload_size, sim.now - t_recv))
            else:
                # --- lines 29-35: compress on engine 0, then send ---------
                e = api.dev_func(d_buf_recv, payload_size, d_buf_send, MAX_SIZE, ctx.engine)
                yield from api.poll(e)
                compressed_size = e.size
                e = api.dev_mixed_send(
                    qp_send, h_buf_send, HEAD_SIZE, d_buf_send, compressed_size
                )
                yield from api.poll(e)
                log.append(
                    (parsed["block_id"], payload_size, compressed_size, sim.now - t_recv)
                )

    def client():
        qp = vm.queue_pairs[0]
        for block_id, data in enumerate(blocks):
            message = Message(
                kind="write_request",
                src="vm0",
                dst="tier0",
                header_size=HEAD_SIZE,
                payload=Payload.from_bytes(data),
                header={"vm_id": "vm0", "block_id": block_id, "latency_sensitive": False},
            )
            yield from qp.transmit(message)

    def storage_server():
        qp = storage.queue_pairs[0]
        while True:
            message = yield qp.recv()
            stored[message.header["block_id"]] = message.payload.data

    sim.process(middle_tier())
    sim.run(until=1e-9)  # let the middle tier create its queue pairs first
    sim.process(client())
    # Daemon: the storage loop waits for traffic forever by design.
    sim.process(storage_server(), daemon=True)
    sim.run()

    print("block  raw(B)  compressed(B)  ratio  tier latency (us)")
    for block_id, raw, compressed, latency in log:
        print(
            f"{block_id:5d}  {raw:6d}  {compressed:13d}  {raw / compressed:5.2f}"
            f"  {to_usec(latency):8.1f}"
        )

    # Verify what landed on storage decompresses back to the original bytes.
    for block_id, data in enumerate(blocks):
        assert lz4_decompress(stored[block_id]) == data, f"block {block_id} corrupted!"
    print(f"\nall {len(blocks)} blocks verified bit-for-bit on storage")
    print(f"host DRAM bytes touched by payloads: {host_memory.total_bytes}  (AAMS at work)")


if __name__ == "__main__":
    main()
