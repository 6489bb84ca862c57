"""Unit tests of AAMS internals: Split tables, Assemble, header cache."""

import pytest

from repro.core import SmartDsApi, SmartDsDevice
from repro.core.aams import SplitDescriptor
from repro.net import Message, NetworkPort, Payload, RoceEndpoint
from repro.params import PlatformSpec
from repro.sim import Simulator


def plain_endpoint(sim, name):
    platform = PlatformSpec()
    port = NetworkPort(sim, rate=platform.network.port_rate, name=f"{name}.port")
    return RoceEndpoint(sim, port, name, spec=platform.network)


def connected_device(sim, n_ports=1):
    device = SmartDsDevice(sim, n_ports=n_ports)
    api = SmartDsApi(device)
    vm = plain_endpoint(sim, "vm")
    qp = vm.connect(device.instance(0).endpoint)
    return device, api, vm, qp


class TestSplitModuleTables:
    def test_descriptors_match_fifo_per_qp(self):
        sim = Simulator()
        device, api, vm, qp = connected_device(sim)
        buffers = []
        events = []
        for _ in range(3):
            h_buf = api.host_alloc(64)
            d_buf = api.dev_alloc(4608)
            buffers.append(d_buf)
            events.append(api.dev_mixed_recv(qp.peer, h_buf, 64, d_buf, 4608))

        def sender():
            for i in range(3):
                yield qp.send(
                    Message(
                        "write_request", "vm", "t",
                        payload=Payload.synthetic(4096, 2.0),
                        header={"i": i},
                    )
                )

        sim.process(sender())
        sim.run()
        # FIFO: descriptor k served message k.
        for i, event in enumerate(events):
            assert event.event.processed
            assert event.message.header["i"] == i
            assert buffers[i].payload is event.message.payload

    def test_fresh_qp_never_inherits_a_dead_qps_table(self):
        """Descriptor tables are keyed by the QueuePair object, not id(qp).

        Regression: ``SplitModule._tables`` used to be keyed by
        ``id(qp)``. When a queue pair was garbage collected, CPython
        readily hands the same address to the next allocation, so a
        brand-new QP could inherit the dead QP's table — including any
        descriptors (and blocked ``pop`` getters) still queued on it.
        """
        from repro.net.roce import QueuePair

        sim = Simulator()
        device = SmartDsDevice(sim)
        split = device.instance(0).split
        vm = plain_endpoint(sim, "vm")
        dev_ep = device.instance(0).endpoint

        # Control: confirm the premise — dropping a QueuePair and
        # allocating another really does reuse object ids here, so an
        # id-keyed table *would* alias.
        seen, id_reused = set(), False
        for _ in range(200):
            probe = QueuePair(vm, dev_ep)
            if id(probe) in seen:
                id_reused = True
                break
            seen.add(id(probe))
        assert id_reused

        # The actual property: every distinct QP gets a distinct, fresh
        # table, however many dead QPs shared its address.
        tables = []
        for _ in range(200):
            qp = QueuePair(vm, dev_ep)
            table = split._table(qp)
            assert all(table is not earlier for earlier in tables)
            assert len(table) == 0
            tables.append(table)

        # And the module does not pin dead QPs: the weak-keyed mapping
        # evicts each dropped QP's entry instead of growing forever.
        del qp
        assert len(split._tables) <= 1

    @pytest.mark.drain_audit_exempt  # sender "a" is deliberately left waiting
    def test_separate_qps_have_separate_tables(self):
        sim = Simulator()
        device = SmartDsDevice(sim)
        api = SmartDsApi(device)
        vm_a = plain_endpoint(sim, "vmA")
        vm_b = plain_endpoint(sim, "vmB")
        qp_a = vm_a.connect(device.instance(0).endpoint)
        qp_b = vm_b.connect(device.instance(0).endpoint)
        # Post a descriptor only for qp_b; a message on qp_a must wait,
        # not steal qp_b's descriptor.
        h_buf = api.host_alloc(64)
        d_buf = api.dev_alloc(4608)
        event_b = api.dev_mixed_recv(qp_b.peer, h_buf, 64, d_buf, 4608)
        done = {}

        def sender(qp, tag):
            yield qp.send(Message("write_request", tag, "t", payload=Payload.synthetic(4096, 2.0)))
            done[tag] = sim.now

        sim.process(sender(qp_a, "a"))
        sim.process(sender(qp_b, "b"))
        sim.run(until=0.01)
        assert "b" in done
        assert "a" not in done  # still waiting for a descriptor
        assert event_b.event.processed

    def test_split_completion_carries_header_content(self):
        sim = Simulator()
        device, api, vm, qp = connected_device(sim)
        h_buf = api.host_alloc(64)
        d_buf = api.dev_alloc(4608)
        event = api.dev_mixed_recv(qp.peer, h_buf, 64, d_buf, 4608)

        def sender():
            yield qp.send(
                Message(
                    "write_request", "vm", "t",
                    payload=Payload.synthetic(4096, 2.0),
                    header={"vm_id": "vm7", "block_id": 42},
                )
            )

        sim.process(sender())
        sim.run()
        assert h_buf.content["vm_id"] == "vm7"
        assert h_buf.content["block_id"] == 42
        assert event.size == 4096

    def test_descriptor_post_validation(self):
        sim = Simulator()
        device, api, vm, qp = connected_device(sim)
        split = device.instance(0).split
        with pytest.raises(ValueError):
            split.post(
                SplitDescriptor(
                    qp=qp.peer,
                    h_buf=api.host_alloc(16),
                    h_size=64,  # exceeds the host buffer
                    d_buf=api.dev_alloc(4608),
                    d_size=4608,
                    event=sim.event(),
                )
            )


class TestAssembleHeaderCache:
    def _egress_bytes(self, device):
        return device.pcie.h2d_meter.total_bytes

    def test_replica_fanout_fetches_header_once(self):
        sim = Simulator()
        device, api, vm, qp = connected_device(sim)
        sink = plain_endpoint(sim, "sink")
        out_qp = device.instance(0).endpoint.connect(sink)
        payload = Payload.synthetic(2048, 1.0, )

        def sender():
            for _replica in range(3):
                message = Message(
                    "storage_write", "t", "sink",
                    header_size=64,
                    payload=payload,
                    header={"chunk_id": 5, "block_id": 9},
                )
                yield out_qp.send(message)

        sim.process(sender())
        sim.run()
        # One 64 B header fetch despite three sends.
        assert self._egress_bytes(device) == 64

    def test_distinct_blocks_fetch_their_own_headers(self):
        sim = Simulator()
        device, api, vm, qp = connected_device(sim)
        sink = plain_endpoint(sim, "sink")
        out_qp = device.instance(0).endpoint.connect(sink)

        def sender():
            for block_id in range(3):
                yield out_qp.send(
                    Message(
                        "storage_write", "t", "sink",
                        header_size=64,
                        payload=Payload.synthetic(1024, 1.0),
                        header={"chunk_id": 0, "block_id": block_id},
                    )
                )

        sim.process(sender())
        sim.run()
        assert self._egress_bytes(device) == 3 * 64

    def test_unkeyed_messages_always_fetch(self):
        """Messages without a block key (no chunk_id) can't be cached."""
        sim = Simulator()
        device, api, vm, qp = connected_device(sim)
        sink = plain_endpoint(sim, "sink")
        out_qp = device.instance(0).endpoint.connect(sink)

        def sender():
            for _ in range(2):
                yield out_qp.send(Message("control", "t", "sink", header_size=64))

        sim.process(sender())
        sim.run()
        assert self._egress_bytes(device) == 2 * 64

    def test_cache_evicts_lru_at_limit(self):
        """A full cache evicts its oldest entry, not the whole set.

        Regression: the cache used to be a plain ``set`` that was cleared
        wholesale at the limit, throwing away thousands of hot entries
        because one cold one arrived.
        """
        sim = Simulator()
        device, api, vm, qp = connected_device(sim)
        datapath = device.instance(0).datapath
        # Fill the cache artificially: entry 0 is the LRU victim.
        for i in range(datapath.HEADER_CACHE_LIMIT):
            datapath._header_cache[("storage_write", 0, i)] = {
                "chunk_id": 0, "block_id": i,
            }
        sink = plain_endpoint(sim, "sink")
        out_qp = device.instance(0).endpoint.connect(sink)

        def sender():
            yield out_qp.send(
                Message(
                    "storage_write", "t", "sink",
                    header_size=64,
                    payload=Payload.synthetic(512, 1.0),
                    header={"chunk_id": 1, "block_id": 10**6},
                )
            )

        sim.process(sender())
        sim.run()
        cache = datapath._header_cache
        assert len(cache) == datapath.HEADER_CACHE_LIMIT  # bounded, not cleared
        assert ("storage_write", 1, 10**6) in cache  # new entry installed
        assert ("storage_write", 0, 0) not in cache  # only the LRU left
        assert ("storage_write", 0, 1) in cache  # ... everything else survived

    def test_cache_hit_refreshes_recency(self):
        """Re-sending a cached header protects it from LRU eviction."""
        sim = Simulator()
        device, api, vm, qp = connected_device(sim)
        datapath = device.instance(0).datapath
        sink = plain_endpoint(sim, "sink")
        out_qp = device.instance(0).endpoint.connect(sink)

        def block_write(block_id):
            return Message(
                "storage_write", "t", "sink",
                header_size=64,
                payload=Payload.synthetic(512, 1.0),
                header={"chunk_id": 0, "block_id": block_id},
            )

        def sender():
            yield out_qp.send(block_write(1))
            yield out_qp.send(block_write(2))
            yield out_qp.send(block_write(1))  # hit: 1 becomes most recent

        sim.process(sender())
        sim.run()
        cache = datapath._header_cache
        assert next(iter(cache)) == ("storage_write", 0, 2)  # 2 is now LRU

    def test_cache_invalidated_when_header_content_changes(self):
        """Same (kind, chunk, block) with new header bytes must re-fetch.

        Regression: the cache used to remember only the *key*, so a
        rewritten header for the same block was served from cache — the
        wire would carry the stale header. Now the entry stores the
        content and a mismatch forces a fresh PCIe header fetch.
        """
        sim = Simulator()
        device, api, vm, qp = connected_device(sim)
        sink = plain_endpoint(sim, "sink")
        out_qp = device.instance(0).endpoint.connect(sink)

        def write(version):
            return Message(
                "storage_write", "t", "sink",
                header_size=64,
                payload=Payload.synthetic(512, 1.0),
                header={"chunk_id": 0, "block_id": 7, "version": version},
            )

        def sender():
            yield out_qp.send(write(1))  # miss: fetch
            yield out_qp.send(write(1))  # hit: no fetch
            yield out_qp.send(write(2))  # same key, new content: must fetch
            yield out_qp.send(write(2))  # hit again

        sim.process(sender())
        sim.run()
        assert self._egress_bytes(device) == 2 * 64


class TestHeaderOnlyCqePath:
    def test_ack_costs_a_cqe_not_a_frame(self):
        sim = Simulator()
        device, api, vm, qp = connected_device(sim)

        def sender():
            yield qp.send(Message("storage_ack", "vm", "t", header_size=64))

        sim.process(sender())
        sim.run()
        assert device.pcie.d2h_meter.total_bytes == device.spec.notify_bytes
