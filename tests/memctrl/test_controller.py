"""Integration-style unit tests for one memory controller."""

import pytest

from repro.common.errors import SnapshotSchemaError
from repro.common.request import AccessType, MemoryRequest
from repro.dram.device import DramDevice
from repro.dram.timing import ddr2_commodity
from repro.engine import Engine
from repro.interconnect.bus import Bus
from repro.memctrl.controller import MemoryController
from repro.memctrl.mapping import AddressMapping
from repro.memctrl.schedulers import FrFcfsScheduler


def _mc(engine, queue_capacity=32, quantum=1, wire=0, width=64):
    mapping = AddressMapping(num_mcs=1, ranks_per_mc=2, banks_per_rank=2)
    device = DramDevice(ddr2_commodity(), num_ranks=2, banks_per_rank=2)
    # Stagger all refresh far away so latency math below is exact.
    for rank in device.ranks:
        rank.refresh.phase = 10**9
    bus = Bus(width_bytes=width, cycles_per_beat=1, wire_latency=wire)
    return MemoryController(
        0, engine, device, bus, FrFcfsScheduler(), mapping,
        queue_capacity=queue_capacity, quantum=quantum,
    )


def _read(addr, cb=None):
    return MemoryRequest(addr, AccessType.READ, callback=cb)


def test_read_miss_latency_components():
    engine = Engine()
    mc = _mc(engine)
    done = []
    assert mc.enqueue(_read(0x0, done.append))
    engine.run()
    t = ddr2_commodity()
    # CWF on a 1-beat-wide bus: tRCD + tCAS + 1 beat.
    assert done[0].completed_at == t.t_rcd + t.t_cas + 1
    assert done[0].row_buffer_hit is False


def test_second_access_same_row_hits():
    engine = Engine()
    mc = _mc(engine)
    done = []
    mc.enqueue(_read(0x0, done.append))
    engine.run()
    first_done = engine.now
    mc.enqueue(_read(0x40, done.append))
    engine.run()
    t = ddr2_commodity()
    assert done[1].row_buffer_hit is True
    assert done[1].completed_at - first_done == t.t_cas + 1


def test_wire_latency_charged_both_ways():
    engine = Engine()
    mc = _mc(engine, wire=10)
    done = []
    mc.enqueue(_read(0x0, done.append))
    engine.run()
    t = ddr2_commodity()
    assert done[0].completed_at == 10 + t.t_rcd + t.t_cas + 1 + 10


def test_write_completes_after_bank_accepts_data():
    engine = Engine()
    mc = _mc(engine)
    done = []
    request = MemoryRequest(0x0, AccessType.WRITEBACK, callback=done.append)
    assert mc.enqueue(request)
    engine.run()
    t = ddr2_commodity()
    # Bus transfer (1 beat) then row activation + write.
    assert done[0].completed_at == 1 + t.t_rcd + t.t_cas


def test_mrq_backpressure_and_waiters():
    engine = Engine()
    mc = _mc(engine, queue_capacity=1, quantum=4)
    accepted = [mc.enqueue(_read(0x0)), mc.enqueue(_read(0x1000))]
    assert accepted == [True, False]
    retried = []
    mc.wait_for_space(lambda: retried.append(engine.now))
    engine.run()
    assert retried, "waiter was never released"


def test_quantum_paces_command_issue():
    engine = Engine()
    quantum = 8
    mc = _mc(engine, quantum=quantum)
    # Two requests to different banks: no bank conflict, so issue times
    # are paced purely by the MC quantum.
    mc.enqueue(_read(0x0000))
    mc.enqueue(_read(0x1000))
    engine.run()
    issues = sorted(
        r.issued_to_dram_at for r in []
    )  # requests are internal; use stats instead
    assert mc.stats.get("issued") == 2


def test_issue_times_respect_quantum():
    engine = Engine()
    quantum = 8
    mc = _mc(engine, quantum=quantum)
    reqs = [_read(0x0000), _read(0x1000)]
    for r in reqs:
        mc.enqueue(r)
    engine.run()
    assert reqs[1].issued_to_dram_at - reqs[0].issued_to_dram_at >= quantum


def test_bank_conflict_keeps_request_queued():
    engine = Engine()
    mc = _mc(engine)
    # Same bank, different rows: the second must wait for the bank.
    a, b = _read(0x0000), _read(0x4000 * 2)  # page 0 and page 8 -> both bank 0
    mapping = mc.mapping
    assert mapping.decompose(a.addr).bank == mapping.decompose(b.addr).bank
    mc.enqueue(a)
    mc.enqueue(b)
    engine.run()
    assert b.issued_to_dram_at > a.issued_to_dram_at
    assert b.completed_at > a.completed_at


def test_row_hit_rate_stat():
    engine = Engine()
    mc = _mc(engine)
    mc.enqueue(_read(0x0))
    engine.run()
    mc.enqueue(_read(0x40))
    engine.run()
    assert mc.stats.get("row_hits") == 1
    assert mc.stats.get("row_misses") == 1


def test_rejects_bad_quantum():
    with pytest.raises(ValueError):
        _mc(Engine(), quantum=0)


def test_restore_refuses_v1_state():
    # A state from another seam version is refused, never guessed at.
    mc = _mc(Engine())
    with pytest.raises(SnapshotSchemaError) as excinfo:
        mc.restore_state({"v": 1, "fused_enabled": True}, ctx=None)
    assert excinfo.value.found == 1
    assert excinfo.value.expected == 2
