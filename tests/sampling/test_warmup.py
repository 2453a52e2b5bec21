"""Functional-warmup state coverage and skip-ahead orphaning."""

import pytest

from repro.cache.array import CacheArray
from repro.cache.tlb import Tlb
from repro.sampling.controller import _functional_skip
from repro.system.config import config_2d
from repro.system.machine import Machine
from repro.workloads.mixes import MIXES


def _lines(array: CacheArray) -> int:
    return sum(len(s) for s in array._sets)


# ----------------------------------------------------------------------
# CacheArray.touch — the fused hit-test/LRU/dirty primitive


def test_touch_miss_then_hit():
    array = CacheArray(4096, 4, 64)
    assert array.touch(0x1000) is False          # cold miss: no fill
    assert _lines(array) == 0
    array.fill(array.align(0x1000))
    assert array.touch(0x1000) is True
    assert array.touch(0x1010) is True           # same line, any offset


def test_touch_matches_lookup_lru_order():
    plain = CacheArray(4 * 64, 4, 64)            # one set, four ways
    fused = CacheArray(4 * 64, 4, 64)
    footprint = [i * plain.num_sets * 64 for i in range(6)]
    for addr in footprint[:4]:
        plain.fill(addr)
        fused.fill(addr)
    # Re-reference the first two lines, then overflow the set twice: the
    # fused and plain paths must evict the same victims.
    for addr in footprint[:2]:
        assert plain.lookup(addr) and fused.touch(addr)
    victims_plain = [plain.fill(addr) for addr in footprint[4:]]
    victims_fused = [fused.fill(addr) for addr in footprint[4:]]
    assert victims_plain == victims_fused


def test_touch_dirty_merge():
    array = CacheArray(64, 1, 64)                # single line
    array.fill(0)
    assert array.touch(0, dirty=True) is True
    victim = array.fill(64)                      # evict it
    assert victim == (0, True)


# ----------------------------------------------------------------------
# Tlb.touch — warmup fills without stats


def test_tlb_touch_fills_without_stats():
    tlb = Tlb(entries=8, assoc=2)
    tlb.touch(0x1000)
    assert tlb.contains(0x1000)
    assert tlb.stats.get("hits") == 0
    assert tlb.stats.get("misses") == 0
    # The detailed path then hits what warmup filled.
    assert tlb.access(0x1000) == 0
    assert tlb.stats.get("hits") == 1


# ----------------------------------------------------------------------
# Machine-level: the functional skip warms the hierarchy silently


@pytest.fixture(scope="module")
def skipped_machine():
    mix = MIXES["H1"]
    machine = Machine(
        config_2d(), list(mix.benchmarks), seed=42, workload_name=mix.name
    )
    _functional_skip(machine, 2000)
    return machine


def test_functional_skip_advances_cores(skipped_machine):
    for core in skipped_machine.cores:
        assert core.icount >= 2000


def test_functional_skip_warms_caches_and_tlb(skipped_machine):
    for core in skipped_machine.cores:
        assert _lines(core.l1.array) > 0
        assert core.tlb is None or any(s for s in core.tlb._sets)
    assert _lines(skipped_machine.l2.array) > 0


def test_functional_skip_schedules_nothing(skipped_machine):
    engine = skipped_machine.engine
    assert engine.now == 0
    assert engine.events_fired == 0
    assert skipped_machine.outstanding_requests() == 0


def test_functional_skip_counts_no_stats(skipped_machine):
    l2 = skipped_machine.l2
    assert l2.stats.get("core0_demand_accesses") == 0
    assert l2.stats.get("core0_demand_misses") == 0


# ----------------------------------------------------------------------
# skip_ahead orphaning: a mid-flight core can fast-forward without a
# drain, and the orphaned completions are harmless.


def test_skip_ahead_orphans_in_flight_work():
    mix = MIXES["H1"]
    machine = Machine(
        config_2d(), list(mix.benchmarks), seed=42, workload_name=mix.name
    )
    engine = machine.engine
    for core in machine.cores:
        core.start()
    engine.run(until=3000)
    assert machine.outstanding_requests() > 0     # genuinely mid-flight

    before = [core.icount for core in machine.cores]
    for core in machine.cores:
        assert core.skip_ahead(500) >= 500
        assert not core._outstanding               # orphaned, not drained
    for core, prev in zip(machine.cores, before):
        assert core.icount >= prev + 500

    # Orphaned completions fire and the cores keep committing.
    committed = [core.committed for core in machine.cores]
    engine.run(until=engine.now + 20_000)
    assert all(
        core.committed > prev
        for core, prev in zip(machine.cores, committed)
    )


# ----------------------------------------------------------------------
# Column-direct skip: a batched core fast-forwards straight off the
# trace columns, and lands in the same state as the row-form skip.


def test_batched_skip_reads_columns_not_items(monkeypatch):
    from repro.cpu.trace import BatchCursor

    def no_items(self):
        raise AssertionError("skip_ahead built a TraceItem")

    monkeypatch.setattr(BatchCursor, "next_item", no_items)
    mix = MIXES["H1"]
    machine = Machine(
        config_2d(), list(mix.benchmarks), seed=42, workload_name=mix.name
    )
    _functional_skip(machine, 2000)
    for core in machine.cores:
        assert core.icount >= 2000


def _sets(array):
    return [list(cache_set.items()) for cache_set in array._sets]


def _stopped_mid_flight(batched: bool) -> Machine:
    mix = MIXES["H1"]
    machine = Machine(
        config_2d(), list(mix.benchmarks), seed=42,
        workload_name=mix.name, batched=batched,
    )
    for core in machine.cores:
        core.start()
    machine.engine.run(until=3000)
    return machine


def test_parked_item_skip_matches_row_form():
    batched = _stopped_mid_flight(batched=True)
    scalar = _stopped_mid_flight(batched=False)
    # H1 at cycle 3000 parks ops behind both the ROB gate and a full L1
    # MSHR file, a store among them.
    parked = [core._pending_item for core in batched.cores]
    assert any(item is not None and item.is_write for item in parked)
    assert any(core._rob_blocked for core in batched.cores)
    assert parked == [core._pending_item for core in scalar.cores]

    for bcore, score in zip(batched.cores, scalar.cores):
        assert bcore._skip_direct and not score._skip_direct
        assert bcore.skip_ahead(700) == score.skip_ahead(700)
        assert bcore._pending_item is None and score._pending_item is None

    for bcore, score in zip(batched.cores, scalar.cores):
        assert _sets(bcore.l1.array) == _sets(score.l1.array)
        assert [list(s) for s in bcore.tlb._sets] == [
            list(s) for s in score.tlb._sets
        ]
        assert bcore.icount == score.icount
        # Same trace position: both streams continue with the same ops.
        assert [next(bcore.trace) for _ in range(5)] == [
            next(score.trace) for _ in range(5)
        ]
    assert _sets(batched.l2.array) == _sets(scalar.l2.array)
    assert list(batched.allocator._page_table.items()) == list(
        scalar.allocator._page_table.items()
    )
