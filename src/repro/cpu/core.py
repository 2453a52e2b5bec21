"""Trace-driven simplified out-of-order core.

The model keeps the three constraints that determine memory-system-bound
performance and drops the rest of the microarchitecture:

* **Front-end pacing** — instructions dispatch at most ``width`` per
  cycle (Table 1: 4 micro-ops/cycle).
* **ROB window** — a memory op can only be in flight while it is within
  ``rob_size`` instructions of the oldest uncommitted memory op, which is
  what bounds memory-level parallelism (96 entries in Table 1).  The L1
  MSHR file (8 entries) bounds *distinct outstanding lines*.
* **In-order commit** — loads block commit until their data returns;
  stores drain through a store buffer and commit immediately.  Commit is
  paced at ``base_cpi`` cycles per instruction, an aggregate stand-in for
  execution-core effects (dependencies, branch mispredictions) that the
  per-benchmark workload specs calibrate.

The paper's measurement methodology is reproduced: statistics freeze when
a core commits its instruction quota, but the core keeps executing so it
continues to contend for the shared L2, MSHRs and memory.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from math import ceil
from typing import Deque, Optional

from ..common.address import PageAllocator
from ..common.request import AccessType, MemoryRequest
from ..common.stats import StatRegistry
from ..engine.simulator import Engine
from ..cache.l1 import L1Cache
from ..cache.prefetch import IpStridePrefetcher, NextLinePrefetcher
from ..cache.replacement import LruPolicy
from .trace import BatchedTrace, Trace, TraceItem

_READ = AccessType.READ
_WRITE = AccessType.WRITE

#: Smallest quiescent-window width (cycles) worth entering the fused
#: dispatch path for; below this the setup cost exceeds the win.
_MIN_FUSE_WINDOW = 8


class _InFlight:
    """One dispatched memory op awaiting commit."""

    __slots__ = ("icount", "is_write", "completed_time")

    def __init__(self, icount: int, is_write: bool, completed_time: Optional[int]):
        self.icount = icount
        self.is_write = is_write
        self.completed_time = completed_time


class Core:
    """One core executing an endless memory trace."""

    # Dispatch and commit read dozens of attributes per event; slot
    # storage makes each of those loads an index instead of a dict probe.
    __slots__ = (
        "engine",
        "core_id",
        "trace",
        "l1",
        "allocator",
        "stats",
        "_c_rob_stalls",
        "_c_tlb_walk_cycles",
        "_c_l1_mshr_stalls",
        "_c_dispatched_refs",
        "_c_load_latency_sum",
        "_c_loads_completed",
        "width",
        "rob_size",
        "base_cpi",
        "tlb",
        "icount",
        "committed",
        "_outstanding",
        "_pending_item",
        "_next_dispatch_time",
        "_last_commit_time",
        "_last_commit_icount",
        "_dispatch_scheduled",
        "_commit_scheduled",
        "_rob_blocked",
        "_l1_blocked",
        "_paused",
        "_measure_start_icount",
        "_measure_start_time",
        "measure_quota",
        "frozen",
        "frozen_ipc",
        "on_frozen",
        "_commit_watch",
        "_on_commit_watch",
        "ras_monitor",
        "_commit_event",
        "_cursor",
        "_trace_items",
        "_page_shift",
        "_fuse_ready",
        "_fuse_fails",
        "_fuse_skip",
        "_hit_fast",
        "_skip_direct",
    )

    def __init__(
        self,
        engine: Engine,
        core_id: int,
        trace: Trace,
        l1: L1Cache,
        allocator: PageAllocator,
        registry: Optional[StatRegistry] = None,
        width: int = 4,
        rob_size: int = 96,
        base_cpi: float = 0.4,
        tlb=None,
    ) -> None:
        if width < 1 or rob_size < 1:
            raise ValueError("width and rob_size must be >= 1")
        if base_cpi <= 0:
            raise ValueError("base_cpi must be positive")
        self.engine = engine
        self.core_id = core_id
        self.trace = trace
        self.l1 = l1
        self.allocator = allocator
        registry = registry if registry is not None else StatRegistry()
        self.stats = registry.group(f"core{core_id}")
        # Bound counter slots for the dispatch/commit hot path.
        self._c_rob_stalls = self.stats.counter("rob_stalls")
        self._c_tlb_walk_cycles = self.stats.counter("tlb_walk_cycles")
        self._c_l1_mshr_stalls = self.stats.counter("l1_mshr_stalls")
        self._c_dispatched_refs = self.stats.counter("dispatched_refs")
        self._c_load_latency_sum = self.stats.counter("load_latency_sum")
        self._c_loads_completed = self.stats.counter("loads_completed")
        self.width = width
        self.rob_size = rob_size
        self.base_cpi = base_cpi
        # Optional DTLB (Table 1): a miss delays the access by the walk
        # penalty; the retry then hits because the walk filled the entry.
        self.tlb = tlb

        self.icount = 0  # instructions dispatched so far
        self.committed = 0  # instructions committed so far
        self._outstanding: Deque[_InFlight] = deque()
        self._pending_item: Optional[TraceItem] = None
        self._next_dispatch_time = 0
        self._last_commit_time = 0
        self._last_commit_icount = 0
        self._dispatch_scheduled = False
        self._commit_scheduled = False
        self._rob_blocked = False
        self._l1_blocked = False
        self._paused = False

        # Measurement window (the paper's freeze-but-keep-running).
        self._measure_start_icount: Optional[int] = None
        self._measure_start_time: Optional[int] = None
        self.measure_quota: Optional[int] = None
        self.frozen = False
        self.frozen_ipc: Optional[float] = None
        # Invoked once when the measurement quota is reached (the machine
        # uses it to snapshot shared-structure statistics per core).
        self.on_frozen = None
        # One-shot commit watch (see watch_commit).
        self._commit_watch: Optional[int] = None
        self._on_commit_watch = None
        # RAS consumption seam (repro.ras): None on a fault-free machine,
        # so the data-return path tests one never-true attribute branch.
        self.ras_monitor = None

        # Array-batched fast path: when the trace is columnar and the
        # configuration is provably replicable (see _compute_fuse_ready),
        # _dispatch may consume whole L1-hit runs in one event.
        self._commit_event = None
        self._cursor = (
            trace.cursor() if isinstance(trace, BatchedTrace) else None
        )
        # Scalar-trace consumption counter: with no cursor the trace is
        # a plain iterator, so snapshot restore replays position by
        # pulling this many items from a freshly generated stream.
        self._trace_items = 0
        self._page_shift = allocator._page_shift
        self._fuse_ready = self._compute_fuse_ready()
        # Deterministic fusion backoff: when fused attempts keep failing
        # (busy engine, miss-heavy run), probing the window every single
        # dispatch is wasted work.  Failures grow a skip budget; any
        # success resets it.  Skipping an attempt is always safe — the
        # scalar path below is bit-identical.
        self._fuse_fails = 0
        self._fuse_skip = 0
        # Inline L1-hit fast path: a verified tag hit dispatches without
        # acquiring a pooled MemoryRequest (the scalar hit path completes
        # the request synchronously, so the object is pure overhead).
        # Requires power-of-two set indexing; every mutation and schedule
        # call matches l1.access + _on_data exactly.
        self._hit_fast = (
            isinstance(l1, L1Cache) and l1.array._set_mask is not None
        )
        # Column-direct functional skip (see _skip_columns): the same
        # power-of-two indexing, plus a TLB that shares the allocator's
        # page size so one shift yields both VPNs.
        self._skip_direct = (
            self._cursor is not None
            and self._hit_fast
            and (
                tlb is None
                or (
                    tlb._set_mask is not None
                    and tlb._page_shift == self._page_shift
                )
            )
        )

    def _compute_fuse_ready(self) -> bool:
        """Static gate for the fused dispatch path.

        Every condition here guarantees some exactness argument of
        :meth:`_fused_dispatch`; anything unusual (non-power-of-two
        geometry, an unknown prefetcher, a reduced engine) falls back to
        the scalar path permanently and silently.
        """
        if self._cursor is None:
            return False
        l1 = self.l1
        if not isinstance(l1, L1Cache):
            return False
        array = l1.array
        if array._set_mask is None:
            return False
        if array.num_sets * array.line_size > self.allocator.page_size:
            # The set-index bits must sit inside the page offset so the
            # batch's virtual set-index column survives translation.
            return False
        engine = self.engine
        for name in ("cycle_quiescent", "peek_next_time", "run_deadline"):
            if not hasattr(engine, name):
                return False
        if self.tlb is not None and self.tlb._set_mask is None:
            return False
        prefetcher = l1.prefetcher
        if prefetcher is not None:
            members = getattr(prefetcher, "prefetchers", [prefetcher])
            for p in members:
                if not isinstance(
                    p, (NextLinePrefetcher, IpStridePrefetcher)
                ):
                    return False
        return True

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin fetching the trace (call once, at time 0 or later)."""
        self._schedule_dispatch(self.engine.now)

    def begin_measurement(self, quota: int) -> None:
        """Start the measured window: IPC counts from this instant."""
        if quota < 1:
            raise ValueError("quota must be >= 1")
        self._measure_start_icount = self.committed
        self._measure_start_time = self.engine.now
        self.measure_quota = quota
        self.frozen = False
        self.frozen_ipc = None

    def watch_commit(self, threshold: int, callback) -> None:
        """Invoke ``callback(self)`` once when ``committed`` reaches ``threshold``.

        Fires immediately if the threshold is already met, otherwise from
        inside the commit event that crosses it.  The machine uses this to
        end the warmup phase without polling a predicate on every event.
        """
        if self.committed >= threshold:
            callback(self)
        else:
            self._commit_watch = threshold
            self._on_commit_watch = callback

    @property
    def measurement_done(self) -> bool:
        return self.frozen

    # ------------------------------------------------------------------
    # Sampled simulation (phase switching)
    # ------------------------------------------------------------------
    @property
    def drained(self) -> bool:
        """No dispatched memory op awaits commit."""
        return not self._outstanding

    def pause(self) -> None:
        """Stop dispatching new work; in-flight ops keep committing.

        The sampling controller pauses every core, runs the engine until
        the hierarchy drains, fast-forwards functionally, then resumes.
        """
        self._paused = True

    def resume(self) -> None:
        """Re-enable dispatch after a functional-warmup phase."""
        if not self._paused:
            return
        self._paused = False
        self._schedule_dispatch(self.engine.now)

    def skip_ahead(self, instructions: int) -> int:
        """Functionally execute at least ``instructions`` instructions.

        Consumes the trace and applies every reference to the TLB and
        cache hierarchy through their functional (state-only) paths — no
        events, no timing, no statistics.  A parked op (ROB stall, TLB
        walk or MSHR reject) is applied first.

        With a columnar trace and power-of-two TLB/L1 indexing the skip
        reads the batch columns directly and inlines the TLB touch, the
        page-table hit and the L1 tag hit (see :meth:`_skip_columns`);
        only L1 misses leave the core, straight to the next level's
        functional fetch.  Otherwise each item goes through
        ``Tlb.touch``, ``PageAllocator.translate`` and
        ``L1Cache.functional_access`` (see :meth:`_skip_rows`).  Both
        make the same state transitions in the same order.

        In-flight ops are *orphaned*, not drained: their memory requests
        stay in the MSHRs and controller queues and complete later at
        their real latencies, so queue occupancy carries across the skip
        and the next detailed phase starts against live contention
        instead of an artificially empty memory system.  The orphans
        simply never commit — the skip advances ``committed`` past them
        wholesale and re-anchors commit pacing at the current cycle.

        Returns the number of instructions skipped.
        """
        start = self.icount
        target = start + instructions
        if self._skip_direct:
            self.icount = self._skip_columns(start, target)
        else:
            self.icount = self._skip_rows(start, target)
        # Orphan whatever was in flight: completions still arrive (and
        # count their real latencies) but nothing is left to commit.
        self._outstanding.clear()
        self._rob_blocked = False
        # A registered on_mshr_free waiter may still fire later; its
        # _resume_after_l1 just re-schedules dispatch, which is harmless.
        self._l1_blocked = False
        self.committed = self.icount
        self._last_commit_icount = self.icount
        now = self.engine.now
        self._last_commit_time = now
        self._next_dispatch_time = now
        if not self._paused:
            self._schedule_dispatch(now)
        return self.icount - start

    def _skip_rows(self, icount: int, target: int) -> int:
        """Row-form functional skip: one TraceItem and method chain per op."""
        item = self._pending_item
        self._pending_item = None
        trace = self.trace
        tlb_touch = self.tlb.touch if self.tlb is not None else None
        translate = self.allocator.translate
        functional_access = self.l1.functional_access
        pulled = 0
        while icount < target:
            if item is None:
                item = next(trace)
                pulled += 1
            icount += item.gap + 1
            addr = item.addr
            if tlb_touch is not None:
                tlb_touch(addr)
            functional_access(translate(addr), item.pc, item.is_write)
            item = None
        if self._cursor is None:
            self._trace_items += pulled
        return icount

    def _skip_columns(self, icount: int, target: int) -> int:
        """Column-direct functional skip over the cursor's batches.

        Per op: the ``Tlb.touch`` transitions, the page-table hit of
        ``PageAllocator.translate`` and the hit half of
        ``L1Cache.functional_access`` (``CacheArray.touch``), inlined.
        An L1 miss takes the rest of ``functional_access`` — next-level
        ``functional_fetch``, ``array.fill``, dirty-victim
        ``functional_writeback`` — without probing the tags again.
        """
        item = self._pending_item
        if item is not None:
            self._pending_item = None
            if icount < target:
                icount += item.gap + 1
                addr = item.addr
                if self.tlb is not None:
                    self.tlb.touch(addr)
                self.l1.functional_access(
                    self.allocator.translate(addr), item.pc, item.is_write
                )
        tlb = self.tlb
        tlb_sets = tlb_mask = tlb_assoc = None
        if tlb is not None:
            tlb_sets = tlb._sets
            tlb_mask = tlb._set_mask
            tlb_assoc = tlb.assoc
        allocator = self.allocator
        page_table = allocator._page_table
        translate = allocator.translate
        offset_mask = allocator._offset_mask
        page_shift = self._page_shift
        l1 = self.l1
        array = l1.array
        sets = array._sets
        align_mask = array._align_mask
        line_shift = array._line_shift
        set_mask = array._set_mask
        # LRU's access hook is move_to_end; other policies keep their
        # own per-set metadata and go through the hook.
        on_access = (
            None if isinstance(array.policy, LruPolicy) else array._on_access
        )
        fill = array.fill
        functional_fetch = l1.l2.functional_fetch
        functional_writeback = l1.l2.functional_writeback
        core_id = self.core_id
        cursor = self._cursor
        batch = cursor.batch
        i = cursor.index
        if batch is None:
            n = 0
        else:
            n = batch.length
            gaps = batch.gaps
            addrs = batch.addrs
            writes = batch.writes
            pcs = batch.pcs
        while icount < target:
            if i >= n:
                batch = cursor.advance_batch()
                i = 0
                n = batch.length
                gaps = batch.gaps
                addrs = batch.addrs
                writes = batch.writes
                pcs = batch.pcs
            icount += gaps[i] + 1
            addr = addrs[i]
            vpn = addr >> page_shift
            if tlb_sets is not None:
                tlb_set = tlb_sets[vpn & tlb_mask]
                if vpn in tlb_set:
                    tlb_set.move_to_end(vpn)
                else:
                    if len(tlb_set) >= tlb_assoc:
                        tlb_set.popitem(last=False)
                    tlb_set[vpn] = True
            frame = page_table.get(vpn)
            if frame is None:
                paddr = translate(addr)
            else:
                paddr = (frame << page_shift) | (addr & offset_mask)
            line = paddr & align_mask
            set_idx = (line >> line_shift) & set_mask
            cache_set = sets[set_idx]
            if line in cache_set:
                if writes[i]:
                    cache_set[line] = True
                if on_access is None:
                    cache_set.move_to_end(line)
                else:
                    on_access(cache_set, set_idx, line)
            else:
                is_write = writes[i] != 0
                functional_fetch(line, core_id, pcs[i])
                victim = fill(line, is_write)
                if victim is not None and victim[1]:
                    functional_writeback(victim[0])
            i += 1
        cursor.index = i
        return icount

    @property
    def ipc(self) -> float:
        """Committed IPC over the measurement window (live or frozen)."""
        if self.frozen_ipc is not None:
            return self.frozen_ipc
        if self._measure_start_time is None:
            start_i, start_t = 0, 0
        else:
            start_i, start_t = self._measure_start_icount, self._measure_start_time
        elapsed = self.engine.now - start_t
        if elapsed <= 0:
            return 0.0
        return (self.committed - start_i) / elapsed

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _schedule_dispatch(self, at: int) -> None:
        if self._dispatch_scheduled:
            return
        self._dispatch_scheduled = True
        engine = self.engine
        now = engine.now
        engine.schedule_at(at if at > now else now, self._dispatch)

    def _dispatch(self) -> None:
        self._dispatch_scheduled = False
        if self._l1_blocked or self._paused:
            return
        engine = self.engine
        now = engine.now
        if now < self._next_dispatch_time:
            self._schedule_dispatch(self._next_dispatch_time)
            return

        item = self._pending_item
        cursor = self._cursor
        if item is not None:
            gap = item.gap
            addr = item.addr
            is_write = item.is_write
            pc = item.pc
        elif cursor is not None:
            if (
                self._fuse_ready
                and self.ras_monitor is None
                and not self.l1._poisoned_lines
            ):
                skip = self._fuse_skip
                if skip:
                    self._fuse_skip = skip - 1
                elif self._fused_dispatch():
                    self._fuse_fails = 0
                    return
                else:
                    fails = self._fuse_fails + 1
                    self._fuse_fails = fails
                    if fails >= 4:
                        self._fuse_skip = 64 if fails >= 16 else 4 * fails
            # Column-direct item read: no TraceItem is materialised
            # unless the op has to be parked as a pending item below.
            batch = cursor.batch
            i = cursor.index
            if batch is None or i >= batch.length:
                batch = cursor.advance_batch()
                i = 0
            gap = batch.gaps[i]
            addr = batch.addrs[i]
            is_write = batch.writes[i] != 0
            pc = batch.pcs[i]
            cursor.index = i + 1
        else:
            item = next(self.trace)
            self._trace_items += 1
            gap = item.gap
            addr = item.addr
            is_write = item.is_write
            pc = item.pc
        next_icount = self.icount + gap + 1

        # ROB occupancy gate: the new op must fit in the window with the
        # oldest uncommitted op.
        if self._outstanding and (
            next_icount - self._outstanding[0].icount >= self.rob_size
        ):
            if item is None:
                item = TraceItem(gap, addr, is_write, pc)
            self._pending_item = item
            self._rob_blocked = True
            self._c_rob_stalls.value += 1.0
            return  # resumed by commit

        tlb = self.tlb
        if tlb is not None:
            # Inlined Tlb.access (same mutations, same stat order); the
            # method remains the path for non-power-of-two set counts.
            mask = tlb._set_mask
            if mask is not None:
                vpn = addr >> tlb._page_shift
                tlb_set = tlb._sets[vpn & mask]
                if vpn in tlb_set:
                    tlb_set.move_to_end(vpn)
                    tlb._c_hits.value += 1.0
                    walk_penalty = 0
                else:
                    tlb._c_misses.value += 1.0
                    if len(tlb_set) >= tlb.assoc:
                        tlb_set.popitem(last=False)
                    tlb_set[vpn] = True
                    walk_penalty = tlb.walk_penalty
            else:
                walk_penalty = tlb.access(addr)
            if walk_penalty:
                if item is None:
                    item = TraceItem(gap, addr, is_write, pc)
                self._pending_item = item
                self._next_dispatch_time = now + walk_penalty
                self._c_tlb_walk_cycles.value += walk_penalty
                self._schedule_dispatch(self._next_dispatch_time)
                return

        # Inlined PageAllocator.translate hit path; first touches (and
        # capacity wraps) take the method.
        allocator = self.allocator
        shift = self._page_shift
        frame = allocator._page_table.get(addr >> shift)
        if frame is None:
            paddr = allocator.translate(addr)
        else:
            paddr = (frame << shift) | (addr & allocator._offset_mask)
        l1 = self.l1
        if (
            self._hit_fast
            and self.ras_monitor is None
            and not l1._poisoned_lines
        ):
            array = l1.array
            line = paddr & array._align_mask
            set_idx = (line >> array._line_shift) & array._set_mask
            cache_set = array._sets[set_idx]
            if line in cache_set:
                # Inline L1 hit: the same mutations, in the same order,
                # as l1.access + the synchronous _on_data — minus the
                # pooled request object (pooling is stat-free).
                l1._c_accesses.value += 1.0
                array._on_access(cache_set, set_idx, line)
                l1._c_hits.value += 1.0
                if is_write:
                    cache_set[line] = True
                    array._on_access(cache_set, set_idx, line)
                self._c_load_latency_sum.value += l1.latency
                self._c_loads_completed.value += 1.0
                if not self._commit_scheduled:
                    self._commit_scheduled = True
                    self._commit_event = engine.schedule_at(
                        now, self._commit
                    )
                l1._train_prefetcher(paddr, pc, was_miss=False)
                self._pending_item = None
                self.icount = next_icount
                self._outstanding.append(
                    _InFlight(next_icount, is_write, now)
                )
                self._c_dispatched_refs.value += 1.0
                front_end = -(-(gap + 1) // self.width)
                self._next_dispatch_time = now + front_end
                # Inlined _schedule_dispatch (front_end >= 1 keeps the
                # target strictly in the future, so no now-clamp).
                if not self._dispatch_scheduled:
                    self._dispatch_scheduled = True
                    engine.schedule_at(now + front_end, self._dispatch)
                return

        inflight = _InFlight(next_icount, is_write, None)
        access = _WRITE if is_write else _READ
        request = MemoryRequest.acquire(
            paddr,
            access,
            self.core_id,
            pc,
            now,
            partial(self._on_data, inflight),
        )
        if not l1.access(request):
            if item is None:
                item = TraceItem(gap, addr, is_write, pc)
            self._pending_item = item
            self._l1_blocked = True
            self._c_l1_mshr_stalls.value += 1.0
            l1.on_mshr_free(self._resume_after_l1)
            # A rejected request was merged nowhere; recycle it (the
            # retry acquires a fresh one, same as re-construction did).
            request.release()
            return

        self._pending_item = None
        self.icount = next_icount
        self._outstanding.append(inflight)
        if is_write:
            # Stores commit from the store buffer without waiting for data.
            inflight.completed_time = now
            if not self._commit_scheduled:
                self._commit_scheduled = True
                self._commit_event = engine.schedule_at(now, self._commit)
        self._c_dispatched_refs.value += 1.0
        # Integer ceil-division; gap >= 0 keeps this >= 1 by construction.
        front_end = -(-(gap + 1) // self.width)
        self._next_dispatch_time = now + front_end
        if not self._dispatch_scheduled:
            self._dispatch_scheduled = True
            engine.schedule_at(now + front_end, self._dispatch)

    def _fused_dispatch(self) -> bool:
        """Consume a run of consecutive L1-hit trace items in one event.

        Inside a *quiescent window* — a span of cycles in which no
        foreign event can fire — every structure the hit path reads
        (TLB sets, page table, tag array, MSHR occupancy) is static, so
        residency can be checked for a whole run up front and the
        per-item work collapses into three phases:

        1. **Scan** (read-only): walk the batch's derived columns from
           the cursor, stopping at the first TLB miss, unallocated page,
           tag miss, or surviving prefetch candidate.
        2. **Timing**: a (time, seq)-ordered virtual merge of the
           dispatch and commit event sources, replicating the scalar
           pacing arithmetic (front-end width, ROB gate, commit CPI)
           without touching the engine.
        3. **Apply**: bulk statistics and replacement/TLB/prefetcher
           state updates for exactly the items the timing loop admitted.

        Returns True when at least one item was consumed — in which
        case every statistic, state bit and future event is identical
        to what the scalar path would have produced — or False to fall
        through to the scalar path with nothing mutated.
        """
        engine = self.engine
        if not engine.cycle_quiescent():
            return False
        now = engine.now

        # Window: (now, wend) must contain no foreign event.  Our own
        # pending commit is absorbed into the virtual loop instead.
        c_event = self._commit_event if self._commit_scheduled else None
        limit_cycles = getattr(engine, "horizon", 512) - 1
        wend = engine.peek_next_time(limit_cycles, ignore=c_event)
        if wend is None:
            wend = now + limit_cycles + 1
        deadline = engine.run_deadline
        if deadline is not None and wend > deadline + 1:
            wend = deadline + 1
        if wend - now < _MIN_FUSE_WINDOW:
            return False

        cursor = self._cursor
        batch = cursor.batch
        if batch is None or cursor.index >= batch.length:
            try:
                batch = cursor.advance_batch()
            except StopIteration:
                return False  # scalar path raises the same exhaustion
        start = cursor.index

        # Instruction cap: keep commit-watch and measurement-quota
        # crossings out of the window, so virtual commits never have to
        # run their callbacks.  Dispatched icounts stay below the cap,
        # hence so does every committed icount.
        icap = self._commit_watch
        if (
            not self.frozen
            and self.measure_quota is not None
            and self._measure_start_icount is not None
        ):
            quota_cap = self._measure_start_icount + self.measure_quota
            if icap is None or quota_cap < icap:
                icap = quota_cap
        if icap is not None and self.icount >= icap:
            return False

        l1 = self.l1
        array = l1.array
        derived = batch.derived(
            self._page_shift, array._line_shift, array._set_mask
        )
        vpns = derived.vpns
        line_offsets = derived.line_offsets
        sets_col = derived.sets
        addrs = batch.addrs

        # --- Phase 1: read-only scan for the fusable prefix. ----------
        scan_stop = batch.length
        max_items = wend - now  # dispatch advances >= 1 cycle per item
        if scan_stop - start > max_items:
            scan_stop = start + max_items
        allocator = self.allocator
        page_table = allocator._page_table
        offset_mask = allocator._offset_mask
        page_shift = self._page_shift
        plines = []
        paddrs = []
        tlb = self.tlb
        tlb_sets = tlb_mask = None
        if tlb is not None:
            tlb_sets = tlb._sets
            tlb_mask = tlb._set_mask
        # Page-span walk: consecutive same-vpn items (the common shape —
        # a 4 KiB page holds 64 lines) share one TLB probe and one page
        # lookup, and the physical columns fill by comprehension.
        i = start
        while i < scan_stop:
            vpn = vpns[i]
            if tlb is not None and vpn not in tlb_sets[vpn & tlb_mask]:
                break  # TLB miss: the scalar path does the walk
            frame = page_table.get(vpn)
            if frame is None:
                break  # first touch: the scalar path allocates
            j = i + 1
            while j < scan_stop and vpns[j] == vpn:
                j += 1
            base = frame << page_shift
            plines += [base | off for off in line_offsets[i:j]]
            paddrs += [base | (a & offset_mask) for a in addrs[i:j]]
            i = j
        if not plines:
            return False
        run_n = l1.access_run(plines, sets_col, paddrs, batch.pcs, start)
        if run_n == 0:
            return False

        # --- Phase 2: virtual (time, seq) merge of dispatch+commit. ---
        # The scan may overshoot what this loop admits (window end, ROB
        # pressure, icap); that is fine because the scan mutated nothing.
        gaps = batch.gaps
        writes = batch.writes
        width = self.width
        rob_size = self.rob_size
        base_cpi = self.base_cpi
        outstanding = self._outstanding
        # The merge loop below runs a few iterations per admitted item;
        # keep its dependencies in locals.
        ceil_ = ceil
        inflight_cls = _InFlight
        out_append = outstanding.append
        out_popleft = outstanding.popleft
        # Entries popped by the virtual commit are dead (their completion
        # callback, if any, fired before the pop) — recycle them so the
        # steady-state loop allocates nothing.
        free: list = []
        free_pop = free.pop
        free_append = free.append
        vicount = self.icount
        vcommitted = self.committed
        vlct = self._last_commit_time
        vlci = self._last_commit_icount
        vndt = self._next_dispatch_time
        vrob_blocked = False  # we are dispatching, so not blocked now
        rob_stalls = 0
        k = 0  # items consumed, relative to start
        # Dispatch-side fast gates: the window cap as a plain compare
        # (sentinel beyond any reachable icount instead of a None test)
        # and the ROB head's icount tracked in a local so the gate costs
        # one subtraction, not a deque probe.
        icap_v = icap if icap is not None else 1 << 62
        _NO_HEAD = 1 << 62
        head_icount = outstanding[0].icount if outstanding else _NO_HEAD

        # Each source is (time, seq) or dormant (time None).  seq orders
        # same-cycle firing exactly as the engine's scheduling order
        # would; the absorbed commit event predates anything scheduled
        # here, hence seq -1.
        dispatch_t: Optional[int] = now
        dispatch_seq = 0
        if c_event is not None:
            commit_t: Optional[int] = c_event.time
            commit_seq = -1
        else:
            commit_t = None
            commit_seq = 0
        c_absorbed = False  # original event virtually fired -> cancel it
        vseq = 1

        while True:
            if dispatch_t is not None and (
                commit_t is None
                or dispatch_t < commit_t
                or (dispatch_t == commit_t and dispatch_seq < commit_seq)
            ):
                vt = dispatch_t
                is_dispatch = True
            elif commit_t is not None:
                vt = commit_t
                is_dispatch = False
            else:
                break  # both dormant
            if vt >= wend:
                break  # a foreign event may precede this: go real

            if is_dispatch:
                if vt < vndt:
                    # Scalar _dispatch fires, sees now < next dispatch
                    # time, and reschedules itself.
                    dispatch_t = vndt
                    dispatch_seq = vseq
                    vseq += 1
                    continue
                if k >= run_n:
                    break  # next item unverified: real event handles it
                sk = start + k
                gap = gaps[sk]
                next_icount = vicount + gap + 1
                if next_icount >= icap_v:
                    break  # watch/quota in reach: real event handles it
                if next_icount - head_icount >= rob_size:
                    if k == 0:
                        return False  # nothing mutated yet: go scalar
                    rob_stalls += 1
                    vrob_blocked = True
                    dispatch_t = None  # dormant until a commit unblocks
                    continue
                # Verified hit: replicate the scalar dispatch in event
                # order.  l1.access completes the request synchronously,
                # so _on_data (commit arming) runs before the ROB append
                # and the front-end reschedule.
                if commit_t is None:
                    commit_t = vt
                    commit_seq = vseq
                    vseq += 1
                if free:
                    fl = free_pop()
                    fl.icount = next_icount
                    fl.is_write = writes[sk] != 0
                    fl.completed_time = vt
                    out_append(fl)
                else:
                    out_append(
                        inflight_cls(next_icount, writes[sk] != 0, vt)
                    )
                if head_icount == _NO_HEAD:
                    head_icount = next_icount
                vicount = next_icount
                k += 1
                vndt = vt + (-(-(gap + 1) // width))
                dispatch_t = vndt
                dispatch_seq = vseq
                vseq += 1
                continue

            # Virtual commit event at time vt.
            if commit_seq == -1:
                c_absorbed = True
            commit_t = None
            while outstanding:
                head = outstanding[0]
                completed = head.completed_time
                if completed is None:
                    break  # pre-existing miss in flight; _on_data re-arms
                pace = ceil_((head.icount - vlci) * base_cpi)
                target = vlct + (pace if pace > 1 else 1)
                if completed > target:
                    target = completed
                if vt < target:
                    commit_t = target
                    commit_seq = vseq
                    vseq += 1
                    break
                out_popleft()
                free_append(head)
                head_icount = (
                    outstanding[0].icount if outstanding else _NO_HEAD
                )
                vlct = target
                vlci = head.icount
                vcommitted = head.icount
                # watch/quota checks are unreachable: icap keeps every
                # committed icount below both thresholds.
                if vrob_blocked:
                    vrob_blocked = False
                    if dispatch_t is None:
                        dispatch_t = vt
                        dispatch_seq = vseq
                        vseq += 1

        if k == 0:
            # Only reachable with zero mutations (the first virtual
            # action is always the dispatch at `now`, which either
            # consumed an item or bailed above).
            return False

        # --- Exit: write state back and reconcile real events. --------
        self.icount = vicount
        self.committed = vcommitted
        self._last_commit_time = vlct
        self._last_commit_icount = vlci
        self._next_dispatch_time = vndt
        self._rob_blocked = vrob_blocked
        cursor.index = start + k

        if c_absorbed:
            c_event.cancel()
            self._commit_scheduled = False
            self._commit_event = None
        # commit_seq == -1 here means the original real event was never
        # reached; it stays queued with its original seq untouched.
        sched_commit = commit_t is not None and commit_seq != -1
        sched_dispatch = dispatch_t is not None
        if sched_commit and (
            not sched_dispatch or commit_seq < dispatch_seq
        ):
            self._commit_scheduled = True
            self._commit_event = engine.schedule_at(commit_t, self._commit)
            sched_commit = False
        if sched_dispatch:
            self._dispatch_scheduled = True
            engine.schedule_at(dispatch_t, self._dispatch)
        if sched_commit:
            self._commit_scheduled = True
            self._commit_event = engine.schedule_at(commit_t, self._commit)

        # --- Phase 3: bulk-apply per-item state and statistics. -------
        # Every admitted item was a TLB hit, an L1 hit and a completed
        # "load" (the scalar hit path runs _on_data for stores too).
        fk = float(k)
        self._c_dispatched_refs.value += fk
        self._c_loads_completed.value += fk
        self._c_load_latency_sum.value += float(k * l1.latency)
        if rob_stalls:
            self._c_rob_stalls.value += float(rob_stalls)
        if tlb is not None:
            tlb._c_hits.value += fk
            last_vpn = -1
            for i in range(start, start + k):
                vpn = vpns[i]
                if vpn != last_vpn:
                    # Consecutive same-page items: the second move_to_end
                    # is a no-op, so only page transitions pay for one.
                    tlb_sets[vpn & tlb_mask].move_to_end(vpn)
                    last_vpn = vpn
        l1.apply_run(plines, sets_col, writes, paddrs, batch.pcs, start, k)
        return True

    def _resume_after_l1(self) -> None:
        self._l1_blocked = False
        self._schedule_dispatch(self.engine.now)

    def _on_data(self, inflight: _InFlight, request: MemoryRequest) -> None:
        engine = self.engine
        now = engine.now
        if inflight.completed_time is None:
            inflight.completed_time = now
        # completed_at was just stamped by complete(); the subtraction is
        # the latency property without the call.
        self._c_load_latency_sum.value += (
            request.completed_at - request.created_at
        )
        self._c_loads_completed.value += 1.0
        if request.poisoned and self.ras_monitor is not None:
            # Consuming poisoned data is the machine-check event; under
            # the "fatal" policy this raises UncorrectableMemoryError
            # before the request is recycled.
            self.ras_monitor.on_poison_consumed(self.core_id, request)
        # This callback is the request's last consumer: the hierarchy
        # only holds it until data delivery.
        request.release()
        if not self._commit_scheduled:
            self._commit_scheduled = True
            self._commit_event = engine.schedule_at(now, self._commit)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def _schedule_commit(self, at: int) -> None:
        if self._commit_scheduled:
            return
        self._commit_scheduled = True
        engine = self.engine
        now = engine.now
        # The event handle is kept so the fused dispatch path can absorb
        # a pending commit into its virtual loop (and cancel the real
        # event if the loop consumes it).
        self._commit_event = engine.schedule_at(
            at if at > now else now, self._commit
        )

    def _commit(self) -> None:
        self._commit_scheduled = False
        now = self.engine.now
        outstanding = self._outstanding
        base_cpi = self.base_cpi
        lct = self._last_commit_time
        lci = self._last_commit_icount
        while outstanding:
            head = outstanding[0]
            completed = head.completed_time
            if completed is None:
                return  # waiting on load data; resumed by _on_data
            icount = head.icount
            pace = ceil((icount - lci) * base_cpi)
            target = lct + (pace if pace > 1 else 1)
            if completed > target:
                target = completed
            if now < target:
                if not self._commit_scheduled:
                    self._commit_scheduled = True
                    self._commit_event = self.engine.schedule_at(
                        target, self._commit
                    )
                return
            outstanding.popleft()
            self._last_commit_time = lct = target
            self._last_commit_icount = lci = icount
            self.committed = icount
            if (
                self._commit_watch is not None
                and self.committed >= self._commit_watch
            ):
                self._commit_watch = None
                callback, self._on_commit_watch = self._on_commit_watch, None
                callback(self)
            self._check_quota()
            if self._rob_blocked:
                self._rob_blocked = False
                self._schedule_dispatch(now)

    def _check_quota(self) -> None:
        if (
            self.frozen
            or self.measure_quota is None
            or self._measure_start_icount is None
        ):
            return
        done = self.committed - self._measure_start_icount
        if done >= self.measure_quota:
            self.frozen = True
            elapsed = self.engine.now - (self._measure_start_time or 0)
            self.frozen_ipc = done / elapsed if elapsed > 0 else 0.0
            self.stats.set("measured_instructions", done)
            self.stats.set("measured_cycles", elapsed)
            if self.on_frozen is not None:
                self.on_frozen(self)
            self.stats.freeze()

    # ------------------------------------------------------------------
    # Snapshot seam
    # ------------------------------------------------------------------
    def capture_state(self, ctx) -> dict:
        """Full core state including the L1, TLB, and trace position.

        ``on_frozen`` is not captured: the machine re-wires it at
        construction, before restore, exactly as the original run did.
        """
        pending = self._pending_item
        return {
            "v": 1,
            "l1": self.l1.capture_state(ctx),
            "tlb": None if self.tlb is None else self.tlb.capture_state(),
            "cursor": (
                None if self._cursor is None else self._cursor.capture_state()
            ),
            "trace_items": self._trace_items,
            "icount": self.icount,
            "committed": self.committed,
            "outstanding": [ctx.ref_inflight(f) for f in self._outstanding],
            "pending_item": None if pending is None else tuple(pending),
            "next_dispatch_time": self._next_dispatch_time,
            "last_commit_time": self._last_commit_time,
            "last_commit_icount": self._last_commit_icount,
            "dispatch_scheduled": self._dispatch_scheduled,
            "commit_scheduled": self._commit_scheduled,
            "rob_blocked": self._rob_blocked,
            "l1_blocked": self._l1_blocked,
            "paused": self._paused,
            "measure_start_icount": self._measure_start_icount,
            "measure_start_time": self._measure_start_time,
            "measure_quota": self.measure_quota,
            "frozen": self.frozen,
            "frozen_ipc": self.frozen_ipc,
            "commit_watch": self._commit_watch,
            "on_commit_watch": (
                None
                if self._on_commit_watch is None
                else ctx.encode_callback(self._on_commit_watch)
            ),
            "commit_event": (
                ctx.ref_event(self._commit_event)
                if self._commit_scheduled and self._commit_event is not None
                else None
            ),
            "fuse_fails": self._fuse_fails,
            "fuse_skip": self._fuse_skip,
        }

    def restore_state(self, state: dict, ctx) -> None:
        from ..common.versioning import check_state_version

        check_state_version(state, 1, "Core")
        self.l1.restore_state(state["l1"], ctx)
        if self.tlb is not None:
            self.tlb.restore_state(state["tlb"])
        if self._cursor is not None:
            self._cursor.restore_state(state["cursor"])
        else:
            # Scalar trace: regenerated fresh at construction, so replay
            # position by consuming the same number of items.
            if self._trace_items != 0:
                raise ValueError("can only restore a core with a fresh trace")
            for _ in range(state["trace_items"]):
                next(self.trace)
            self._trace_items = state["trace_items"]
        self.icount = state["icount"]
        self.committed = state["committed"]
        self._outstanding = deque(
            ctx.get_inflight(ref) for ref in state["outstanding"]
        )
        pending = state["pending_item"]
        self._pending_item = None if pending is None else TraceItem(*pending)
        self._next_dispatch_time = state["next_dispatch_time"]
        self._last_commit_time = state["last_commit_time"]
        self._last_commit_icount = state["last_commit_icount"]
        self._dispatch_scheduled = state["dispatch_scheduled"]
        self._commit_scheduled = state["commit_scheduled"]
        self._rob_blocked = state["rob_blocked"]
        self._l1_blocked = state["l1_blocked"]
        self._paused = state["paused"]
        self._measure_start_icount = state["measure_start_icount"]
        self._measure_start_time = state["measure_start_time"]
        self.measure_quota = state["measure_quota"]
        self.frozen = state["frozen"]
        self.frozen_ipc = state["frozen_ipc"]
        self._commit_watch = state["commit_watch"]
        self._on_commit_watch = (
            None
            if state["on_commit_watch"] is None
            else ctx.decode_callback(state["on_commit_watch"])
        )
        self._commit_event = (
            None
            if state["commit_event"] is None
            else ctx.get_event(state["commit_event"])
        )
        self._fuse_fails = state["fuse_fails"]
        self._fuse_skip = state["fuse_skip"]
