"""Batched-vs-scalar equivalence: the fused fast path changes nothing.

The array-batched core loop (columnar ``TraceBatch`` + fused L1-hit
runs) is an execution strategy, not a model change — every stat table
must be bit-identical to the per-item scalar dispatch loop.  These
property tests drive both modes over randomized traces that mix L1
hits, misses, writes and TLB misses, at batch sizes chosen to stress
batch boundaries (1, 2, odd, huge), and diff the complete stat dump —
both in full detail and under a sampling plan, whose functional skips
read the batch columns directly on the batched side.
"""

import random

import pytest

from repro.cpu.trace import batch_iter
from repro.sampling.plan import SamplingPlan
from repro.system.config import config_2d
from repro.system.machine import Machine
from repro.workloads.benchmarks import BENCHMARKS, BenchmarkSpec

_WARMUP = 1_000
_MEASURE = 4_000


def _random_items(seed: int):
    """Finite random mix, replayed in a loop as an endless trace.

    ~80% of references walk a small hot footprint (L1 hits once warm),
    the rest jump across a 32 MiB span (L1/L2 misses and TLB misses);
    ~30% are writes; PCs rotate through a handful of sites so the
    stride prefetcher sees both stable and broken patterns.
    """
    rng = random.Random(seed)
    pcs = [0x400 + 4 * i for i in range(6)]
    items = []
    hot_base = 0x10_0000
    for _ in range(3_000):
        if rng.random() < 0.8:
            addr = hot_base + rng.randrange(0, 8 * 1024)
        else:
            addr = rng.randrange(0, 32 * 1024 * 1024)
        items.append((
            rng.randrange(0, 6),              # gap
            addr,
            1 if rng.random() < 0.3 else 0,   # is_write
            rng.choice(pcs),
        ))
    return items


def _register(name: str, seed: int, batch_size: int) -> str:
    from repro.cpu.trace import TraceItem

    items = _random_items(seed)

    def factory(base, _seed):
        while True:
            for gap, addr, w, pc in items:
                yield TraceItem(gap, base + addr, bool(w), pc)

    BENCHMARKS[name] = BenchmarkSpec(
        name, "Micro", 0.0, factory, base_cpi=0.5,
        batch_factory=lambda base, seed: batch_iter(
            factory(base, seed), size=batch_size
        ),
    )
    return name


@pytest.fixture
def random_benchmark(request):
    seed, batch_size = request.param
    name = f"_randmix_s{seed}_b{batch_size}"
    _register(name, seed, batch_size)
    yield name
    BENCHMARKS.pop(name, None)


# Small alternating schedule: several functional skips per run, so the
# column-direct skip loop crosses batch boundaries at every batch size.
_PLAN = SamplingPlan(
    detailed=300, warmup=900, detail_warmup=100, min_intervals=2
)


def _run(name: str, batched: bool, sampled: bool = False, **overrides):
    config = config_2d().derive(name="2D-1c", num_cores=1, **overrides)
    machine = Machine(
        config, [name], seed=7, workload_name=name, batched=batched
    )
    if sampled:
        result = machine.run_sampled(
            _PLAN, warmup_instructions=_WARMUP, measure_instructions=_MEASURE
        )
    else:
        result = machine.run(
            warmup_instructions=_WARMUP, measure_instructions=_MEASURE
        )
    return result, machine.registry.dump(), machine.engine.events_fired


def _assert_bit_identical(name: str, sampled: bool, **overrides):
    scalar_result, scalar_stats, scalar_events = _run(
        name, batched=False, sampled=sampled, **overrides
    )
    batched_result, batched_stats, batched_events = _run(
        name, batched=True, sampled=sampled, **overrides
    )
    assert batched_stats == scalar_stats
    assert batched_result.hmipc == scalar_result.hmipc
    assert batched_result.total_cycles == scalar_result.total_cycles
    for bcore, score in zip(batched_result.cores, scalar_result.cores):
        assert (bcore.ipc, bcore.instructions, bcore.cycles) == (
            score.ipc, score.instructions, score.cycles
        )
        assert bcore.l2_mpki == score.l2_mpki
        assert bcore.avg_load_latency == score.avg_load_latency
    # The fused path exists to fire fewer events; on a mostly-hit mix it
    # must actually engage (strictly fewer events), not silently fall
    # back to scalar dispatch everywhere.
    assert batched_events < scalar_events


_BATCH_SIZES = dict(
    argvalues=[(11, 1), (11, 2), (23, 7), (23, 4096)],
    indirect=True,
    ids=["batch1", "batch2", "batch-odd", "batch-huge"],
)


@pytest.mark.parametrize("random_benchmark", **_BATCH_SIZES)
def test_random_mix_stats_bit_identical(random_benchmark):
    _assert_bit_identical(random_benchmark, sampled=False)


@pytest.mark.parametrize("random_benchmark", **_BATCH_SIZES)
def test_random_mix_sampled_stats_bit_identical(random_benchmark):
    _assert_bit_identical(random_benchmark, sampled=True)


@pytest.mark.parametrize(
    "random_benchmark", [(23, 7)], indirect=True, ids=["batch-odd"]
)
def test_random_mix_sampled_plru_bit_identical(random_benchmark):
    """A non-LRU L1 takes the replacement-policy hook in the skip loop."""
    # Tree-PLRU needs power-of-two ways; 16 KiB keeps 32 sets.
    _assert_bit_identical(
        random_benchmark, sampled=True,
        l1_size=16 * 1024, l1_assoc=8, l1_replacement="plru",
    )


def test_native_producer_matches_batch_iter_adapter():
    """A generator's native columnar stream must equal the adapter's.

    The synthetic generators produce TraceBatch columns directly; the
    guarantee is that this is purely a faster construction of the same
    items the row-form generator yields.
    """
    import itertools

    from repro.workloads import synthetic as syn

    rows = list(itertools.islice(
        syn.sequential_scan(0x4000, footprint=4096, stride=64, gap=1,
                            seed=3),
        1_500,
    ))
    native = []
    for batch in syn.sequential_scan_batches(
            0x4000, footprint=4096, stride=64, gap=1, seed=3):
        native.extend(batch)
        if len(native) >= 1_500:
            break
    assert native[:1_500] == rows


# ---------------------------------------------------------------------------
# Miss-heavy mixes: the batched core under DRAM-bound traffic.
# ---------------------------------------------------------------------------
#
# The random mix above is mostly L1 hits, so the core's fused dispatch
# mostly succeeds.  The mixes below are DRAM-bound: deep MRQs, blocked
# cores, row conflicts, refresh blackouts, MSHR backpressure, so the
# fast path keeps breaking off into the scalar path mid-run.

from repro.validate import missheavy


# The stock L2 is 12 MiB — a looping synthetic trace becomes resident
# after one pass and stops missing.  Shrink the L2 so the mixes stay
# DRAM-bound for their whole run.
_SMALL_L2 = dict(l2_size=64 * 1024, l2_assoc=8)


def _run_mc(name: str, batched: bool, **overrides):
    params = dict(_SMALL_L2)
    params.update(overrides)
    config = config_2d().derive(name="2D-mh", num_cores=1, **params)
    machine = Machine(
        config, [name], seed=7, workload_name=name, batched=batched
    )
    result = machine.run(
        warmup_instructions=_WARMUP, measure_instructions=_MEASURE
    )
    return result, machine.registry.dump(), machine


@pytest.fixture
def miss_heavy_benchmark(request):
    kind, seed, batch_size = request.param
    name = missheavy.register_miss_heavy(kind, seed, batch_size)
    yield kind, name
    missheavy.unregister(name)


@pytest.mark.parametrize(
    "miss_heavy_benchmark",
    [
        ("streaming", 5, 1),
        ("streaming", 5, 4096),
        ("pointer-chase", 9, 2),
        ("row-conflict-max", 13, 7),
        ("refresh-straddling", 17, 4096),
    ],
    indirect=True,
    ids=[
        "streaming-batch1",
        "streaming-batch-huge",
        "pointer-chase-batch2",
        "row-conflict-batch-odd",
        "refresh-straddle-batch-huge",
    ],
)
def test_miss_heavy_stats_bit_identical(miss_heavy_benchmark):
    _, name = miss_heavy_benchmark
    scalar_result, scalar_stats, scalar_machine = _run_mc(name, batched=False)
    batched_result, batched_stats, batched_machine = _run_mc(name, batched=True)
    assert batched_stats == scalar_stats
    assert batched_result.hmipc == scalar_result.hmipc
    assert batched_result.total_cycles == scalar_result.total_cycles
    for bcore, score in zip(batched_result.cores, scalar_result.cores):
        assert bcore.avg_load_latency == score.avg_load_latency
        assert bcore.l2_mpki == score.l2_mpki
    assert (
        batched_machine.engine.events_fired
        <= scalar_machine.engine.events_fired
    )


def test_miss_heavy_single_entry_mshr_bit_identical():
    """One MSHR entry per bank: maximal backpressure and fill churn."""
    name = missheavy.register_miss_heavy("streaming", 21, 7)
    try:
        dumps = []
        for batched in (False, True):
            _, dump, _ = _run_mc(
                name, batched=batched, l1_mshr_entries=1, l2_mshr_per_bank=1
            )
            dumps.append(dump)
        assert dumps[0] == dumps[1]
    finally:
        missheavy.unregister(name)


def test_miss_heavy_multicore_mixed_kinds_bit_identical():
    """All four miss-heavy kinds at once on a 4-core machine."""
    names = missheavy.register_all(seed=31, batch_size=256)
    try:
        dumps = []
        for batched in (False, True):
            config = config_2d().derive(name="2D-mh4", **_SMALL_L2)
            machine = Machine(
                config, list(names.values()), seed=11,
                workload_name="missheavy-4c", batched=batched,
            )
            machine.run(
                warmup_instructions=_WARMUP, measure_instructions=_MEASURE
            )
            dumps.append(machine.registry.dump())
        assert dumps[0] == dumps[1]
    finally:
        missheavy.unregister(names)


def test_multicore_mix_stats_bit_identical():
    """The stock 4-core H1 mix: full-system scalar vs batched dump."""
    from repro.workloads.mixes import MIXES

    mix = MIXES["H1"]
    dumps = []
    for batched in (False, True):
        machine = Machine(
            config_2d(), list(mix.benchmarks), seed=42,
            workload_name=mix.name, batched=batched,
        )
        machine.run(
            warmup_instructions=_WARMUP, measure_instructions=_MEASURE
        )
        dumps.append(machine.registry.dump())
    assert dumps[0] == dumps[1]
