"""Workloads, checks and measurements of the paper-figure benchmark.

Each workload is a fixed batch of (config, mix) cells that
:func:`repro.experiments.runner.run_matrix` simulates one after another
in this process with one worker: a closed loop with one client.  A
*pass* simulates every cell of the batch once, each cell starting from
empty modelled caches and warming them for its warmup budget before it
measures.

Timing happens only here, around calls into the simulator; no source
file of ``repro`` is instrumented.  The traced pass runs the same batch
under :mod:`cProfile` and splits host self time by ``repro.<package>``.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import os
import pstats
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.cache.l1 import L1Cache
from repro.cache.l2 import BankedL2Cache
from repro.common.request import MemoryRequest
from repro.cpu.core import Core
from repro.dram.bank import Bank
from repro.engine.simulator import Engine
from repro.experiments import figure4, figure9
from repro.experiments.runner import ResultTable, run_matrix
from repro.interconnect.bus import Bus
from repro.memctrl.memsys import MainMemory
from repro.system.config import SystemConfig, config_2d, config_3d_fast, config_quad_mc
from repro.system.machine import Machine, MachineResult
from repro.system.scale import DEFAULT, SMOKE, ExperimentScale
from repro.workloads.mixes import MIXES, mixes_in_groups

Cell = Tuple[str, str]  # (config name, mix name)

#: Modules whose import is part of set-up time; the benchmark needs all.
SETUP_MODULES = (
    "repro.experiments.figure4",
    "repro.experiments.figure9",
    "repro.experiments.runner",
    "repro.sampling.controller",
    "repro.system.machine",
)

#: Host layers: the ``src/repro/<package>`` packages every paper figure
#: runs.  ``ras``, ``stack3d`` modes, ``snapshot``, ``service`` and
#: ``validate`` are off in every figure; what little of them runs, plus
#: stdlib Python and this harness, falls under ``other``.
LAYERS = (
    "engine", "cpu", "cache", "mshr", "memctrl", "dram", "interconnect",
    "common", "workloads", "sampling", "system", "experiments",
)
BUCKETS = LAYERS + ("builtins", "other")

SETUP_REPEATS = 9
MIN_PASSES = 2


# -- paper reference arithmetic ------------------------------------------
def relative_error_pct(measured: float, paper: float) -> float:
    """|measured - paper| / paper, in percent."""
    if paper <= 0:
        raise ValueError(f"paper value must be positive, got {paper}")
    return abs(measured - paper) / paper * 100.0


def _fig4_err(table: ResultTable) -> float:
    gm = table.gm_speedup("3D-fast", "2D", ("H", "VH"))
    return relative_error_pct(gm, figure4.PAPER_GM_H_VH["3D-fast"])


def _fig9_err(table: ResultTable) -> float:
    gm = table.gm_speedup("V+D", "baseline", ("H", "VH"))
    return relative_error_pct(gm, 1.0 + figure9.PAPER_GM_H_VH["quad-mc"] / 100.0)


def _hmipc_err(table: ResultTable) -> float:
    errors = [
        relative_error_pct(table.hmipc("2D", mix), MIXES[mix].paper_hmipc)
        for mix in table.mixes
    ]
    return sum(errors) / len(errors)


# -- paper shape checks: each returns the cells that break the shape -----
def _fast_beats_2d(table: ResultTable) -> Set[Cell]:
    return {
        ("3D-fast", mix)
        for mix in table.mixes
        if table.speedup("3D-fast", mix, "2D") <= 1.0
    }


def _vd_beats_baseline(table: ResultTable) -> Set[Cell]:
    if table.gm_speedup("V+D", "baseline") > 1.0:
        return set()
    return {("V+D", mix) for mix in table.mixes}


def _no_shape(table: ResultTable) -> Set[Cell]:
    return set()


def _fig4_configs() -> List[SystemConfig]:
    return [config_2d(), config_3d_fast()]


def _fig9_configs() -> List[SystemConfig]:
    keep = ("baseline", "V+D")
    return [c for c in figure9._variants(config_quad_mc()) if c.name in keep]


@dataclass(frozen=True)
class Workload:
    name: str
    configs: Callable[[], List[SystemConfig]]
    mixes: Tuple[str, ...]
    scale: ExperimentScale
    sampling: Optional[str]
    paper_err: Callable[[ResultTable], float]
    paper_err_doc: str
    shape: Callable[[ResultTable], Set[Cell]]
    shape_doc: str

    def smoke(self) -> "Workload":
        """One mix at smoke scale, every metric and check still exercised."""
        return replace(self, mixes=self.mixes[:1], scale=SMOKE)


_HVH = tuple(m.name for m in mixes_in_groups("H", "VH"))
_MODERATE = tuple(m.name for m in mixes_in_groups("HM", "M"))

#: Why each workload exists is in README.md.  The H/VH figure cells run
#: at ``smoke`` scale so that one timed run holds several passes.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig4_hvh",
            _fig4_configs, _HVH, SMOKE, None, _fig4_err,
            "|GM(H,VH) 3D-fast/2D - 2.168| / 2.168",
            _fast_beats_2d, "3D-fast beats 2D on every mix",
        ),
        Workload(
            "fig9_quad_mha",
            _fig9_configs, _HVH, SMOKE, None, _fig9_err,
            "|GM(H,VH) V+D/baseline - 1.178| / 1.178",
            _vd_beats_baseline, "V+D GM beats baseline",
        ),
        Workload(
            "moderate_mixes",
            _fig4_configs, _MODERATE, DEFAULT, None, _hmipc_err,
            "mean |2D hmIPC - Table 2(b) hmIPC| / Table 2(b) hmIPC",
            _no_shape, "none",
        ),
        Workload(
            "fig4_hvh_sampled",
            _fig4_configs, _HVH, DEFAULT, "on", _fig4_err,
            "|GM(H,VH) 3D-fast/2D - 2.168| / 2.168",
            _fast_beats_2d, "3D-fast beats 2D on every mix",
        ),
    )
}


# -- result digests -------------------------------------------------------
def result_digest(result: MachineResult) -> str:
    """Short hash of a cell's simulated outcome.

    Covers total cycles, per-core IPC, the L2 stat group, the DRAM
    row-hit rate and MSHR probes per access.  Floats go through
    ``json`` (``repr``), so any change in the last bit changes it.
    """
    payload = {
        "cycles": result.total_cycles,
        "ipc": [core.ipc for core in result.cores],
        "l2": result.l2_stats,
        "row_hit_rate": result.dram_row_hit_rate,
        "probes": result.mshr_avg_probes,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class Pass:
    """One simulation of every cell of a workload."""

    wall_s: float
    table: ResultTable
    digests: Dict[Cell, str]


def run_pass(workload: Workload, seed: int) -> Pass:
    configs = workload.configs()
    mixes = [MIXES[name] for name in workload.mixes]
    gc.collect()
    start = time.perf_counter()
    table = run_matrix(
        configs, mixes, workload.scale, seed=seed, workers=1,
        sampling=workload.sampling,
    )
    wall = time.perf_counter() - start
    digests = {key: result_digest(result) for key, result in table.cells.items()}
    return Pass(wall, table, digests)


def failed_cells(workload: Workload, run: Pass, reference: Dict[Cell, str]) -> Dict[Cell, str]:
    """Cells of ``run`` that fail, with the reason.

    A cell fails when ``run_matrix`` recorded a ``CellFailure`` for it,
    when its digest differs from ``reference`` (the same cell in an
    earlier pass of the same seed), or when it breaks the workload's
    paper shape.
    """
    failed = {key: f"CellFailure: {f.describe()}" for key, f in run.table.failures.items()}
    for key, digest in run.digests.items():
        if reference.get(key, digest) != digest:
            failed[key] = f"digest {digest} != {reference[key]}"
    if not run.table.failures:
        for key in workload.shape(run.table):
            failed.setdefault(key, f"paper shape broken: {workload.shape_doc}")
    return failed


# -- set-up time ----------------------------------------------------------
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "for name in sys.argv[2:]:\n"
    "    __import__(name)\n"
    "print(time.perf_counter() - start)\n"
)


def import_seconds(src: str, repeats: int) -> List[float]:
    """Seconds to import :data:`SETUP_MODULES` in fresh interpreters.

    One extra, untimed import runs first so that every timed one finds
    the same warm file cache.
    """
    times = []
    for _ in range(repeats + 1):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, src, *SETUP_MODULES],
            check=True, capture_output=True, text=True, timeout=60,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times[1:]


def build_seconds(workload: Workload, seed: int, repeats: int) -> List[float]:
    """Seconds to construct every cell's ``Machine`` without simulating."""
    configs = workload.configs()
    times = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        machines = [
            Machine(config, MIXES[mix].benchmarks, seed=seed, workload_name=mix)
            for config in configs
            for mix in workload.mixes
        ]
        times.append(time.perf_counter() - start)
        del machines
    return times


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- traced pass ----------------------------------------------------------
def code_key(fn) -> Tuple[str, int, str]:
    """The ``pstats`` key of a Python function or method."""
    code = getattr(fn, "__func__", fn).__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def layer_of(filename: str, repro_dir: str) -> str:
    """Bucket of a profiled function: a layer, ``builtins`` or ``other``."""
    if filename == "~":
        return "builtins"
    path = os.path.abspath(filename)
    if path.startswith(repro_dir + os.sep):
        package = path[len(repro_dir) + 1:].split(os.sep)[0]
        if package in LAYERS:
            return package
    return "other"


def self_time_by_layer(stats: dict, repro_dir: str) -> Dict[str, float]:
    """Sum ``tottime`` of every profiled function by bucket."""
    totals = dict.fromkeys(BUCKETS, 0.0)
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, _callers) in stats.items():
        totals[layer_of(filename, repro_dir)] += tottime
    return totals


def shares(totals: Dict[str, float]) -> Dict[str, float]:
    whole = sum(totals.values())
    return {name: value / whole for name, value in totals.items()}


def amdahl_ceiling(share: float) -> float:
    """Best end-to-end speed-up if a layer holding ``share`` cost nothing."""
    return 1.0 / (1.0 - share) if share < 1.0 else float("inf")


@dataclass
class Tally:
    """Modelled counts summed over every cell of the traced pass."""

    committed: float = 0.0
    skipped: float = 0.0
    events: float = 0.0
    fused_dispatch_hits: float = 0.0
    l1_hits: float = 0.0
    l1_accesses: float = 0.0
    mshr_probes: float = 0.0
    mshr_accesses: float = 0.0
    l2_mshr_stall_cycles: float = 0.0
    l2_misses: float = 0.0
    measured_instructions: float = 0.0
    mc_issued: float = 0.0
    mc_queue_wait: float = 0.0
    mc_fused_issues: float = 0.0
    row_hits: float = 0.0
    row_accesses: float = 0.0

    def record(self, machine: Machine, result: MachineResult) -> None:
        self.committed += sum(core.committed for core in machine.cores)
        self.events += machine.engine.events_fired
        self.mshr_probes += sum(f.total_probes for f in machine.l2_mshr_files)
        self.mshr_accesses += sum(f.total_accesses for f in machine.l2_mshr_files)
        self.mc_fused_issues += result.extra.get("fused_mc_issues", 0.0)
        for core in result.cores:
            self.l2_misses += core.l2_mpki * core.instructions / 1000.0
            self.measured_instructions += core.instructions
        for name, group in machine.registry.dump().items():
            if name.startswith("l1."):
                self.l1_hits += group.get("hits", 0.0)
                self.l1_accesses += group.get("accesses", 0.0)
            elif name == "l2":
                self.l2_mshr_stall_cycles += group.get("mshr_stall_cycles", 0.0)
            elif name.startswith("mc") and name[2:].isdigit():
                self.mc_issued += group.get("issued", 0.0)
                self.mc_queue_wait += group.get("queue_wait_cycles", 0.0)
                self.row_hits += group.get("row_hits", 0.0)
                self.row_accesses += group.get("row_hits", 0.0) + group.get("row_misses", 0.0)


@contextmanager
def _tallied(tally: Tally) -> Iterator[None]:
    """Record per-cell counts by wrapping simulator entry points.

    The wrappers call straight through, so simulated results are
    unchanged; they are removed on exit.
    """
    patched = []

    def patch(cls, name, make):
        original = cls.__dict__[name]
        patched.append((cls, name, original))
        setattr(cls, name, make(original))

    def after_run(original):
        def run(machine, *args, **kwargs):
            result = original(machine, *args, **kwargs)
            tally.record(machine, result)
            return result
        return run

    def count_skipped(original):
        def skip_ahead(core, instructions):
            skipped = original(core, instructions)
            tally.skipped += skipped
            return skipped
        return skip_ahead

    def count_fused(original):
        def fused_dispatch(core):
            hit = original(core)
            if hit:
                tally.fused_dispatch_hits += 1
            return hit
        return fused_dispatch

    patch(Machine, "run", after_run)
    patch(Machine, "run_sampled", after_run)
    patch(Core, "skip_ahead", count_skipped)
    patch(Core, "_fused_dispatch", count_fused)
    try:
        yield
    finally:
        for cls, name, original in reversed(patched):
            setattr(cls, name, original)


@dataclass
class Trace:
    run: Pass
    stats: dict
    tally: Tally


def run_traced_pass(workload: Workload, seed: int) -> Trace:
    tally = Tally()
    profiler = cProfile.Profile()
    with _tallied(tally):
        profiler.enable()
        try:
            run = run_pass(workload, seed)
        finally:
            profiler.disable()
    return Trace(run, pstats.Stats(profiler).stats, tally)



def _calls(stats: dict, *functions) -> float:
    return float(sum(stats.get(code_key(fn), (0, 0))[1] for fn in functions))


def _mshr_calls(stats: dict, repro_dir: str) -> float:
    return float(sum(
        value[1]
        for (filename, _line, name), value in stats.items()
        if name in ("search", "allocate", "deallocate")
        and layer_of(filename, repro_dir) == "mshr"
    ))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace: Trace, untraced_wall: float, repro_dir: str) -> Dict[str, float]:
    """Every per-layer metric of one traced pass, by name."""
    stats, tally = trace.stats, trace.tally
    kinst = tally.committed / 1000.0
    totals = self_time_by_layer(stats, repro_dir)
    metrics: Dict[str, float] = {}
    for name, share in shares(totals).items():
        metrics[f"{name}.self_s"] = totals[name]
        metrics[f"{name}.self_share"] = share
    fused_calls = _calls(stats, Core._fused_dispatch)
    build = stats.get(code_key(Machine.__init__), (0, 0, 0.0, 0.0))[3]
    metrics.update({
        "engine.events_per_kinst": tally.events / kinst,
        "engine.schedules_per_kinst": _calls(stats, Engine.schedule, Engine.schedule_at) / kinst,
        "cpu.dispatches_per_kinst": _calls(stats, Core._dispatch) / kinst,
        "cpu.commits_per_kinst": _calls(stats, Core._commit) / kinst,
        "cpu.fused_dispatch_hit_ratio": _ratio(tally.fused_dispatch_hits, fused_calls),
        "cache.l1_accesses_per_kinst": _calls(stats, L1Cache.access) / kinst,
        "cache.functional_accesses_per_kinst": _calls(
            stats, L1Cache.functional_access, BankedL2Cache.functional_fetch) / kinst,
        "cache.l1_hit_rate": _ratio(tally.l1_hits, tally.l1_accesses),
        "cache.l2_mpki": _ratio(tally.l2_misses * 1000.0, tally.measured_instructions),
        "mshr.searches_per_kinst": _mshr_calls(stats, repro_dir) / kinst,
        "mshr.probes_per_access": _ratio(tally.mshr_probes, tally.mshr_accesses),
        "mshr.l2_stall_cycles_per_kinst": tally.l2_mshr_stall_cycles / kinst,
        "memctrl.enqueues_per_kinst": _calls(stats, MainMemory.enqueue) / kinst,
        "memctrl.fused_issue_share": _ratio(tally.mc_fused_issues, tally.mc_issued),
        "memctrl.queue_wait_per_read": _ratio(tally.mc_queue_wait, tally.mc_issued),
        "dram.bank_accesses_per_kinst": _calls(stats, Bank.access) / kinst,
        "dram.row_hit_rate": _ratio(tally.row_hits, tally.row_accesses),
        "interconnect.transfers_per_kinst": _calls(stats, Bus.transfer) / kinst,
        "common.request_acquires_per_kinst": _calls(stats, MemoryRequest.acquire) / kinst,
        "sampling.detailed_share": (tally.committed - tally.skipped) / tally.committed,
        "system.build_s": build,
        "trace.overhead_ratio": trace.run.wall_s / untraced_wall,
    })
    return metrics


_UNITS = {
    "cache.l2_mpki": "misses/kinst",
    "mshr.probes_per_access": "probes/access",
    "memctrl.queue_wait_per_read": "cycles/read",
    "mshr.l2_stall_cycles_per_kinst": "cycles/kinst",
    "system.build_s": "s",
    "trace.overhead_ratio": "x",
    "paper_err_pct": "%",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def unit(name: str) -> str:
    """Unit of a metric, by name."""
    if name in _UNITS:
        return _UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_kinst"):
        return "1/kinst"
    return "fraction"
