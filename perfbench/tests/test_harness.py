"""Tests of the benchmark's paper-error arithmetic, layer aggregation and digests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import harness as h  # noqa: E402
from repro.experiments.runner import ResultTable  # noqa: E402
from repro.system.machine import CoreResult, MachineResult  # noqa: E402
from repro.system.scale import ExperimentScale  # noqa: E402

REPRO_DIR = str(ROOT / "src" / "repro")
TINY = replace(
    h.WORKLOADS["fig4_hvh"], mixes=("H1",), scale=ExperimentScale("tiny", 300, 1500)
)


def _result(config: str, mix: str, ipc: float) -> MachineResult:
    cores = [CoreResult("bench", ipc, 1000.0, 1000.0 / ipc, 1.0) for _ in range(4)]
    return MachineResult(
        config_name=config, workload=mix, cores=cores, total_cycles=1000,
        l2_stats={"hits": 1.0}, dram_row_hit_rate=0.5, mshr_avg_probes=1.0,
    )


def _table(ipcs) -> ResultTable:
    """A result table whose every core of a cell runs at the given IPC."""
    configs = list(dict.fromkeys(config for config, _ in ipcs))
    mixes = list(dict.fromkeys(mix for _, mix in ipcs))
    cells = {key: _result(*key, ipc) for key, ipc in ipcs.items()}
    return ResultTable(configs, mixes, cells)


# -- paper_err_pct arithmetic --------------------------------------------
def test_relative_error_pct():
    assert h.relative_error_pct(2.598, 2.168) == pytest.approx(19.8339, abs=1e-4)
    assert h.relative_error_pct(1.0, 2.0) == h.relative_error_pct(3.0, 2.0) == 50.0
    with pytest.raises(ValueError):
        h.relative_error_pct(1.0, 0.0)


def test_fig4_error_uses_gm_over_h_and_vh_only():
    table = _table({
        ("2D", "H1"): 0.1, ("3D-fast", "H1"): 0.1 * 2.168,
        ("2D", "VH1"): 0.2, ("3D-fast", "VH1"): 0.2 * 2.168,
        ("2D", "HM1"): 0.3, ("3D-fast", "HM1"): 0.3,  # outside GM(H,VH)
    })
    assert h.WORKLOADS["fig4_hvh"].paper_err(table) == pytest.approx(0.0, abs=1e-9)
    table = _table({("2D", "H1"): 0.1, ("3D-fast", "H1"): 0.26})
    assert h.WORKLOADS["fig4_hvh"].paper_err(table) == pytest.approx(
        (2.6 - 2.168) / 2.168 * 100.0
    )


def test_fig9_error_is_against_the_quad_mc_speedup():
    table = _table({("baseline", "VH2"): 0.5, ("V+D", "VH2"): 0.5 * 1.178})
    assert h.WORKLOADS["fig9_quad_mha"].paper_err(table) == pytest.approx(0.0, abs=1e-9)
    table = _table({("baseline", "VH2"): 0.5, ("V+D", "VH2"): 0.5})
    assert h.WORKLOADS["fig9_quad_mha"].paper_err(table) == pytest.approx(
        0.178 / 1.178 * 100.0
    )


def test_moderate_error_is_the_mean_2d_hmipc_error():
    # Table 2(b): HM1 0.138, M1 1.323.
    table = _table({
        ("2D", "HM1"): 0.138 * 1.1, ("3D-fast", "HM1"): 1.0,
        ("2D", "M1"): 1.323 * 0.8, ("3D-fast", "M1"): 1.0,
    })
    assert h.WORKLOADS["moderate_mixes"].paper_err(table) == pytest.approx(15.0)


def test_shape_checks_name_the_cells_that_break_them():
    table = _table({
        ("2D", "H1"): 0.1, ("3D-fast", "H1"): 0.2,
        ("2D", "VH1"): 0.2, ("3D-fast", "VH1"): 0.2,
    })
    assert h.WORKLOADS["fig4_hvh"].shape(table) == {("3D-fast", "VH1")}
    table = _table({
        ("baseline", "H1"): 0.5, ("V+D", "H1"): 0.6,
        ("baseline", "H2"): 0.5, ("V+D", "H2"): 0.3,
    })
    assert h.WORKLOADS["fig9_quad_mha"].shape(table) == {("V+D", "H1"), ("V+D", "H2")}


# -- by-package aggregation -----------------------------------------------
def _stat(tottime: float, calls: int = 1):
    return (calls, calls, tottime, tottime, {})


def test_self_time_buckets_and_shares_sum_to_one():
    stats = {
        (os.path.join(REPRO_DIR, "engine", "simulator.py"), 10, "run"): _stat(3.0),
        (os.path.join(REPRO_DIR, "cpu", "core.py"), 20, "_dispatch"): _stat(2.0),
        (os.path.join(REPRO_DIR, "cpu", "core.py"), 30, "_commit"): _stat(1.0),
        (os.path.join(REPRO_DIR, "ras", "prng.py"), 5, "hash64"): _stat(0.25),
        ("~", 0, "<built-in method builtins.len>"): _stat(1.5),
        ("/usr/lib/python3/random.py", 1, "random"): _stat(0.25),
    }
    totals = h.self_time_by_layer(stats, REPRO_DIR)
    assert set(totals) == set(h.BUCKETS)
    assert totals["engine"] == 3.0 and totals["cpu"] == 3.0
    assert totals["builtins"] == 1.5 and totals["other"] == 0.5
    shares = h.shares(totals)
    assert math.fsum(shares.values()) == pytest.approx(1.0, abs=1e-12)
    assert shares["engine"] == pytest.approx(3.0 / 8.0)
    assert h.amdahl_ceiling(shares["engine"]) == pytest.approx(8.0 / 5.0)


@pytest.fixture(scope="module")
def traced():
    plain = h.run_pass(TINY, 42)
    return plain, h.run_traced_pass(TINY, 42)


def test_profiled_shares_account_for_all_traced_time(traced):
    plain, trace = traced
    metrics = h.layer_metrics(trace, plain.wall_s, REPRO_DIR)
    whole = math.fsum(value[2] for value in trace.stats.values())
    assert math.fsum(metrics[f"{b}.self_s"] for b in h.BUCKETS) == pytest.approx(whole)
    assert math.fsum(metrics[f"{b}.self_share"] for b in h.BUCKETS) == pytest.approx(
        1.0, abs=1e-9
    )
    for name in ("engine", "cpu", "cache", "memctrl", "dram"):
        assert metrics[f"{name}.self_s"] > 0.0
    assert metrics["engine.events_per_kinst"] > 0.0
    assert metrics["sampling.detailed_share"] == 1.0


def test_counts_and_ratios_repeat_exactly(traced):
    plain, first = traced
    second = h.run_traced_pass(TINY, 42)
    timed = (".self_s", ".self_share", "build_s", "overhead_ratio")
    a = h.layer_metrics(first, plain.wall_s, REPRO_DIR)
    b = h.layer_metrics(second, plain.wall_s, REPRO_DIR)
    counts = [name for name in a if not name.endswith(timed)]
    assert counts and {n: a[n] for n in counts} == {n: b[n] for n in counts}


# -- digests --------------------------------------------------------------
def test_digest_is_stable_across_passes_and_tracing(traced):
    plain, trace = traced
    again = h.run_pass(TINY, 42)
    assert plain.digests == again.digests == trace.run.digests
    assert len(plain.digests) == 2
    assert h.failed_cells(TINY, again, plain.digests) == {}


def test_digest_moves_with_any_digested_field():
    base = _result("2D", "H1", 0.5)
    digest = h.result_digest(base)
    assert h.result_digest(_result("2D", "H1", 0.5)) == digest
    for change in (
        {"total_cycles": 1001},
        {"dram_row_hit_rate": 0.5000000001},
        {"mshr_avg_probes": 1.5},
        {"l2_stats": {"hits": 2.0}},
    ):
        assert h.result_digest(replace(base, **change)) != digest
    other_ipc = replace(base, cores=[replace(base.cores[0], ipc=0.25)] + base.cores[1:])
    assert h.result_digest(other_ipc) != digest


def test_a_changed_digest_fails_the_cell(traced):
    plain, _ = traced
    reference = dict(plain.digests)
    key = next(iter(reference))
    reference[key] = "0" * 16
    assert set(h.failed_cells(TINY, plain, reference)) == {key}


def test_benchmark_json_lists_every_metric_the_harness_prints(traced):
    plain, trace = traced
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = h.layer_metrics(trace, plain.wall_s, REPRO_DIR)
    per_layer["paper_err_pct"] = 0.0
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(h.WORKLOADS)
    for metric in spec["per_layer"] + spec["end_to_end"]:
        assert metric["unit"] == h.unit(metric["name"])
