#!/usr/bin/env python3
"""Paper-figure wall-time benchmark of the repro simulator.

Run from the repository root::

    python3 perfbench/run.py --workload fig4_hvh --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fig4_hvh --trace 1   # per-layer split
    python3 perfbench/run.py --smoke                          # every workload, seconds

Without ``--trace`` the run times whole passes over the workload's cells
for ``--seconds`` seconds and reports ``wall_s``, ``setup_s`` and
``peak_rss_mb``.  With ``--trace 1`` it runs one plain pass and one
pass under ``cProfile`` and reports the per-layer metrics.  The last
line of standard output is one JSON object; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _load_harness():
    """Import the simulator from this checkout, or exit without a result."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]  # a stray REPRO_SAMPLE or REPRO_CHECK changes the run
    sys.path.insert(0, str(SRC))
    try:
        import repro
        import harness
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the simulator from {SRC}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    return harness


def _print_cells(workload, run) -> None:
    for config in run.table.configs:
        for mix in workload.mixes:
            key = (config, mix)
            result = run.table.cells.get(key)
            if result is None:
                print(f"cell {config}/{mix} FAILED")
            else:
                print(f"cell {config}/{mix} digest={run.digests[key]} "
                      f"hmipc={result.hmipc:.6f} cycles={result.total_cycles}")


def _count_failures(h, workload, runs, reference) -> tuple:
    attempted = failed = 0
    for index, run in enumerate(runs):
        cells = len(run.table.configs) * len(run.table.mixes)
        bad = h.failed_cells(workload, run, reference)
        attempted += cells
        failed += len(bad)
        for (config, mix), reason in sorted(bad.items()):
            print(f"FAIL pass {index} cell {config}/{mix}: {reason}")
    return attempted, failed


def _paper_err(workload, run):
    if run.table.failures:
        return None
    return workload.paper_err(run.table)


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def measure_end_to_end(h, workload, seed: int, seconds: float, smoke: bool):
    """Set-up timing, then whole passes for ``seconds`` (two in smoke mode)."""
    imports = h.import_seconds(str(SRC), h.SETUP_REPEATS)
    builds = h.build_seconds(workload, seed, h.SETUP_REPEATS)
    setup_s = statistics.median(imports) + statistics.median(builds)
    print(f"setup import_s={[round(t, 4) for t in imports]} "
          f"build_s={[round(t, 4) for t in builds]}")

    runs = []
    start = time.perf_counter()
    while len(runs) < h.MIN_PASSES or (
        not smoke and time.perf_counter() - start < seconds
    ):
        runs.append(h.run_pass(workload, seed))
        print(f"pass {len(runs) - 1} wall_s={runs[-1].wall_s:.4f}")
    _print_cells(workload, runs[0])
    attempted, failed = _count_failures(h, workload, runs, runs[0].digests)
    print(f"paper_err_pct={_fmt(_paper_err(workload, runs[0]))} "
          f"({workload.paper_err_doc})")
    metrics = {
        "wall_s": statistics.median([run.wall_s for run in runs]),
        "setup_s": setup_s,
        "peak_rss_mb": h.peak_rss_mb(),
    }
    return metrics, attempted, failed


def measure_layers(h, workload, seed: int):
    """One plain pass, then the same pass under ``cProfile``."""
    plain = h.run_pass(workload, seed)
    print(f"pass plain wall_s={plain.wall_s:.4f}")
    trace = h.run_traced_pass(workload, seed)
    print(f"pass traced wall_s={trace.run.wall_s:.4f}")
    _print_cells(workload, plain)
    attempted, failed = _count_failures(
        h, workload, [plain, trace.run], plain.digests
    )
    metrics = h.layer_metrics(trace, plain.wall_s, os.path.join(str(SRC), "repro"))
    metrics["paper_err_pct"] = _paper_err(workload, plain)
    print(f"{'layer':<13}{'self_s':>10}{'share':>9}{'amdahl':>9}")
    for name in h.BUCKETS:
        share = metrics[f"{name}.self_share"]
        print(f"{name:<13}{metrics[f'{name}.self_s']:>10.3f}{share:>9.4f}"
              f"{h.amdahl_ceiling(share):>8.3f}x")
    return metrics, attempted, failed


def run_workload(h, name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    workload = h.WORKLOADS[name]
    if smoke:
        workload = workload.smoke()
    print(f"perfbench workload={name} seed={seed} scale={workload.scale.name} "
          f"mixes={','.join(workload.mixes)} sampling={workload.sampling or 'off'} "
          f"trace={'both' if smoke else trace}")
    metrics, attempted, failed = {}, 0, 0
    phases = (0, 1) if smoke else (trace,)
    for phase in phases:
        if phase:
            part, tried, bad = measure_layers(h, workload, seed)
        else:
            part, tried, bad = measure_end_to_end(h, workload, seed, seconds, smoke)
        metrics.update(part)
        attempted += tried
        failed += bad
    for metric, value in metrics.items():
        print(f"metric {metric} = {_fmt(value)} {h.unit(metric)}")
    print(f"cells attempted={attempted} failed={failed}")
    correct = failed == 0 and all(
        value is not None and math.isfinite(value) for value in metrics.values()
    )
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": h.unit(metric)}
            for metric, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=42,
                        help="simulation seed passed to run_matrix (default 42)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="seconds of whole passes to time (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a cProfile pass")
    parser.add_argument("--smoke", action="store_true",
                        help="one mix per workload at smoke scale, traced and "
                             "untraced, two passes each")
    args = parser.parse_args(argv)
    h = _load_harness()
    if args.workload == "all":
        names = list(h.WORKLOADS)
    elif args.workload in h.WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(h.WORKLOADS)}, all")
    all_correct = True
    for name in names:
        result = run_workload(h, name, args.seed, args.seconds, args.trace, args.smoke)
        all_correct = all_correct and result["correct"]
        print(json.dumps(result), flush=True)
    return 1 if args.smoke and not all_correct else 0


if __name__ == "__main__":
    sys.exit(main())
