"""CP-ALS benchmark on HB-CSF: set-up, sweep and peak memory per workload.

Usage::

    python3 perfbench/run.py --workload als-powerlaw --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout.  Workloads: ``als-powerlaw``,
``als-hypersparse``, ``ooc-stream`` (see ``perfbench/README.md``).  Each
run is one process, serial backend, one BLAS thread and one caller in a
closed loop.  The set-up phase repeats a cold plan build for a quarter of
``--seconds``, the solve phase repeats a sweep for the other three
quarters, each at least 3 times; metrics are medians over those repetitions.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps each
layer's public functions (``perfbench/layers.py``) and reports self time
per layer instead.  Human-readable detail goes to stderr; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

from checkout import ROOT, CheckoutError, use_checkout_sources

#: the set-up phase's share of ``--seconds``; the solve phase gets the rest.
SETUP_SHARE = 1 / 4
MIN_REPS = 3
#: scratch space for shard directories, inside the checkout.
WORK_PARENT = ROOT / ".perfbench-work"
#: ``env.copy_gbps`` copies arrays of this size, at least 4x the 105 MiB
#: L3 of the machine the benchmark was sized on.
COPY_BYTES = 420 << 20


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Phase:
    """Timed repetitions of one phase, with per-repetition records."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.layers: list[dict[str, float]] = []
        self.unattributed: list[float] = []
        self.calls: list[int] = []
        self.cache: list[tuple[int, int]] = []
        self.peak_mb: list[float] = []


def run_phase(phase: Phase, prepare, body, after, expect_cache,
              budget_s: float, ledger=None) -> None:
    """Repeat ``prepare`` (untimed), ``body`` (timed), ``after`` (untimed)
    until ``budget_s`` of wall time and :data:`MIN_REPS` repetitions.

    A repetition fails when it raises or when the plan cache's hit/miss
    delta differs from ``expect_cache``.
    """
    from repro.bench.env import reset_peak_rss, vm_hwm_bytes
    from repro.formats.plan_cache import plan_cache_stats

    phase_start = time.perf_counter()
    while (phase.attempted < MIN_REPS
           or time.perf_counter() - phase_start < budget_s):
        phase.attempted += 1
        try:
            prepare()
            gc.collect()
            before = plan_cache_stats()
            if ledger is not None:
                reset_peak_rss()
                ledger.begin()
            start = time.perf_counter()
            body()
            elapsed = time.perf_counter() - start
            if ledger is not None:
                self_s, unattributed, calls = ledger.end(elapsed)
                peak = vm_hwm_bytes()
            after()
        except Exception:  # a failed operation; the run goes on
            phase.failed += 1
            log(f"{phase.name} repetition {phase.attempted} raised:\n"
                + traceback.format_exc())
            continue
        stats = plan_cache_stats()
        delta = (stats["hits"] - before["hits"],
                 stats["misses"] - before["misses"])
        phase.cache.append(delta)
        if delta != expect_cache:
            phase.failed += 1
            log(f"{phase.name} repetition {phase.attempted}: plan cache "
                f"hits/misses {delta}, expected {expect_cache}")
            continue
        phase.seconds.append(elapsed)
        if ledger is not None:
            phase.layers.append(self_s)
            phase.unattributed.append(unattributed)
            phase.calls.append(calls)
            phase.peak_mb.append(peak / 2**20 if peak else 0.0)


def copy_gbps(repeats: int = 5) -> float:
    """Copy bandwidth ceiling: ``np.copyto`` between two warm arrays of
    :data:`COPY_BYTES`, counting bytes read plus bytes written."""
    import numpy as np

    src = np.ones(COPY_BYTES // 8)
    dst = np.zeros_like(src)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    del src, dst
    return 2 * COPY_BYTES / statistics.median(times) / 1e9


def describe(name: str, values: list[float], unit: str) -> str:
    if not values:
        return f"{name}: no samples"
    return (f"{name}: median {statistics.median(values):.4f} {unit} "
            f"(min {min(values):.4f}, max {max(values):.4f}, "
            f"n={len(values)})")


def end_to_end_metrics(setup: Phase, solve: Phase, sweeps: int,
                       peak_mb: float) -> dict:
    sweep = [s / sweeps for s in solve.seconds]
    log(describe("setup_s", setup.seconds, "s"))
    log(describe("sweep_s", sweep, "s"))
    log(f"peak_rss_mb: {peak_mb:.1f} MB (process peak, n=1)")
    return {
        "setup_s": {"value": statistics.median(setup.seconds), "unit": "s"},
        "sweep_s": {"value": statistics.median(sweep), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def layer_metrics(setup: Phase, solve: Phase, sweeps: int, wl,
                  ceiling_gbps: float, wrap_cost_s: float) -> dict:
    """The per-layer ledger of one set-up repetition plus one sweep.

    Layer times are means over repetitions (set-up) and over sweeps
    (solve), so they add up: ``trace.setup_s + trace.sweep_s`` equals the
    sum of all layer self times plus the unattributed time.
    """
    from layers import KERNEL_LAYERS, LAYERS
    from workloads import sweep_bytes, sweep_flops

    def per_rep(phase: Phase, divide: int, layer: str) -> float:
        total = sum(rec.get(layer, 0.0) for rec in phase.layers)
        return total / len(phase.layers) / divide

    def mean(values, divide=1):
        return sum(values) / len(values) / divide

    names = [layer for _, _, layer in LAYERS]
    ledger = {layer: per_rep(setup, 1, layer) + per_rep(solve, sweeps, layer)
              for layer in names}
    setup_s, sweep_s = mean(setup.seconds), mean(solve.seconds, sweeps)
    wall = setup_s + sweep_s
    unattributed = mean(setup.unattributed) + mean(solve.unattributed, sweeps)
    calls = mean(setup.calls) + mean(solve.calls, sweeps)
    kernel_s = sum(per_rep(solve, sweeps, layer) for layer in KERNEL_LAYERS)
    reps = [wl.plan.representation(m) for m in wl.plan.modes]
    flops, nbytes = sweep_flops(reps), sweep_bytes(reps)
    gbps = nbytes / kernel_s / 1e9

    metrics = {layer: (value, "s") for layer, value in ledger.items()}
    metrics.update({
        "formats.plan_cache.hits": (mean([c[0] for c in setup.cache])
                                    + mean([c[0] for c in solve.cache]),
                                    "count"),
        "formats.plan_cache.misses": (mean([c[1] for c in setup.cache])
                                      + mean([c[1] for c in solve.cache]),
                                      "count"),
        "kernels.flops": (flops, "flop"),
        "kernels.bytes_computed": (nbytes, "bytes"),
        "kernels.gbps_computed": (gbps, "GB/s"),
        "kernels.ceiling_frac": (gbps / ceiling_gbps, "ratio"),
        "env.copy_gbps": (ceiling_gbps, "GB/s"),
        "mem.setup_peak_mb": (statistics.median(setup.peak_mb), "MB"),
        "mem.sweep_peak_mb": (statistics.median(solve.peak_mb), "MB"),
        "trace.setup_s": (setup_s, "s"),
        "trace.sweep_s": (sweep_s, "s"),
        "trace.overhead_frac": (calls * wrap_cost_s / wall, "ratio"),
        "trace.unattributed_frac": (unattributed / wall, "ratio"),
    })

    log(f"ledger per set-up + sweep ({wall:.3f} s traced wall; "
        f"set-up n={len(setup.seconds)}, solve n={len(solve.seconds)}, "
        f"{sweeps} sweep(s) per solve):")
    for layer in names:
        log(f"  {layer:28s} {ledger[layer]:9.4f} s "
            f"{100 * ledger[layer] / wall:6.2f} %")
    log(f"  {'(unattributed)':28s} {unattributed:9.4f} s "
        f"{100 * unattributed / wall:6.2f} %")
    log(f"  MTTKRP kernels / sweep      {100 * kernel_s / sweep_s:6.2f} %")
    log(f"  cpd.dense_s / sweep         "
        f"{100 * per_rep(solve, sweeps, 'cpd.dense_s') / sweep_s:6.2f} %")
    ooc_build = (per_rep(setup, 1, "tensor.sort_sharded_s")
                 + per_rep(setup, 1, "formats.streaming_hbcsf_s"))
    log(f"  sort_sharded + streaming_hbcsf / set-up "
        f"{100 * ooc_build / setup_s:6.2f} %")
    log(f"  computed: {flops:.4g} flop, {nbytes:.4g} bytes per sweep; "
        f"{gbps:.3f} GB/s against a {ceiling_gbps:.2f} GB/s copy ceiling "
        f"({COPY_BYTES >> 20} MiB arrays, 105 MiB L3)")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    from repro.bench.env import peak_rss_bytes

    from workloads import make_workload

    ledger = ceiling = wrap_cost = None
    if traced:
        from layers import Ledger, wrapper_cost_s

        ceiling = copy_gbps()
        wrap_cost = wrapper_cost_s()
        gc.collect()
    WORK_PARENT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_PARENT)
    try:
        wl = make_workload(workload, seed, Path(work_dir))
        if traced:
            ledger = Ledger()
            ledger.install()
        setup, solve = Phase("set-up"), Phase("solve")
        try:
            run_phase(setup, wl.prepare_setup, wl.setup, lambda: None,
                      (0, wl.order), seconds * SETUP_SHARE, ledger)
            if setup.seconds:
                run_phase(solve, wl.prepare_solve, wl.solve, wl.after_solve,
                          (wl.order, 0), seconds * (1 - SETUP_SHARE), ledger)
        finally:
            if ledger is not None:
                ledger.uninstall()
        peak_mb = (peak_rss_bytes() or 0) / 2**20
        if not setup.seconds or not solve.seconds:
            raise RuntimeError(f"{workload}: no successful "
                               f"{'set-up' if not setup.seconds else 'solve'}"
                               " repetition")
        for phase in (setup, solve):
            log(f"{phase.name} plan cache (hits, misses) per repetition: "
                f"{dict(Counter(phase.cache))}")
        checks = wl.oracles()
        for name, ok, detail in checks:
            log(f"oracle {'ok  ' if ok else 'FAIL'} {name}: {detail}")
        attempted = setup.attempted + solve.attempted + len(checks)
        failed = (setup.failed + solve.failed
                  + sum(1 for _, ok, _ in checks if not ok))
        sweeps = wl.sweeps_per_solve
        if traced:
            metrics = layer_metrics(setup, solve, sweeps, wl, ceiling,
                                    wrap_cost)
        else:
            metrics = end_to_end_metrics(setup, solve, sweeps, peak_mb)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:  # another run's directory is still there
            pass
    log(f"operations: {failed} failed of {attempted} attempted")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("als-powerlaw", "als-hypersparse",
                                 "ooc-stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout_sources()
    except CheckoutError as exc:
        log(f"error: {exc}")
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
