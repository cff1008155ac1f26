"""Workload process of the benchmark; run.py starts it, never a user.

  prepare  writes the seeded LIBSVM corpus of the sweep workload
  probe    imports fedres, does the workload's one-time set-up, prints the
           set-up time and exits
  measure  does the same set-up, then runs units for the time budget
           and prints one JSON line of raw results

Set-up time is measured from --spawned, the parent's time.monotonic()
just before it started this process (CLOCK_MONOTONIC is system-wide).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import sys
import time


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("prepare", "probe", "measure"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--corpus", default=None)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spawned", type=float, default=None)
    return p.parse_args(argv)


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def digest(rows: list) -> str:
    from workloads import CSV_HEADER

    text = CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summary(ro) -> dict:
    return {"config": ro.config, "seconds": ro.seconds, "samples": ro.samples,
            "error": ro.error, "digest": digest(ro.rows)}


def run_window(workload, budget: float, units: int | None = None) -> tuple:
    """(wall, rollouts) of units 0, 1, ... on LANES processes.

    Without `units`, whole cycles of the workload's min_units
    configurations run, at least one, and a cycle starts while it is
    expected to end by about the budget; otherwise exactly `units` run.
    """
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    from workloads import LANES, run_unit

    done: dict = {}
    pending: dict = {}
    # fork: the workers inherit the installed tracer and the parsed corpus
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=LANES, mp_context=ctx) as pool:
        start = time.perf_counter()

        def more() -> bool:
            k = len(done) + len(pending)
            if units is not None:
                return k < units
            cycle = workload.min_units
            if k < cycle or k % cycle or not done:
                return True
            mean = sum(ro.seconds for ro in done.values()) / len(done)
            cycle_s = max(mean, cycle * mean / LANES)
            return time.perf_counter() - start + 0.5 * cycle_s <= budget

        while True:
            while len(pending) < LANES and more():
                k = len(done) + len(pending)
                pending[pool.submit(run_unit, workload, k)] = k
            if not pending:
                break
            finished, _ = wait(pending, return_when=FIRST_COMPLETED)
            for fut in finished:
                done[pending.pop(fut)] = fut.result()
        wall = time.perf_counter() - start
    return wall, [done[k] for k in sorted(done)]


def measure(args, workload) -> dict:
    import tracer as tracing
    from fedres import harness
    from workloads import CSV_HEADER, LANES

    tr = tracing.Tracer() if args.trace else None
    if tr:
        tr.install()
    workload.setup()
    setup_s = time.monotonic() - args.spawned
    out = {"setup_s": setup_s, "header_ok": harness.CSV_HEADER == CSV_HEADER, "lanes": LANES}
    if tr:
        setup_trace = tr.collect()
        tr.uninstall()
    # A traced run measures for a third of the budget untraced, then
    # replays the same units traced; whole cycles of configurations make
    # its structural per-rollout counts repeat exactly.
    wall, rollouts = run_window(workload, args.seconds / 3 if tr else args.seconds)
    out["wall"], out["units"] = wall, [summary(ro) for ro in rollouts]
    if tr:
        tr.install()
        wall, traced = run_window(workload, 0.0, units=len(rollouts))
        tr.uninstall()
        out["traced_wall"], out["traced_units"] = wall, [summary(ro) for ro in traced]
        out["trace"] = tracing.merge([setup_trace] + [ro.trace for ro in traced])
        out["inflight_mismatch"] = [
            int(ro.trace["counts"].get("channel.inflight_mismatch", 0)) for ro in traced
        ]
    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["peak_rss_mb"] = rss_kib / 1024.0
    out["machine"] = machine()
    return out


def main(argv=None) -> int:
    args = _args(argv)
    if args.mode == "prepare":
        from workloads import write_corpus

        write_corpus(args.corpus, args.seed, args.size)
        return 0
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.size, args.corpus)
    if args.mode == "probe":
        workload.setup()
        print(repr(time.monotonic() - args.spawned))
        return 0
    print(json.dumps(measure(args, workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
