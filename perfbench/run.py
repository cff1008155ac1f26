"""fedres benchmark: one workload, one seed, one time budget.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fleet --seed 0 --seconds 25 --trace 0

Workloads: threeway, fleet, sweep, bandit (see perfbench/README.md). With
--trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end metrics; with --trace 1 they are the per-layer metrics of a
traced run plus the tracing overhead. Full results, the machine record and
the spans go to .perfbench_out/<workload>-seed<seed>-trace<t>.json.

This process uses only the standard library. It starts the workload in
fresh child processes (OPENBLAS_NUM_THREADS=1, PYTHONDONTWRITEBYTECODE=1,
PYTHONPATH=src): set-up probes, one measuring process, more set-up probes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("threeway", "fleet", "sweep", "bandit")
DEADLINE_S = 170.0  # a run must end within 180 s
# set-up probes besides the measuring process, half before it, half after
PROBES = {"full": 20, "tiny": 1}
REFERENCE = HERE / "reference.json"


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                   help="all: every workload in turn, one result line each")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs and one set-up probe, for the smoke test")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


class BenchError(RuntimeError):
    pass


def _child(argv: list, env: dict, timeout: float) -> str:
    """Run a worker to completion in its own process group; return its stdout."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {argv[0]} exceeded {timeout:.0f} s")
    finally:
        try:  # pool workers left behind by a crashed worker
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"worker {argv[0]} exited {proc.returncode}:\n{err.strip()}")
    return out


def _env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


# ---------------------------------------------------------------------------
# metrics


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def end_to_end(raw: dict, setups: list, failed: int, attempted: int) -> dict:
    # The window holds whole cycles of the workload's configurations, so
    # neither number depends on where the time budget cut the sequence.
    # rollout_s.p50 is the mean of per-configuration medians: one median
    # over the mixed rollout times of threeway or sweep would fall in a gap
    # between configurations and jump with the units at its edges.
    units = raw["units"]
    by_config: dict[str, list] = {}
    for u in units:
        by_config.setdefault(u["config"], []).append(u["seconds"])
    return {
        "samples_per_s": (sum(u["samples"] for u in units) / raw["wall"], "samples/s"),
        "rollout_s.p50": (statistics.fmean(statistics.median(v) for v in by_config.values()),
                          "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
        "success_frac": (1.0 - failed / attempted, "ratio"),
    }


def per_layer(raw: dict) -> dict:
    trace = raw["trace"]
    layers, counts = trace["layers"], trace["counts"]
    n = len(raw["traced_units"])

    def calls(key):
        return layers.get(key, [0, 0.0, 0.0])[0]

    def incl(key):
        return layers.get(key, [0, 0.0, 0.0])[1]

    def self_s(key):
        return layers.get(key, [0, 0.0, 0.0])[2]

    def c(key):
        return counts.get(key, 0)

    untraced, traced = raw["wall"], raw["traced_wall"]
    busy = sum(u["seconds"] for u in raw["units"])
    capacity = raw["lanes"] * untraced
    return {
        "solver.solve_gram.calls": (_per(calls("solver.solve_gram"), n), "count"),
        "solver.solve_gram.us_per_call":
            (_per(incl("solver.solve_gram"), calls("solver.solve_gram"), 1e6), "us"),
        "solver.active_frac": (_per(c("solver.solve_gram.active"), calls("solver.solve_gram")),
                               "ratio"),
        "solver.alternating_joint_ls_s":
            (_per(incl("solver.alternating_joint_ls"), calls("solver.alternating_joint_ls")), "s"),
        "erm.self_us_per_sample": (_per(self_s("erm"), c("erm.samples"), 1e6), "us"),
        "engine.self_us_per_sample": (_per(self_s("engine"), c("engine.samples"), 1e6), "us"),
        "engine.rounds": (_per(c("engine.rounds"), n), "count"),
        "engine.samples": (_per(c("engine.samples"), n), "count"),
        "engine.build_streams_s":
            (_per(incl("engine.build_streams"), calls("engine.build_streams")), "s"),
        "core.project_ball.calls": (_per(calls("core.project_ball"), n), "count"),
        "core.project_ball.us_per_call":
            (_per(incl("core.project_ball"), calls("core.project_ball"), 1e6), "us"),
        "core.project_ball.active_frac":
            (_per(c("core.project_ball.active"), calls("core.project_ball")), "ratio"),
        "channel.ops": (_per(calls("channel"), n), "count"),
        "channel.us_per_op": (_per(self_s("channel"), calls("channel"), 1e6), "us"),
        "channel.inflight_at_horizon":
            (_per(c("channel.inflight"), c("channel.channels")), "count"),
        "harness.regret_s": (_per(incl("harness.regret"), calls("harness.regret")), "s"),
        "harness.accuracy_s": (_per(incl("harness.accuracy"), calls("harness.accuracy")), "s"),
        "harness.pool_idle_frac": (max(0.0, 1.0 - _per(busy, capacity)), "ratio"),
        "datagen.build_s": (_per(incl("datagen.build"), calls("datagen.build")), "s"),
        "datagen.parse_s": (_per(incl("datagen.parse"), calls("datagen.parse")), "s"),
        "bandit.policy_us_per_round":
            (_per(self_s("bandit.policy"), c("bandit.rounds"), 1e6), "us"),
        "bandit.cb_regret_s": (_per(incl("bandit.cb_regret"), calls("bandit.cb_regret")), "s"),
        "bandit.explore_frac": (_per(c("bandit.explore_rounds"), c("bandit.greedy_rounds")),
                                "ratio"),
        "results.traces": (_per(c("results.traces"), c("results.runs")), "count"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.overhead_frac": (_per(traced - untraced, untraced), "ratio"),
    }


def failures(raw: dict, args) -> tuple[int, int, list]:
    """(failed, attempted, reasons) over every unit the run made."""
    units = raw["units"] + raw.get("traced_units", [])
    bad = [bool(u["error"]) for u in units]
    reasons = [f"unit {k} ({u['config']}): {u['error']}" for k, u in enumerate(units)
               if u["error"]]
    if not raw["header_ok"]:
        reasons.append("harness.CSV_HEADER changed")
        bad = [True] * len(bad)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if args.size == "full" and args.seed == reference["seed"]:
        recorded = reference["unit_sha256"][args.workload]
        for k, (u, digest) in enumerate(zip(raw["units"], recorded)):
            if u["digest"] != digest:
                reasons.append(f"unit {k} rows differ from the recorded reference digest")
                bad[k] = True
    if "traced_units" in raw:
        n = len(raw["units"])
        for k, (plain, traced) in enumerate(zip(raw["units"], raw["traced_units"])):
            if plain["digest"] != traced["digest"]:
                reasons.append(f"traced unit {k} rows differ from the untraced rows")
                bad[n + k] = True
        for k, mismatch in enumerate(raw["inflight_mismatch"]):
            if mismatch:
                reasons.append(f"traced unit {k}: messages in flight at the horizon != sum(alpha)")
                bad[n + k] = True
    return sum(bad), len(units), reasons


# ---------------------------------------------------------------------------


def run(args) -> dict:
    if not (ROOT / "src" / "fedres" / "__init__.py").is_file():
        raise BenchError(f"no fedres sources under {ROOT / 'src'}")
    started = time.monotonic()
    env = _env()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        if args.workload == "sweep":
            corpus = os.path.join(tmp, "corpus.libsvm")
            _child(["prepare", *common, "--corpus", corpus], env, 60)
            common += ["--corpus", corpus]

        def probe() -> float:
            out = _child(["probe", *common, "--spawned", repr(time.monotonic())], env, 60)
            return float(out.strip().splitlines()[-1])

        # Probes before and after the measurement: the machine's speed
        # drifts over tens of seconds, and one instant would set the median.
        probes = PROBES[args.size]
        setups = [probe() for _ in range((probes + 1) // 2)]
        remaining = DEADLINE_S - (time.monotonic() - started)
        out = _child(["measure", *common, "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--spawned", repr(time.monotonic())],
                     env, remaining)
        raw = json.loads(out.strip().splitlines()[-1])
        setups += [probe() for _ in range(probes // 2)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    setups.append(raw["setup_s"])
    failed, attempted, reasons = failures(raw, args)
    if args.trace:
        metrics = per_layer(raw)
    else:
        metrics = end_to_end(raw, setups, failed, attempted)
    for name, (value, _unit) in metrics.items():
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is {value}")
    return {"raw": raw, "setups": setups, "failed": failed, "attempted": attempted,
            "reasons": reasons, "metrics": metrics}


def report(args) -> bool:
    """Run one workload and print its metrics; the last line is the JSON result."""
    try:
        res = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return False
    raw, metrics = res["raw"], res["metrics"]
    rollouts = len(raw["units"])
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "machine": raw["machine"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_s": res["setups"], "failures": res["reasons"], "lanes": raw["lanes"],
        "wall": raw["wall"], "units": raw["units"],
        "traced_wall": raw.get("traced_wall"), "traced_units": raw.get("traced_units"),
        "spans": raw["trace"]["spans"] if args.trace else None,
    }, indent=1), encoding="utf-8")

    m = raw["machine"]
    print(f"# {args.workload} seed={args.seed} size={args.size} trace={args.trace}: "
          f"{rollouts} rollouts on {raw['lanes']} lanes in {raw['wall']:.1f} s; nproc={m['nproc']} "
          f"cpu={m['cpu']!r} python={m['python']} numpy={m['numpy']} blas={m['blas']}")
    for name, (value, unit) in metrics.items():
        note = f"  (n={rollouts} rollouts)" if name == "rollout_s.p50" else ""
        print(f"{name:34s} {value:14.6g} {unit}{note}")
    for reason in res["reasons"]:
        print(f"FAILED {reason}")
    print(f"# record: {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return True


def main(argv=None) -> int:
    args = _args(argv)
    if args.workload != "all":
        return 0 if report(args) else 2
    ok = True
    for workload in WORKLOADS:
        args.workload = workload
        ok = report(args) and ok
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
