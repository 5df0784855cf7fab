"""pgmq benchmark: one workload, one closed-loop client, one JSON result.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Workloads: corpus, random, mc_low, mc_high (see perfbench/README.md).  Each
runs in its own worker process with one client that starts the next
operation only after the previous one ends.  With --trace 0 the last line
of standard output holds the end-to-end metrics; set-up is repeated in
separate processes and setup_s is their median, scaled to a fixed speed of
worker.Gauge's reference loop.  With --trace 1 it holds the
per-layer metrics of a traced run.  The line before it is a report: the
per-workload metric names, fingerprints, environment and seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import spec  # noqa: E402

SETUP_RUNS = 7                # set-ups per timed run; setup_s is their median
GAUGE_NOMINAL_MS = 1.0        # setup_s holds for a host whose Gauge loop takes this
RUN_LIMIT_S = 170             # every worker of one run has ended by then


class BenchError(Exception):
    pass


def check_benchmark_json() -> None:
    """BENCHMARK.json must list exactly the metrics this script prints."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    doc = json.loads(path.read_text())
    declared = ([(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]],
                [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
                [w["name"] for w in doc["workloads"]])
    ours = (list(spec.END_TO_END), list(spec.PER_LAYER), list(spec.WORKLOADS))
    if declared != ours:
        raise BenchError("BENCHMARK.json and perfbench/spec.py disagree")


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
    return left


def start_worker(args: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with the seconds from process start until
    it reported that set-up is done."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    timeout = remaining(deadline)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline() if ready else ""
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY":
        stop(proc)
        raise BenchError(f"worker set-up failed (exit {proc.returncode})")
    return proc, setup_s


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def finish_worker(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for the worker to exit; return its standard output."""
    try:
        out, _ = proc.communicate(timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError(f"worker did not finish within {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    return out


def environment(args) -> dict:
    import importlib.metadata as md
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = md.version(dist)
        except md.PackageNotFoundError:
            versions[dist] = None
    return {"python": platform.python_version(), **versions,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "platform": platform.platform(), "workload": args.workload,
            "workload_seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "threads_per_blas": 1}


def run(args) -> tuple[dict, dict]:
    wargs = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    deadline = time.monotonic() + RUN_LIMIT_S
    # half the extra set-ups before the measured worker, half after, so
    # that setup_s samples more than one stretch of the machine's load
    extra = 0 if args.trace else SETUP_RUNS - 1
    setups = [setup_only(wargs, deadline) for _ in range(extra // 2)]
    proc, setup_s = start_worker(wargs, deadline)
    setups.append(setup_s)
    try:
        lines = finish_worker(proc, deadline).strip().splitlines()
    finally:
        stop(proc)
    if not lines:
        raise BenchError("worker printed no result")
    out = json.loads(lines[-1])
    setups += [setup_only(wargs, deadline) for _ in range(extra - extra // 2)]
    report = {"environment": environment(args), **out["report"]}
    if args.trace:
        metrics = [(n, out["metrics"][n], u) for n, u, _ in spec.PER_LAYER]
    else:
        # The host's speed drifts by a quarter between stretches of minutes,
        # so set-up time is scaled, like the worker's timings, by the
        # reference loop's median reading in the run (see worker.Gauge).
        wall = statistics.median(setups)
        setup = wall * GAUGE_NOMINAL_MS / report["ref_loop_median_ms"]
        report["setup_samples_s"] = setups
        report["named_metrics"]["setup_wall_s"] = wall
        report["named_metrics"]["setup_s"] = setup
        out["metrics"]["setup_s"] = setup
        metrics = [(n, out["metrics"][n], u) for n, u, _ in spec.END_TO_END]
    result = {"correct": out["correct"], "attempted": out["attempted"],
              "failed": out["failed"],
              "metrics": {n: {"value": v, "unit": u} for n, v, u in metrics}}
    return report, result


def setup_only(wargs: list[str], deadline: float) -> float:
    proc, setup_s = start_worker(wargs + ["--setup-only"], deadline)
    try:
        finish_worker(proc, deadline)
    finally:
        stop(proc)
    return setup_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pgmq" / "__init__.py").is_file():
        print(f"no pgmq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        check_benchmark_json()
        report, result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
