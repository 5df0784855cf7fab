"""One workload in its own process; started by run.py.

Sets up the workload, prints READY (run.py times set-up up to that line),
then runs timed passes for the given number of seconds -- or, with
--trace 1, alternates untraced and traced passes over the same inputs -- and
prints one JSON line with the results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
FLOAT_RTOL = 1e-9


def percentile(values, q) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


def geomean(values) -> float:
    return math.exp(sum(map(math.log, values)) / len(values)) if values else 0.0


def check_fingerprints(ops) -> dict:
    """First fingerprint of each row; a later pass that disagrees fails."""
    seen = {}
    for op in ops:
        if not op.fingerprint:
            continue
        if op.row not in seen:
            seen[op.row] = op.fingerprint
        elif seen[op.row] != op.fingerprint:
            op.ok = False
            op.error = f"{op.row}: output differs between passes"
    return seen


def compare_reference(workload: str, fingerprints: dict) -> tuple[list, list]:
    """Rows whose fingerprint differs from perfbench/reference.json, and
    rows it has no entry for."""
    path = HERE / "reference.json"
    ref = json.loads(path.read_text()) if path.is_file() else {}
    mismatched, missing = [], []
    for row, fp in fingerprints.items():
        want = ref.get(f"{workload}/{row}")
        if want is None:
            missing.append(row)
            continue
        for key, value in fp.items():
            expect = want.get(key)
            same = (abs(value - expect) <= FLOAT_RTOL * max(1.0, abs(expect))
                    if isinstance(value, float) and isinstance(expect, float)
                    else value == expect)
            if not same:
                mismatched.append(f"{row}.{key}: {value!r} != {expect!r}")
    return mismatched, missing


class Gauge:
    """The host's current speed, read from a fixed reference loop.

    On a shared host, other tenants slow everything in this process by up
    to 1.5-fold for minutes at a time, and the fastest run of anything
    varies from process to process.  The loop is timed once after every
    operation, so the median of its readings and the median of each row's
    operation times cover the same stretches of the run; dividing one by the
    other cancels the host's speed and leaves the program's.  The loop
    mixes interpreter work with the small numpy calls pgmq makes (tensordot
    on a few qubits, eigvalsh and svd of 4x4 matrices), so a slow stretch
    slows both alike.  Its median reading is 1.2 to 2.2 ms on a 2-vCPU x86
    cloud host.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.herm = m + m.conj().T
        self.gate = np.linalg.qr(m)[0].reshape(2, 2, 2, 2)
        self.state = np.ones((2,) * 6, dtype=complex) / 8.0
        self.times = []

    def loop(self) -> float:
        import numpy as np
        total = 0
        for i in range(3000):
            total += i * i % 7
        psi = self.state
        for q in range(40):
            a, b = q % 6, (q + 1) % 6
            psi = np.moveaxis(np.tensordot(self.gate, psi, axes=([2, 3], [a, b])),
                              [0, 1], [a, b])
        for _ in range(16):
            total += float(np.sum(np.abs(np.linalg.eigvalsh(self.herm))))
            total += float(np.linalg.svd(self.herm, compute_uv=False)[0])
        return total

    def read(self) -> None:
        t0 = time.perf_counter()
        self.loop()
        self.times.append(time.perf_counter() - t0)

    def median_s(self) -> float:
        return statistics.median(self.times)


def timed_pass(run_pass, k: int) -> tuple[list, float]:
    t0 = time.perf_counter()
    ops = run_pass(k)
    return ops, time.perf_counter() - t0


def run_passes(wl, seconds: float, traced_pass=None, after_op=None) -> list:
    """Passes k = 0, 1, ... until the next one would end past the deadline
    (at least one).  Returns [(ops, wall)] per pass; with `traced_pass`,
    [(ops, wall, traced ops, traced wall)], the same pass k run through it
    right after, in alternating order.  `after_op` is handed to untraced
    passes only."""
    deadline = time.perf_counter() + seconds
    out = []
    k = 0
    while True:
        t0 = time.perf_counter()
        if traced_pass is None:
            out.append(timed_pass(lambda j: wl.run_pass(j, after_op), k))
        elif k % 2 == 0:
            out.append(timed_pass(wl.run_pass, k) + timed_pass(traced_pass, k))
        else:
            traced = timed_pass(traced_pass, k)
            out.append(timed_pass(wl.run_pass, k) + traced)
        k += 1
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            return out


def outcome(ops) -> dict:
    failed = [op for op in ops if not op.ok]
    for op in failed[:5]:
        print(f"FAILED {op.row}: {op.error}", file=sys.stderr)
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed)}


def row_medians(ops) -> dict:
    """Per row, the medians over its passes of the compile or operation
    latency and of the latency plus verify, with the row's work units: one
    circuit, or its noisy samples for mc_*."""
    lat, tot, work = {}, {}, {}
    for op in ops:
        if op.ok:
            lat.setdefault(op.row, []).append(op.latency_s)
            tot.setdefault(op.row, []).append(op.latency_s + op.verify_s)
            work[op.row] = op.samples or 1
    return {row: (statistics.median(lat[row]), statistics.median(tot[row]),
                  work[row]) for row in lat}


def timed_run(wl, seconds: float) -> dict:
    import pgmq.noise
    gauge = Gauge()
    passes = run_passes(wl, seconds, after_op=gauge.read)
    ops = [op for pass_ops, _ in passes for op in pass_ops]
    walls = [wall for _, wall in passes]
    checks = wl.finish()
    rows = check_fingerprints(ops)
    # an mc row's noise seed comes from the workload seed, so only the
    # set-up compile and the fixed-seed reference pair are fingerprinted
    fingerprints = rows if wl.kind == "compile" else {}
    fingerprints.update(check_fingerprints(checks))
    mismatched, missing = compare_reference(wl.name, fingerprints)
    rows_med = row_medians(ops)
    latency_ms = [1e3 * lat for lat, _, _ in rows_med.values()]
    busy_s = sum(tot for _, tot, _ in rows_med.values())
    mq, norm = wl.quality(fingerprints)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops_per_s = sum(w for _, _, w in rows_med.values()) / busy_s if busy_s else 0.0
    # times in units of the reference loop's median run (see Gauge)
    ref_s = gauge.median_s()
    latency_ref = [lat / ref_s for lat, _, _ in rows_med.values()]
    metrics = {
        "ops_per_kref": 1e3 * ref_s * ops_per_s,
        "latency_ref_geomean": geomean(latency_ref),
        "latency_ref_p90": percentile(latency_ref, 90),
        "mq_count_total": float(mq),
        "norm_total": float(norm),
        "peak_rss_mb": rss_mb,
    }
    result = outcome(ops + checks)
    # wall-clock values, and the design's per-workload names
    named = {"ops_per_s": ops_per_s,
             "latency_ms_geomean": geomean(latency_ms),
             "latency_ms_p90": percentile(latency_ms, 90),
             "peak_rss_mb": rss_mb,
             "failed_frac": result["failed"] / result["attempted"]}
    report = {"passes": len(walls), "pass_walls_s": walls,
              "operations": len(ops), "rows": len(rows_med),
              "timed_wall_s": sum(walls), "ref_loop_median_ms": 1e3 * ref_s,
              "ref_loop_best_ms": 1e3 * min(gauge.times),
              "ref_loop_runs": len(gauge.times)}
    if wl.kind == "compile":
        named.update({
            "circuits_per_s": ops_per_s,
            "compile_ms_p50": percentile(latency_ms, 50),
            "compile_ms_p90": named["latency_ms_p90"],
            "verify_ms_p50": percentile([1e3 * (tot - lat)
                                         for lat, tot, _ in rows_med.values()], 50),
            "mq_count_total": mq, "norm_total": norm})
    else:
        ref = checks[-1].fingerprint
        named.update({
            "mc_samples_per_s": ops_per_s,
            "mc_rel_error": pgmq.noise.relative_error(
                ref["fidelity_compiled"], ref["fidelity_input"]),
            "mc_pair_ms_p50": percentile(latency_ms, 50)})
        defects = {"monte_carlo_calls": 2 * (len(ops) + 1)}
        for op in ops + checks:
            for key, count in op.info.items():
                defects[key] = defects.get(key, 0) + count
        report["mc_ci_defects"] = defects
    report.update({"named_metrics": named,
                   "row_median_ms": {row: 1e3 * lat for row, (lat, _, _)
                                     in sorted(rows_med.items())},
                   "fingerprints": fingerprints,
                   "fingerprint_mismatches": mismatched,
                   "fingerprints_without_reference": missing})
    return {**result, "metrics": metrics, "report": report}


def traced_run(wl, seconds: float) -> dict:
    import spec
    import tracing
    tracer = tracing.Tracer()

    def traced_pass(k):
        with tracer.installed():
            return wl.run_pass(k)

    warmup = wl.run_pass(0)      # first-call costs fall on neither side
    passes = run_passes(wl, seconds, traced_pass)
    plain = [op for p in passes for op in p[0]]
    traced = [op for p in passes for op in p[2]]
    untraced_s = sum(p[1] for p in passes)
    traced_s = sum(p[3] for p in passes)
    for a, b in zip(plain, traced):
        if a.row != b.row or a.fingerprint != b.fingerprint:
            b.ok = False
            b.error = f"{b.row}: traced output differs from untraced"
    checks = wl.finish()
    spans = tracer.summary()
    funcs = tracing.by_function(spans)
    # gate_apply is bound in pgmq.noise and pgmq.circuit; these two names
    # count only the calls looked up through that module
    by_site = {"noise.gate_apply": spans.get("circuit.gate_apply@noise", {}),
               "circuit.gate_apply": spans.get("circuit.gate_apply@circuit", {})}
    n = len(passes)
    samples = sum(op.samples for op in traced)
    accepted = sum(op.info.get("iterations", 0) for op in traced)

    def per_pass(key):
        return sum(op.info.get(key, 0) for op in traced) / n

    def per_sample(span):
        return spans.get(span, {}).get("calls", 0) / samples if samples else 0.0

    values = {
        "passes.norm_steps_accepted": accepted / n,
        "passes.norm_accept_ratio":
            accepted / tracer.proposals if tracer.proposals else 0.0,
        "passes.commutation_events": per_pass("commutation_events"),
        "serialize.program_bytes": per_pass("program_bytes"),
        "noise.gate_apply.calls_per_sample": per_sample("circuit.gate_apply@noise"),
        "noise.errors_per_sample": per_sample("circuit.pauli_gate@noise"),
        "noise.error_free_frac": wl.error_free_frac() if wl.kind == "mc" else 0.0,
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
    }
    metrics = {}
    for name, _unit, _better in spec.PER_LAYER:
        if name not in values:
            base, stat = name.rsplit(".", 1)
            values[name] = by_site.get(base, funcs.get(base, {})).get(stat, 0) / n
        metrics[name] = values[name]
    report = {
        "traced_passes": n, "samples_traced": samples,
        "spans_recorded": len(tracer.start),
        "tracing_overhead": {"traced_s": traced_s, "untraced_s": untraced_s,
                             "ratio": traced_s / untraced_s},
        "spans_per_pass": {name: {k: v / n for k, v in stats.items()}
                           for name, stats in sorted(spans.items())},
        "layer_map": spec.LAYER_MAP,
    }
    return {**outcome(warmup + plain + traced + checks), "metrics": metrics,
            "report": report}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    for var in THREAD_VARS:          # before numpy is imported
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import pgmq
    if Path(pgmq.__file__).resolve().parent != ROOT / "src" / "pgmq":
        print(f"imported pgmq from {pgmq.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads
    try:
        wl = workloads.build(args.workload, ROOT, args.seed)
    except workloads.InputError as exc:
        print(exc, file=sys.stderr)
        return 2
    print("READY", flush=True)
    if args.setup_only:
        return 0
    run = traced_run if args.trace else timed_run
    print(json.dumps(run(wl, args.seconds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
