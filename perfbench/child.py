"""One measured process: fresh interpreter, import, input generation, then the timed loop.

Started by run.py.  With --probe it stops after set-up and reports when it
was ready; otherwise it runs the workload, checks every output and prints
one JSON line.  Set-up is timed against the parent's clock: time.perf_counter
is CLOCK_MONOTONIC on Linux, shared by all processes.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostspeed import host_speed, reference_work  # noqa: E402

# Untraced runs make at least 11 ops, so that a tail percentile exists.
MIN_ITEMS = {"op": 11, "tuple": 2}

def _tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    xs = sorted(values)
    j = max(len(xs) - 11, 0)
    return 100.0 * (j + 1) / len(xs), xs[j]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _timed(wl, kind: str, inp) -> list:
    """[input, output, error, seconds, work, seconds of the reference run just before]."""
    t0 = time.perf_counter()
    reference_work()
    t1 = time.perf_counter()
    try:
        out, err = wl.run(kind, inp), None
    except Exception as exc:  # an op that raises is counted as failed
        out, err = None, f"{type(exc).__name__}: {exc}"
    return [inp, out, err, time.perf_counter() - t1, 0.0, t1 - t0]


def run_loop(wl, seconds: float, tracer=None, min_items=MIN_ITEMS) -> tuple[dict, dict]:
    """Closed loop over each phase; per kind, lists of records made by _timed.

    With a tracer every item runs twice back to back, untraced and then
    traced, so that drift in machine speed cancels out of the overhead.
    Returns (untraced records, traced records).
    """
    plain: dict[str, list] = {}
    traced: dict[str, list] = {}
    for kind, share in wl.phases:
        plain[kind] = []
        deadline = time.perf_counter() + seconds * share
        index = 0
        while True:
            inp = wl.item(kind, index)
            plain[kind].append(_timed(wl, kind, inp))
            if tracer is not None:
                tracer.install()
                span = tracer.open(f"bench.{kind}")
                try:
                    traced.setdefault(kind, []).append(_timed(wl, kind, inp))
                finally:
                    tracer.close(span)
                    tracer.uninstall()
            index += 1
            if time.perf_counter() >= deadline and index >= min_items.get(kind, 1):
                break
    # Counting work parses outputs, so it happens after the clock stops.
    for records in (plain, traced):
        for kind, recs in records.items():
            for rec in recs:
                if rec[2] is None:
                    rec[4] = wl.work(kind, rec[0], rec[1])
    return plain, traced


def check(wl, records) -> tuple[int, int, list[dict]]:
    attempted = failed = 0
    findings = []
    for kind, recs in records.items():
        verdicts = wl.check(kind, [(r[0], r[1], r[2]) for r in recs])
        for index, (rec, verdict) in enumerate(zip(recs, verdicts)):
            attempted += 1
            reason = rec[2] or verdict
            if reason:
                failed += 1
                findings.append({"kind": kind, "index": index, "input": repr(rec[0]), "reason": reason})
    return attempted, failed, findings


def end_to_end(wl, records, peak_rss_mb: float) -> dict:
    """Op times scaled to the reference host speed; the raw figures carry a _raw suffix."""
    ops = [r for r in records["op"] if r[2] is None]
    work = sum(r[4] for r in ops)
    speed = host_speed([r[5] for r in ops])
    out = {"op_count": len(ops), "peak_rss_mb": peak_rss_mb,
           "host_speed_p50": statistics.median(speed), "host_speed_min": min(speed),
           "host_speed_max": max(speed), "op_s_raw_samples": [r[3] for r in ops],
           "ref_s_samples": [r[5] for r in ops]}
    for suffix, op_s in (("", [r[3] * v for r, v in zip(ops, speed)]), ("_raw", [r[3] for r in ops])):
        pct, tail = _tail(op_s)
        out.update({f"op_s_p50{suffix}": statistics.median(op_s), f"op_s_tail{suffix}": tail,
                    f"work_per_s{suffix}": work / sum(op_s)})
    out["op_s_tail_percentile"] = pct
    out["sim_mbit_per_s"] = out["work_per_s"] / 1e6
    tuples = [r for r in records.get("tuple", []) if r[2] is None]
    if tuples:
        out["oracle_tuples"] = len(tuples)
        out["oracle_tuples_per_s"] = len(tuples) / sum(r[3] for r in tuples)
    return out


def _paired_overhead(plain, traced) -> float:
    """Median over items of traced/untraced time, minus one."""
    ratios = [t[3] / p[3] for kind in plain for p, t in zip(plain[kind], traced[kind])
              if p[2] is None and t[2] is None and p[3] > 0]
    return statistics.median(ratios) - 1.0 if ratios else 0.0


def per_layer(tracer, plain, traced, import_s: float) -> dict:
    tot = tracer.layer_totals()
    cnt = tracer.counts

    def calls(name):
        return tot.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(tot.get(n, {}).get("self_s", 0.0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    runs = calls("simulator.run_simulation")
    optimizes = calls("analysis.optimize_beta")
    tuples = calls("validation.aber_wsc1_by_integration") + calls("validation.aber_wsc2_by_integration")
    tuple_s = (tot.get("validation.aber_wsc1_by_integration", {}).get("total_s", 0.0)
               + tot.get("validation.aber_wsc2_by_integration", {}).get("total_s", 0.0))
    m = {
        "fading.derive_stream.calls": (calls("fading.derive_stream"), "count"),
        "fading.derive_stream.self_s": (self_s("fading.derive_stream"), "s"),
        "fading.sample_fading_block.self_s": (self_s("fading.sample_fading_block"), "s"),
        "link.simulate_block.calls": (calls("link.simulate_block"), "count"),
        "link.simulate_block.self_s": (self_s("link.simulate_block"), "s"),
        "link.diff_encode.self_s": (self_s("link.diff_encode"), "s"),
        "link.relay_detect.self_s": (self_s("link.relay_detect"), "s"),
        "link.estimate_relay_snr.self_s": (self_s("link.estimate_relay_snr"), "s"),
        "combiners.wsc_bits.calls": (calls("combiners.wsc_bits"), "count"),
        "combiners.wsc_bits.self_s": (self_s("combiners.wsc_bits"), "s"),
        "combiners.lar_bits.self_s": (self_s("combiners.lar_bits"), "s"),
        "simulator.run_simulation.calls": (runs, "count"),
        "simulator.run_simulation.self_s": (self_s("simulator.run_simulation"), "s"),
        "simulator.blocks_used": (cnt["simulator.blocks_used"], "count"),
        "simulator.blocks_simulated": (cnt["simulator.blocks_simulated"], "count"),
        "simulator.useful_block_frac": (ratio(cnt["simulator.blocks_used"], cnt["simulator.blocks_simulated"]), "frac"),
        "simulator.stop_min_errors_frac": (ratio(cnt["simulator.stops_min_errors"], runs), "frac"),
        "simulator.pool.starts": (cnt["simulator.pool.starts"], "count"),
        "simulator.pool.start_s": (self_s("simulator.pool.create", "simulator.pool.submit",
                                          "simulator.pool.shutdown"), "s"),
        "simulator.pool.wait_s": (self_s("simulator.pool.wait"), "s"),
        "analysis.aber_wsc1.calls": (calls("analysis.aber_wsc1"), "count"),
        "analysis.aber_wsc1.self_s": (self_s("analysis.aber_wsc1"), "s"),
        "analysis.aber_wsc1.calls_per_optimize": (
            ratio(tracer.children_of("analysis.aber_wsc1", "analysis.optimize_beta"), optimizes), "count"),
        "analysis.optimize_beta.calls": (optimizes, "count"),
        "analysis.optimize_beta.self_s": (self_s("analysis.optimize_beta"), "s"),
        "analysis.aber_wsc2.self_s": (self_s("analysis.aber_wsc2"), "s"),
        "validation.aber_wsc1_by_integration.self_s": (self_s("validation.aber_wsc1_by_integration"), "s"),
        "validation.aber_wsc2_by_integration.self_s": (self_s("validation.aber_wsc2_by_integration"), "s"),
        "validation.density_calls": (cnt["validation.density_calls"], "count"),
        "validation.density_calls_per_tuple": (ratio(cnt["validation.density_calls"], tuples), "count"),
        "validation.oracle_tuples_per_s": (ratio(tuples, tuple_s), "1/s"),
        "cli.import_s": (import_s, "s"),
        "cli.emit_s": (self_s("cli.emit"), "s"),
        "trace.overhead_frac": (_paired_overhead(plain, traced), "frac"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def provenance() -> dict:
    import os
    import platform
    from importlib import metadata

    import numpy

    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": metadata.version("scipy")}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--spans", default=None, help="where the traced run writes its spans (.npz)")
    args = p.parse_args()

    t0 = time.perf_counter()
    import ddfwsc.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    t_ready = time.perf_counter()
    result = {"t_ready": t_ready, "import_s": import_s}
    if args.probe:
        print(json.dumps(result))
        return 0

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        plain, traced = run_loop(wl, args.seconds, tracer, min_items={})
        peak = _peak_rss_mb()
        checks = [check(wl, plain), check(wl, traced)]
        result["per_layer"] = per_layer(tracer, plain, traced, import_s)
        result["spans"] = tracer.layer_totals()
        if args.spans:
            tracer.save(args.spans)
        records = plain
    else:
        records, _ = run_loop(wl, args.seconds)
        peak = _peak_rss_mb()
        checks = [check(wl, records)]
    result["attempted"] = sum(c[0] for c in checks)
    result["failed"] = sum(c[1] for c in checks)
    result["findings"] = [f for c in checks for f in c[2]]
    result["end_to_end"] = end_to_end(wl, records, peak)
    result["provenance"] = provenance()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
